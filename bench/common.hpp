// Shared plumbing for the experiment harnesses.
//
// Every harness:
//   * scales its instance counts by the REPRO_SCALE env var (default 1.0),
//   * prints a paper-style ASCII table to stdout,
//   * writes a CSV next to the current working directory,
//   * reuses one on-disk lookup-table cache (patlabor_lut_cache.bin under
//     PATLABOR_BENCH_OUT, default bench/out/) so the ~20 s degree-6
//     generation is paid once per checkout.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/report.hpp"
#include "patlabor/patlabor.hpp"

namespace patlabor::bench {

/// Directory for new bench artifacts (CSVs, SVGs, phase reports): PATLABOR_BENCH_OUT if set, else bench/out/ under the CWD,
/// created on first use.  Historical result files tracked at the repo root
/// are left where they are; only freshly produced artifacts land here.
inline const std::string& out_dir() {
  static const std::string dir = [] {
    const char* env = std::getenv("PATLABOR_BENCH_OUT");
    std::string d = env != nullptr && *env != '\0' ? env : "bench/out";
    std::error_code ec;
    std::filesystem::create_directories(d, ec);
    if (ec) {
      std::printf("[bench] cannot create %s (%s); writing to CWD\n",
                  d.c_str(), ec.message().c_str());
      return std::string(".");
    }
    return d;
  }();
  return dir;
}

/// Joins a file name onto out_dir().
inline std::string out_path(const std::string& file) {
  return out_dir() + "/" + file;
}

/// The shared lookup-table cache file: lives under out_dir() (honoring
/// PATLABOR_BENCH_OUT) instead of littering the repo root.
inline const std::string& lut_cache_path() {
  static const std::string path = out_path("patlabor_lut_cache.bin");
  return path;
}

/// True when the PATLABOR_OBS env var (any value but "" / "0") asks benches
/// to record telemetry; evaluated once, enabling the obs runtime before
/// main() so every phase of the harness is covered.
inline const bool kObsRequested = [] {
  const char* v = std::getenv("PATLABOR_OBS");
  const bool on = v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
  if (on) obs::set_enabled(true);
  return on;
}();

/// Writes the phase breakdown + counters collected so far to
/// <stem>.phases.json (see obs::report_json) when PATLABOR_OBS is set.
/// Harnesses with a CSV stem call this once at the end; print_curve_report
/// does it automatically.  Wall time is measured from process start.
inline void emit_obs_report(const std::string& stem) {
  if (!kObsRequested) return;
  const auto events = obs::drain_trace();
  const auto phases = obs::aggregate_phases(events);
  const double wall = static_cast<double>(obs::now_us()) * 1e-6;
  const std::string path = out_path(stem + ".phases.json");
  obs::write_report_json(path, obs::StatsRegistry::instance().snapshot(),
                         phases, wall);
  std::printf("Phase breakdown: %s (%zu spans)\n", path.c_str(),
              events.size());
}

/// Lookup table up to `max_degree`, opened from the cache file when the
/// cached table is deep enough, regenerated (and re-cached) otherwise.
inline lut::LookupTable cached_lut(int max_degree) {
  try {
    lut::LookupTable t = lut::LookupTable::open(lut_cache_path());
    if (t.max_degree() >= max_degree) return t;
  } catch (const std::exception&) {
    // fall through to regeneration
  }
  std::printf("[setup] generating lookup tables up to degree %d "
              "(cached in %s)...\n",
              max_degree, lut_cache_path().c_str());
  std::fflush(stdout);
  lut::LookupTable t = lut::LookupTable::generate(max_degree);
  try {
    t.save(lut_cache_path());
  } catch (const std::exception& e) {
    std::printf("[setup] cache write failed (%s); continuing in-memory\n",
                e.what());
  }
  return t;
}

/// Integer env knob with default.
inline int env_int(const char* name, int def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : def;
}

/// The solution set of one baseline method on one net, Pareto-filtered, and
/// the wall-clock seconds it took.
struct MethodRun {
  pareto::SolutionSet frontier;
  double seconds = 0.0;
};

inline MethodRun run_patlabor(const geom::Net& net,
                              const lut::LookupTable* table,
                              std::size_t lambda = 9) {
  util::Timer timer;
  core::PatLaborOptions opt;
  opt.table = table;
  opt.lambda = lambda;
  auto r = core::patlabor(net, opt);
  return {std::move(r.frontier), timer.seconds()};
}

inline MethodRun run_salt(const geom::Net& net) {
  util::Timer timer;
  const auto eps = baselines::default_epsilons();
  const auto trees = baselines::salt_sweep(net, eps);
  return {pareto::SolutionSet::of(tree::objectives(trees)), timer.seconds()};
}

inline MethodRun run_ysd(const geom::Net& net) {
  util::Timer timer;
  const auto betas = baselines::default_betas();
  const auto trees = baselines::ysd_sweep(net, betas);
  return {pareto::SolutionSet::of(tree::objectives(trees)), timer.seconds()};
}

inline MethodRun run_pd(const geom::Net& net) {
  util::Timer timer;
  const auto alphas = baselines::default_alphas();
  const auto trees = baselines::pd_sweep(net, alphas, {.refine = true});
  return {pareto::SolutionSet::of(tree::objectives(trees)), timer.seconds()};
}

inline MethodRun run_pareto_ks(const geom::Net& net,
                               const lut::LookupTable* table) {
  util::Timer timer;
  core::ParetoKsOptions opt;
  opt.table = table;
  auto r = core::pareto_ks(net, opt);
  return {std::move(r.frontier), timer.seconds()};
}

/// Shared computation of Tables III and IV: per degree 4..9, generate
/// ICCAD-like nets, compute the true frontier (PatLabor is exact there),
/// and record how each method's parameter sweep covers it.
struct SmallDegreeStudy {
  eval::OptimalityCounter patlabor;
  eval::OptimalityCounter ysd;
  eval::OptimalityCounter salt;
  double patlabor_seconds = 0.0;
  double ysd_seconds = 0.0;
  double salt_seconds = 0.0;
};

inline SmallDegreeStudy run_small_degree_study(std::size_t nets_per_degree,
                                               const lut::LookupTable& table,
                                               std::uint64_t seed = 15) {
  // Per-degree weights follow Table III's net-count proportions.
  const std::size_t weights[] = {365, 257, 103, 75, 43, 62};  // deg 4..9
  SmallDegreeStudy study;
  util::Rng rng(seed);
  for (std::size_t degree = 4; degree <= 9; ++degree) {
    const std::size_t count = std::max<std::size_t>(
        1, nets_per_degree * weights[degree - 4] / weights[0]);
    for (std::size_t i = 0; i < count; ++i) {
      const geom::Net net = netgen::clustered_net(rng, degree);
      const MethodRun pl = run_patlabor(net, &table);
      const MethodRun ys = run_ysd(net);
      const MethodRun sa = run_salt(net);
      study.patlabor_seconds += pl.seconds;
      study.ysd_seconds += ys.seconds;
      study.salt_seconds += sa.seconds;
      study.patlabor.add(degree, pl.frontier, pl.frontier);
      study.ysd.add(degree, pl.frontier, ys.frontier);
      study.salt.add(degree, pl.frontier, sa.frontier);
    }
  }
  return study;
}

/// Prints a Fig. 7-style averaged-curve table: one row per normalized-w
/// grid point, one column per method, plus a runtime footer; also writes
/// CSV and an SVG plot.
inline void print_curve_report(const std::string& title,
                               const std::string& stem,
                               const eval::CurveAccumulator& acc,
                               const std::vector<double>& grid) {
  const auto methods = acc.methods();
  std::vector<std::string> header{"w / w(FLUTE)"};
  for (const auto& m : methods) header.push_back(m);
  io::AsciiTable table(header);

  std::vector<std::string> csv_header{"w_norm"};
  for (const auto& m : methods) csv_header.push_back(m);
  io::CsvWriter csv(out_path(stem + ".csv"), csv_header);

  std::vector<io::LabeledCurve> plots;
  for (const auto& m : methods)
    plots.push_back(io::LabeledCurve{m, acc.average(m, grid)});

  for (std::size_t g = 0; g < grid.size(); ++g) {
    std::vector<std::string> row{util::fixed(grid[g], 3)};
    std::vector<std::string> csv_row{io::CsvWriter::num(grid[g])};
    for (const auto& p : plots) {
      row.push_back(util::fixed(p.points[g].d, 4));
      csv_row.push_back(io::CsvWriter::num(p.points[g].d));
    }
    table.add_row(std::move(row));
    csv.row(csv_row);
  }
  table.print(title + "  (cells: avg d / d(CL))");
  std::printf("Runtime totals:");
  for (const auto& m : methods)
    std::printf("  %s %.1fs (%zu nets)", m.c_str(), acc.runtime(m),
                acc.net_count(m));
  std::printf("\nCSV: %s   SVG: %s\n", out_path(stem + ".csv").c_str(),
              out_path(stem + ".svg").c_str());
  io::write_file(out_path(stem + ".svg"), io::curves_svg(plots));
  emit_obs_report(stem);
}

}  // namespace patlabor::bench
