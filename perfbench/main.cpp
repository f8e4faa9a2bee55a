// perfbench: the repository benchmark.  One process runs one workload and
// prints its metrics; the last stdout line is the JSON result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --table <deg6.bin> [--out-dir <dir>] [--expect-digest <hex>]
//             [--expect-table-hash <hex>] [--git-sha <s>] [--source-sha <s>]
//   perfbench --make-table <path>
//   perfbench --selftest [--out-dir <dir>]
//
// perfbench/run.py builds this program and supplies the table, the
// recorded digests and the provenance; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json: every run reports exactly these.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},       {"cpu_s", "s"},
    {"items_per_s", "1/s"},  {"items_per_cpu_s", "1/s"},
    {"peak_rss_mb", "MB"},   {"hv_total", "hv"},
};

constexpr MetricDef kPerLayer[] = {
    {"io.read_nets_ms", "ms"},
    {"io.csv_write_ms", "ms"},
    {"geom.canonicalize_ns", "ns"},
    {"engine.cache.find_ns", "ns"},
    {"engine.cache.insert_ns", "ns"},
    {"engine.cache.evictions", "count"},
    {"engine.cache.lock_wait_ms", "ms"},
    {"engine.cache.hit_ratio", "frac"},
    {"engine.cache.lookups", "count"},
    {"engine.map_back_ns", "ns"},
    {"lut.query_ns", "ns"},
    {"lut.open_ms", "ms"},
    {"dw.calls", "count"},
    {"dw.solve_us", "us"},
    {"core.search.ms_per_net_8_20", "ms"},
    {"core.search.ms_per_net_gt20", "ms"},
    {"core.search.seed_ms", "ms"},
    {"core.search.iterations", "count"},
    {"par.lane_busy_frac", "frac"},
    {"par.imbalance_ms", "ms"},
    {"par.steals", "count"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.route_p50_us", "us"},
    {"serve.write_p50_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.gen_late_p99_ms", "ms"},
    {"serve.lat_p50_ms", "ms"},
    {"serve.lat_p99_ms", "ms"},
    {"serve.lat_samples", "count"},
    {"serve.max_ok_rps", "1/s"},
    {"lutgen.patterns", "count"},
    {"lutgen.enumerate_ms", "ms"},
    {"lutgen.param_dw_cpu_s", "s"},
    {"lutgen.param_dw_max_ms", "ms"},
    {"lutgen.lp_calls", "count"},
    {"lutgen.kept_frac", "frac"},
    {"lutgen.serial_s", "s"},
    {"lutgen.save_ms", "ms"},
    {"trace.traced_wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"},
    {"trace.self_time_violations", "count"},
};

/// Reorders the metrics into the documented list of the run's mode.  A
/// metric the workload does not exercise reads 0 and is named in a note;
/// a metric outside the list is a bug and fails the run.
template <std::size_t N>
void conform(Result& r, const MetricDef (&defs)[N]) {
  std::vector<Result::Metric> out;
  std::string absent;
  for (const MetricDef& d : defs) {
    bool found = false;
    for (const auto& m : r.metrics)
      if (m.name == d.name) {
        out.push_back(m);
        out.back().unit = d.unit;
        found = true;
      }
    if (!found) {
      out.push_back({d.name, 0.0, d.unit, 0});
      absent += std::string(absent.empty() ? "" : ", ") + d.name;
    }
  }
  for (const auto& m : r.metrics) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || m.name == d.name;
    if (!known) r.check("metric '" + m.name + "' is not in the list", 1, 1);
  }
  if (!absent.empty()) r.notes.push_back("not exercised (0): " + absent);
  r.metrics = std::move(out);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --table <path> [--out-dir <dir>]\n"
               "       perfbench --make-table <path>\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string make_table;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (a == "--trace") opt.trace = value() != "0";
    else if (a == "--out-dir") opt.out_dir = value();
    else if (a == "--table") opt.table_path = value();
    else if (a == "--expect-digest") opt.expect_digest = value();
    else if (a == "--expect-table-hash") opt.expect_table_hash = value();
    else if (a == "--git-sha") opt.git_sha = value();
    else if (a == "--source-sha") opt.source_sha = value();
    else if (a == "--make-table") make_table = value();
    else if (a == "--selftest") selftest = true;
    else return usage(("unknown argument " + a).c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) return usage(("cannot create " + opt.out_dir).c_str());

  try {
    if (!make_table.empty()) return perfbench::make_table(make_table);
    if (selftest) return perfbench::selftest(opt);

    static const std::set<std::string> kRoute = {"route_small_miss",
                                                 "route_iccad_mix"};
    const bool needs_table = opt.workload != "lutgen_deg6";
    if (needs_table && opt.table_path.empty())
      return usage("--table is required for this workload");
    if (opt.seconds <= 0) return usage("--seconds must be positive");

    Result result;
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);
    if (kRoute.count(opt.workload) != 0)
      perfbench::run_route(opt, result);
    else if (opt.workload == "serve_mixed")
      perfbench::run_serve(opt, result);
    else if (opt.workload == "lutgen_deg6")
      perfbench::run_lutgen(opt, result);
    else
      return usage(("unknown workload '" + opt.workload + "'").c_str());

    if (opt.trace)
      conform(result, kPerLayer);
    else
      conform(result, kEndToEnd);
    return perfbench::emit(opt, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
