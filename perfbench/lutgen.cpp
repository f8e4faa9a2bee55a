// lutgen_deg6: lut::LookupTable::generate(6) on a 4-thread par::ThreadPool
// — pattern enumeration, the parametric Pareto-DW per pattern and the
// Lemma-1 LP prover, and no routing layer.  The paper's §VI-B throughput
// claim is stored topologies per CPU second.
//
// The input does not depend on the seed (generation is a pure function of
// the degree); the seed only picks the probe nets that check the fresh
// table against dw::pareto_dw and give hv_total.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common.hpp"
#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/eval/metrics.hpp"
#include "patlabor/lut/pattern.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/util/timer.hpp"

namespace perfbench {

namespace {

constexpr int kDegree = 6;
constexpr int kSetups = 3;
constexpr std::size_t kProbes = 64;
constexpr std::size_t kWarmPatterns = 8;

std::uint64_t stored_topologies(const lut::LookupTable& t) {
  std::uint64_t n = 0;
  for (const auto& [deg, st] : t.stats()) n += st.topologies;
  return n;
}

/// Canonical pattern representatives of one degree, enumerated through the
/// public pattern API the generator uses.
std::vector<lut::PinPattern> enumerate(int degree) {
  std::vector<lut::PinPattern> out;
  std::vector<std::uint8_t> perm(static_cast<std::size_t>(degree));
  std::iota(perm.begin(), perm.end(), std::uint8_t{0});
  do {
    lut::PinPattern p;
    p.n = degree;
    std::copy(perm.begin(), perm.end(), p.perm.begin());
    if (lut::pattern_code(p) == lut::canonical_pattern_only(p).code)
      out.push_back(p);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

/// Probe nets answered from the table and checked against the DW oracle.
void probe(const Options& opt, const lut::LookupTable& table, Result& result,
           double* hv) {
  const std::vector<geom::Net> nets =
      unique_small_nets(opt.seed, kProbes, "probe");
  std::vector<pareto::SolutionSet> got;
  *hv = 0.0;
  for (const geom::Net& net : nets) {
    got.push_back(table.query(net).frontier);
    *hv += eval::net_hypervolume(got.back(), net);
  }
  std::size_t checked = 0;
  const std::uint64_t bad =
      oracle_check(nets, got, kDegree, kProbes, opt.seed, &checked);
  result.check("table queries vs dw::pareto_dw", checked, bad);
}

void check_hash(const Options& opt, const lut::LookupTable& t,
                Result& result) {
  const std::string h = hex64(t.content_hash());
  result.context["table_content_hash"] = h;
  if (!opt.expect_table_hash.empty())
    result.check("content_hash vs recorded " + opt.expect_table_hash, 1,
                 h == opt.expect_table_hash ? 0 : 1);
}

int run_traced(const Options& opt, par::ThreadPool& pool, Result& result) {
  // Untraced reference: the library's own generate().
  const double t0 = now_s();
  const lut::LookupTable table = lut::LookupTable::generate(kDegree, {}, &pool);
  const double generate_s = now_s() - t0;
  check_hash(opt, table, result);

  // The same work re-driven through the public pattern / param_dw calls,
  // in the generator's order and wave shape, on the same pool.
  Tracer tr;
  tr.begin();
  std::vector<lut::PinPattern> patterns;
  {
    Tracer::Scope s(tr, "lutgen.enumerate");
    for (int n = 4; n <= kDegree; ++n)
      for (const auto& p : enumerate(n)) patterns.push_back(p);
  }
  std::vector<double> cpu(patterns.size(), 0.0);
  std::vector<lut::PatternSolutions> sols(patterns.size());
  const std::size_t window = std::max<std::size_t>(8, 4 * pool.size());
  std::size_t base = 0;
  for (int n = 4; n <= kDegree; ++n) {
    std::size_t end = base;
    while (end < patterns.size() && patterns[end].n == n) ++end;
    for (std::size_t b = base; b < end; b += window) {
      const std::size_t count = std::min(window, end - b);
      pool.run_indexed(count, [&](std::size_t i) {
        Tracer::Scope s(tr, "lut.param_dw");
        const double c0 = util::thread_cpu_seconds();
        sols[b + i] = lut::param_dw(patterns[b + i]);
        cpu[b + i] = util::thread_cpu_seconds() - c0;
      });
    }
    base = end;
  }
  tr.end();
  tr.write_json(opt.out_dir + "/lutgen_deg6.trace.json");
  const double wave_s = tr.wall_s();
  const auto totals = tr.totals();

  double dp = 0.0, lp = 0.0;
  for (const auto& s : sols) {
    dp += static_cast<double>(s.dp_solutions);
    lp += static_cast<double>(s.lp_calls);
  }
  double table_lp = 0.0;
  for (const auto& [deg, st] : table.stats())
    table_lp += static_cast<double>(st.lp_calls);
  result.check("traced LP calls vs generate()", 1, lp == table_lp ? 0 : 1);
  const std::size_t violations = tr.violations();
  result.check("trace accounting invariants", 1, violations == 0 ? 0 : 1);

  const std::string saved = opt.out_dir + "/lutgen_deg6.traced.bin";
  const double s0 = now_s();
  table.save(saved);
  const double save_s = now_s() - s0;

  const auto& en = totals.at("lutgen.enumerate");
  const auto& pd = totals.at("lut.param_dw");
  result.set("lutgen.patterns", static_cast<double>(patterns.size()), "count");
  result.set("lutgen.enumerate_ms", en.total_s * 1e3, "ms");
  result.set("lutgen.param_dw_cpu_s",
             std::accumulate(cpu.begin(), cpu.end(), 0.0), "s",
             patterns.size());
  result.set("lutgen.param_dw_max_ms", pd.max_s * 1e3, "ms", patterns.size());
  result.set("lutgen.lp_calls", lp, "count");
  result.set("lutgen.kept_frac",
             dp > 0 ? static_cast<double>(stored_topologies(table)) / dp : 0.0,
             "frac");
  result.set("lutgen.serial_s", generate_s - (wave_s - en.total_s), "s");
  result.set("lutgen.save_ms", save_s * 1e3, "ms");
  result.set("trace.traced_wall_s", wave_s, "s");
  result.set("trace.untraced_wall_s", generate_s, "s");
  result.set("trace.overhead_frac", wave_s / generate_s - 1.0, "frac");
  result.set("trace.unattributed_frac", tr.unattributed(pool.size(), {}),
             "frac");
  result.set("trace.self_time_violations", static_cast<double>(violations),
             "count");
  result.context["trace_file"] = opt.out_dir + "/lutgen_deg6.trace.json";
  return 0;
}

}  // namespace

int run_lutgen(const Options& opt, Result& result) {
  // Set-up: the pool, then a warm-up generation of the shallower degrees
  // and one wave of degree-6 pattern DPs.
  std::unique_ptr<par::ThreadPool> pool;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    pool.reset();
    pool = std::make_unique<par::ThreadPool>(kJobs);
    (void)lut::LookupTable::generate(kDegree - 1, {}, pool.get());
    const std::vector<lut::PinPattern> wave = enumerate(kDegree);
    pool->run_indexed(std::min<std::size_t>(kWarmPatterns, wave.size()),
                      [&](std::size_t i) { (void)lut::param_dw(wave[i]); });
    setups.push_back(now_s() - t0);
  }
  if (opt.trace) return run_traced(opt, *pool, result);

  result.set("setup_s", median(setups), "s", setups.size());
  std::optional<lut::LookupTable> table;
  std::uint64_t first_hash = 0, drift = 0;
  double items = 0.0;
  const std::vector<Rep> reps = repeat_for(
      opt.seconds, [&](std::size_t) { table.reset(); },
      [&](std::size_t k) {
        const double c0 = process_cpu_seconds(), t0 = now_s();
        table.emplace(lut::LookupTable::generate(kDegree, {}, pool.get()));
        const Rep rep{now_s() - t0, process_cpu_seconds() - c0};
        const std::uint64_t h = table->content_hash();
        if (k == 0) {
          first_hash = h;
          items = static_cast<double>(stored_topologies(*table));
        } else {
          drift += h == first_hash ? 0 : 1;
        }
        return rep;
      });
  result.check("generations agree with the first", reps.size() - 1, drift);
  check_hash(opt, *table, result);
  double hv = 0.0;
  probe(opt, *table, result, &hv);
  result.attempted += reps.size();
  set_rep_metrics(result, reps, items);
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.set("hv_total", hv, "hv");
  result.context["stored_topologies"] = std::to_string(
      static_cast<unsigned long long>(items));
  return 0;
}

int make_table(const std::string& path) {
  par::ThreadPool pool(kJobs);
  const lut::LookupTable t = lut::LookupTable::generate(kDegree, {}, &pool);
  t.save(path);
  std::printf("table %s content_hash %s\n", path.c_str(),
              hex64(t.content_hash()).c_str());
  return 0;
}

}  // namespace perfbench
