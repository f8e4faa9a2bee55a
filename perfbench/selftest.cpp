// Self-tests of the benchmark itself (perfbench --selftest):
//   * the same seed produces byte-identical input files, another seed not;
//   * a deliberately perturbed frontier is reported as a failure by the
//     same checks the workloads run;
//   * the tracer's accounting: a synthetic bad span is caught, and a real
//     traced run has no negative self time and no lane over its wall.
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common.hpp"
#include "patlabor/par/pool.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void inputs_are_reproducible(const Options& opt) {
  const auto same = [&](const std::string& stem, const auto& make) {
    const std::string a = slurp(write_input(opt, stem + "_a", make(11)));
    const std::string b = slurp(write_input(opt, stem + "_b", make(11)));
    const std::string c = slurp(write_input(opt, stem + "_c", make(12)));
    expect(!a.empty() && a == b, stem + ": same seed, byte-identical file");
    expect(a != c, stem + ": another seed, another file");
  };
  same("selftest_small", [](std::uint64_t s) {
    return unique_small_nets(s, 2000, "m");
  });
  same("selftest_iccad",
       [](std::uint64_t s) { return iccad_mix_nets(s, 0.001); });
}

void perturbed_frontier_fails(const Options& opt) {
  const lut::LookupTable table = lut::LookupTable::open(opt.table_path);
  const engine::Engine eng(engine_options(&table, kJobs));
  const std::vector<geom::Net> nets = unique_small_nets(3, 200, "p");
  const auto out = eng.route_batch(nets);
  std::vector<pareto::SolutionSet> f;
  for (const auto& r : out) f.push_back(r.frontier);
  std::size_t checked = 0;
  expect(oracle_check(nets, f, kLambda, nets.size(), 1, &checked) == 0 &&
             checked == nets.size(),
         "engine frontiers agree with dw::pareto_dw on every net");

  // Move one point of one frontier by one unit of wirelength.
  pareto::ObjVec pts(f[17].begin(), f[17].end());
  pts.front().w += 1;
  const pareto::SolutionSet good = f[17];
  f[17] = pareto::SolutionSet::of(pts);
  expect(oracle_check(nets, f, kLambda, nets.size(), 1, &checked) == 1,
         "a perturbed frontier is one oracle failure");

  engine::RouteResponse bent = out[17];
  bent.frontier = f[17];
  expect(response_digest(bent) != response_digest(out[17]),
         "a perturbed frontier changes the response digest");
  f[17] = good;

  // Result accounting: any failure makes the run incorrect (exit 1).
  Result r;
  r.check("deliberate failure (expected in this self-test)", 10, 1);
  Options quiet = opt;
  quiet.workload = "selftest";
  r.set("wall_s", 1.0, "s");
  expect(emit(quiet, r) != 0, "a failed check makes the run exit non-zero");
}

void tracer_accounting(const Options& opt) {
  {
    Tracer tr;
    tr.begin();
    par::ThreadPool pool(kJobs);
    pool.run_sharded(64, [&](std::size_t i) {
      Tracer::Scope task(tr, "task");
      volatile double x = 0;
      for (std::size_t k = 0; k < 2000 * (i % 7 + 1); ++k) x = x + 1.0;
      Tracer::Scope leaf(tr, "leaf");
      for (std::size_t k = 0; k < 1000; ++k) x = x + 1.0;
    });
    tr.end();
    expect(tr.violations() == 0, "pool spans: no accounting violations");
    bool nonneg = true;
    for (const auto& [name, t] : tr.totals()) nonneg = nonneg && t.self_s >= 0;
    expect(nonneg, "pool spans: every self time >= 0");
    const double u = tr.unattributed(kJobs, {"task"});
    expect(u >= 0.0 && u <= 1.0, "pool spans: unattributed share in [0, 1]");

    // A child that outlives its parent must be caught.
    const std::int64_t t0 = Tracer::clock_ns();
    tr.inject({"parent", t0, t0 + 10, -1, 0});
    tr.inject({"child", t0, t0 + 20, 0, 1});
    expect(tr.violations() > 0, "a child longer than its parent is caught");
  }

  // A real traced run of the LUT-path workload.
  Options t = opt;
  t.workload = "route_small_miss";
  t.trace = true;
  Result r;
  run_route(t, r);
  double violations = -1.0, unattributed = -1.0;
  for (const auto& m : r.metrics) {
    if (m.name == "trace.self_time_violations") violations = m.value;
    if (m.name == "trace.unattributed_frac") unattributed = m.value;
  }
  expect(r.failed == 0, "traced route_small_miss: every check passes");
  expect(violations == 0.0,
         "traced route_small_miss: self times >= 0, lanes within the wall");
  expect(unattributed >= 0.0 && unattributed <= 1.0,
         "traced route_small_miss: unattributed share in [0, 1]");
}

}  // namespace

int selftest(const Options& opt) {
  if (opt.table_path.empty()) {
    std::fprintf(stderr, "error: --selftest needs --table\n");
    return 2;
  }
  inputs_are_reproducible(opt);
  perturbed_frontier_fails(opt);
  tracer_accounting(opt);
  std::printf("selftest: %s (%d failure%s)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
