// The batch-routing workloads: net file -> io::read_nets ->
// Engine::route_batch (jobs = 4, cache on) -> CSV through io::CsvWriter.
//
//   route_small_miss  ~30k unique degree-4..6 nets; a fresh engine per
//                     repetition, so every cache lookup misses and the LUT
//                     path (canonicalize, query, map-back, cache insert and
//                     evict) does all the work.
//   route_iccad_mix   the ICCAD-15 degree mix (degrees 4..64) with a third
//                     of the nets repeated, so local search and degree-7
//                     Pareto-DW dominate and the cache serves real hits.
//
// The traced run re-drives the engine's per-net pipeline from here, through
// the same public layer calls in the same order on a pool of the same
// size, with a benchmark-owned span around each call.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "common.hpp"
#include "patlabor/core/patlabor.hpp"
#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/engine/cache.hpp"
#include "patlabor/eval/metrics.hpp"
#include "patlabor/geom/canonical.hpp"
#include "patlabor/io/csv.hpp"
#include "patlabor/io/netfile.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/par/worker_context.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/rsmt.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSmallNets = 30000;
constexpr std::size_t kSmallWarmNets = 3000;
/// ICCAD-15 profile scale: ~2.6k fresh nets plus ~1.3k repeats.
constexpr double kIccadScale = 0.0025;
constexpr double kIccadWarmScale = 0.0004;
constexpr int kSetups = 3;
constexpr std::uint64_t kWarmSeed = 0x5eed0fa11ULL;

struct Input {
  std::optional<lut::LookupTable> table;
  std::string path;  ///< the net file every repetition reads
  std::size_t nets = 0;
};

std::vector<geom::Net> make_nets(bool miss, std::uint64_t seed, bool warm) {
  if (miss)
    return unique_small_nets(seed, warm ? kSmallWarmNets : kSmallNets,
                             warm ? "w" : "m");
  std::vector<geom::Net> nets =
      iccad_mix_nets(seed, warm ? kIccadWarmScale : kIccadScale);
  // The warm-up touches every regime but skips the costly large-net tail.
  if (warm)
    std::erase_if(nets, [](const geom::Net& n) { return n.degree() > 20; });
  return nets;
}

/// One full set-up: table attach, input generation, warm-up on a disjoint
/// netlist through a throwaway engine.  Returns the lut.open time.
double set_up(const Options& opt, bool miss, Input& in) {
  const double t0 = now_s();
  in.table.reset();
  in.table.emplace(lut::LookupTable::open(opt.table_path));
  const double open_s = now_s() - t0;
  const std::vector<geom::Net> nets = make_nets(miss, opt.seed, false);
  in.path = write_input(opt, opt.workload, nets);
  in.nets = nets.size();
  const engine::Engine warm(engine_options(&*in.table, kJobs));
  (void)warm.route_batch(make_nets(miss, opt.seed ^ kWarmSeed, true));
  return open_s;
}

void write_csv(const std::string& path, const std::vector<geom::Net>& nets,
               const std::vector<engine::RouteResponse>& out) {
  io::CsvWriter csv(path, {"net", "degree", "wirelength", "delay"});
  for (std::size_t n = 0; n < nets.size(); ++n)
    for (const auto& s : out[n].frontier)
      csv.row({nets[n].name, std::to_string(nets[n].degree()),
               io::CsvWriter::num(static_cast<long long>(s.w)),
               io::CsvWriter::num(static_cast<long long>(s.d))});
}

/// What one routed repetition leaves behind for the correctness checks.
struct Routed {
  std::vector<geom::Net> nets;
  std::vector<engine::RouteResponse> out;
};

/// One end-to-end repetition, file to CSV.
Routed route_file(const engine::Engine& eng, const std::string& input,
                  const std::string& csv) {
  Routed r;
  r.nets = io::read_nets(input);
  r.out = eng.route_batch(r.nets);
  write_csv(csv, r.nets, r.out);
  return r;
}

std::vector<std::uint64_t> digests(const std::vector<engine::RouteResponse>& out) {
  std::vector<std::uint64_t> d;
  d.reserve(out.size());
  for (const auto& r : out) d.push_back(response_digest(r));
  return d;
}

std::vector<pareto::SolutionSet> frontiers(
    const std::vector<engine::RouteResponse>& out) {
  std::vector<pareto::SolutionSet> f;
  f.reserve(out.size());
  for (const auto& r : out) f.push_back(r.frontier);
  return f;
}

/// Correctness checks shared by the plain and the traced run: no empty
/// frontier, recorded digest (default seed only), DW oracle on a sample.
void check_routed(const Options& opt, const Routed& r, Result& result) {
  std::uint64_t empty = 0;
  for (const auto& o : r.out) empty += o.frontier.empty() ? 1 : 0;
  result.check("non-empty frontiers", r.out.size(), empty);
  const std::uint64_t digest = combine(digests(r.out));
  result.context["frontier_digest"] = hex64(digest);
  if (!opt.expect_digest.empty())
    result.check("frontier digest vs recorded " + opt.expect_digest,
                 r.out.size(),
                 hex64(digest) == opt.expect_digest ? 0 : r.out.size());
  std::size_t checked = 0;
  const std::uint64_t bad = oracle_check(r.nets, frontiers(r.out), kLambda, 48,
                                         opt.seed, &checked);
  result.check("exact frontiers vs dw::pareto_dw", checked, bad);
}

// ---- the traced pipeline --------------------------------------------------

/// Canonical-frame trees mapped back through the inverse isometry, as the
/// engine does for exact-regime nets.
std::vector<tree::RoutingTree> map_back(
    const std::vector<tree::RoutingTree>& trees, const geom::Isometry& back,
    const geom::Net& net) {
  std::vector<tree::RoutingTree> out;
  out.reserve(trees.size());
  std::vector<std::pair<geom::Point, geom::Point>> edges;
  for (const tree::RoutingTree& ct : trees) {
    edges.clear();
    for (std::size_t v = 1; v < ct.num_nodes(); ++v)
      if (ct.parent(v) >= 0)
        edges.emplace_back(
            back.apply(ct.node(v)),
            back.apply(ct.node(static_cast<std::size_t>(ct.parent(v)))));
    out.push_back(tree::RoutingTree::from_edges(net, edges));
  }
  return out;
}

struct TracedNet {
  engine::RouteResponse r;
  bool local = false;
};

TracedNet traced_route(Tracer& tr, engine::FrontierCache& cache,
                       const lut::LookupTable& table, const geom::Net& net) {
  Tracer::Scope task(tr, "engine.route");
  TracedNet t;
  const std::size_t n = net.degree();
  const bool exact = n <= std::min<std::size_t>(kLambda, lut::kMaxLutDegree) ||
                     n <= 3;
  t.local = !exact;
  geom::CanonicalNet canon;
  std::uint64_t key = 0;
  if (exact) {
    Tracer::Scope s(tr, "geom.canonicalize");
    canon = geom::canonicalize(net);
    key = canon.key;
  } else {
    Tracer::Scope s(tr, "geom.pin_sequence_hash");
    key = geom::pin_sequence_hash(net.pins);
  }
  const std::vector<geom::Point>& pins = exact ? canon.net.pins : net.pins;

  std::optional<engine::CacheEntry> hit;
  {
    Tracer::Scope s(tr, "engine.cache.find");
    hit = cache.find(key, pins);
  }
  engine::CacheEntry entry;
  if (hit) {
    entry = std::move(*hit);
    t.r.cache_hit = true;
  } else {
    if (exact && table.covers(n)) {
      Tracer::Scope s(tr, "lut.query");
      auto q = table.query(canon.net);
      entry.frontier = std::move(q.frontier);
      entry.trees = std::move(q.trees);
    } else if (exact) {
      Tracer::Scope s(tr, "dw.solve");
      auto& arena = par::WorkerContext::current().get<dw::DwScratch>();
      auto d = dw::pareto_dw(canon.net, {}, &arena);
      entry.frontier = std::move(d.frontier);
      entry.trees = std::move(d.trees);
    } else {
      Tracer::Scope s(tr, n <= 20 ? "core.search.8_20" : "core.search.gt20");
      core::PatLaborOptions po;
      po.lambda = kLambda;
      po.table = &table;
      po.pool = &par::inline_pool();
      auto res = core::patlabor(net, po);
      entry.frontier = std::move(res.frontier);
      entry.trees = std::move(res.trees);
      entry.iterations = res.iterations;
    }
    entry.pins = pins;
    Tracer::Scope s(tr, "engine.cache.insert");
    cache.insert(key, entry);
  }
  t.r.frontier = std::move(entry.frontier);
  t.r.iterations = entry.iterations;
  if (exact) {
    Tracer::Scope s(tr, "engine.map_back");
    t.r.trees = map_back(entry.trees, canon.to_canonical.inverse(), net);
  } else {
    t.r.trees = std::move(entry.trees);
  }
  return t;
}

double per_call(const std::map<std::string, Tracer::Totals>& t,
                const std::string& name, double scale) {
  const auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0.0;
  return it->second.total_s / static_cast<double>(it->second.count) * scale;
}

double total(const std::map<std::string, Tracer::Totals>& t,
             const std::string& name, double scale) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total_s * scale;
}

int run_traced(const Options& opt, Input& in,
               const std::vector<double>& opens, Result& result) {
  const lut::LookupTable& table = *in.table;
  const std::string csv = opt.out_dir + "/" + opt.workload + ".traced.csv";
  result.set("lut.open_ms", median(opens) * 1e3, "ms", opens.size());

  // (1) Untraced reference repetition: the engine with obs off.
  Routed plain;
  double untraced = 0.0;
  {
    const engine::Engine eng(engine_options(&table, kJobs));
    const double t0 = now_s();
    plain = route_file(eng, in.path, csv);
    untraced = now_s() - t0;
  }
  check_routed(opt, plain, result);
  const std::vector<std::uint64_t> want = digests(plain.out);

  // (2) The same repetition with the library's runtime counters on: cache
  // and pool statistics come from the engine's own accounting.
  {
    const engine::Engine eng(engine_options(&table, kJobs));
    obs::StatsRegistry::instance().reset();
    obs::set_enabled(true);
    const double t0 = now_s();
    const Routed r = route_file(eng, in.path, csv);
    const double wall = now_s() - t0;
    obs::set_enabled(false);
    obs::clear_trace();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < r.out.size(); ++i)
      bad += response_digest(r.out[i]) == want[i] ? 0 : 1;
    result.check("obs-on repetition vs plain repetition", r.out.size(), bad);

    const engine::CacheStats cs = eng.cache_stats();
    double lock_us = 0.0;
    for (const auto& s : cs.shards) lock_us += static_cast<double>(s.lock.wait_us);
    const double lookups = static_cast<double>(cs.hits + cs.misses);
    result.set("engine.cache.evictions", static_cast<double>(cs.evictions),
               "count");
    result.set("engine.cache.lock_wait_ms", lock_us * 1e-3, "ms");
    result.set("engine.cache.hit_ratio",
               lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0,
               "frac");
    result.set("engine.cache.lookups", lookups, "count");

    const auto lanes = eng.pool()->worker_stats();
    double busy = 0.0, most = 0.0, steals = 0.0;
    for (const auto& l : lanes) {
      busy += static_cast<double>(l.busy_us) * 1e-6;
      most = std::max(most, static_cast<double>(l.busy_us) * 1e-6);
      steals += static_cast<double>(l.steals);
    }
    const double nl = static_cast<double>(lanes.size());
    result.set("par.lane_busy_frac", busy / (nl * wall), "frac");
    result.set("par.imbalance_ms", (most - busy / nl) * 1e3, "ms");
    result.set("par.steals", steals, "count");
    const auto snap = obs::StatsRegistry::instance().snapshot();
    const auto runs = snap.counters.find("dw.runs");
    result.set("dw.calls",
               runs == snap.counters.end() ? 0.0
                                           : static_cast<double>(runs->second),
               "count");
  }

  // (3) The benchmark-owned traced pipeline, obs off.
  Tracer tr;
  par::ThreadPool pool(kJobs);
  engine::FrontierCache cache(engine::CacheOptions{}.capacity,
                              engine::CacheOptions{}.shards);
  tr.begin();
  std::vector<geom::Net> nets;
  {
    Tracer::Scope s(tr, "io.read_nets");
    nets = io::read_nets(in.path);
  }
  std::vector<TracedNet> traced(nets.size());
  pool.run_sharded(nets.size(), [&](std::size_t i) {
    traced[i] = traced_route(tr, cache, table, nets[i]);
  });
  std::vector<engine::RouteResponse> out(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) out[i] = traced[i].r;
  {
    Tracer::Scope s(tr, "io.csv_write");
    write_csv(csv, nets, out);
  }
  tr.end();
  tr.write_json(opt.out_dir + "/" + opt.workload + ".trace.json");

  std::uint64_t bad = 0;
  double iterations = 0.0;
  std::vector<const geom::Net*> local;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    bad += response_digest(out[i]) == want[i] ? 0 : 1;
    if (traced[i].local) {
      local.push_back(&nets[i]);
      if (!traced[i].r.cache_hit) iterations += traced[i].r.iterations;
    }
  }
  result.check("traced pipeline vs engine", nets.size(), bad);
  const std::size_t violations = tr.violations();
  result.check("trace accounting invariants", 1, violations == 0 ? 0 : 1);

  const auto t = tr.totals();
  result.set("io.read_nets_ms", total(t, "io.read_nets", 1e3), "ms");
  result.set("io.csv_write_ms", total(t, "io.csv_write", 1e3), "ms");
  result.set("geom.canonicalize_ns", per_call(t, "geom.canonicalize", 1e9),
             "ns");
  result.set("engine.cache.find_ns", per_call(t, "engine.cache.find", 1e9),
             "ns");
  result.set("engine.cache.insert_ns",
             per_call(t, "engine.cache.insert", 1e9), "ns");
  result.set("engine.map_back_ns", per_call(t, "engine.map_back", 1e9), "ns");
  result.set("lut.query_ns", per_call(t, "lut.query", 1e9), "ns");
  result.set("dw.solve_us", per_call(t, "dw.solve", 1e6), "us");
  result.set("core.search.ms_per_net_8_20",
             per_call(t, "core.search.8_20", 1e3), "ms");
  result.set("core.search.ms_per_net_gt20",
             per_call(t, "core.search.gt20", 1e3), "ms");
  result.set("core.search.iterations", iterations, "count");

  // (4) Seed construction on the same local-regime nets, outside the
  // traced window (core::patlabor runs it internally; this isolates it).
  double seed_s = 0.0;
  for (const geom::Net* net : local) {
    const double t0 = now_s();
    (void)rsmt::rsmt(*net);
    (void)rsma::rsma(*net);
    seed_s += now_s() - t0;
  }
  result.set("core.search.seed_ms",
             local.empty() ? 0.0 : seed_s / static_cast<double>(local.size()) * 1e3,
             "ms", local.size());

  result.set("trace.traced_wall_s", tr.wall_s(), "s");
  result.set("trace.untraced_wall_s", untraced, "s");
  result.set("trace.overhead_frac", tr.wall_s() / untraced - 1.0, "frac");
  result.set("trace.unattributed_frac",
             tr.unattributed(kJobs, {"engine.route"}), "frac");
  result.set("trace.self_time_violations", static_cast<double>(violations),
             "count");
  result.context["trace_file"] = opt.out_dir + "/" + opt.workload + ".trace.json";
  return 0;
}

}  // namespace

int run_route(const Options& opt, Result& result) {
  const bool miss = opt.workload == "route_small_miss";
  Input in;
  std::vector<double> setups, opens;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = now_s();
    opens.push_back(set_up(opt, miss, in));
    setups.push_back(now_s() - t0);
  }
  const std::uint64_t table_hash = in.table->content_hash();
  result.context["table_content_hash"] = hex64(table_hash);
  result.context["nets"] = std::to_string(in.nets);
  if (!opt.expect_table_hash.empty())
    result.check("table content hash vs recorded", 1,
                 hex64(table_hash) == opt.expect_table_hash ? 0 : 1);

  if (opt.trace) return run_traced(opt, in, opens, result);

  result.set("setup_s", median(setups), "s", setups.size());
  const std::string csv = opt.out_dir + "/" + opt.workload + ".csv";
  std::unique_ptr<engine::Engine> eng;
  Routed first;
  std::vector<std::uint64_t> want;
  std::uint64_t drift = 0, routed = 0;
  std::string rep_hits = "cache hits per repetition:";
  const std::vector<Rep> reps = repeat_for(
      opt.seconds,
      [&](std::size_t) {
        eng.reset();
        eng = std::make_unique<engine::Engine>(
            engine_options(&*in.table, kJobs));
      },
      [&](std::size_t k) {
        const double c0 = process_cpu_seconds(), t0 = now_s();
        Routed r = route_file(*eng, in.path, csv);
        const Rep rep{now_s() - t0, process_cpu_seconds() - c0};
        routed += r.out.size();
        std::size_t h = 0;
        for (const auto& o : r.out) h += o.cache_hit ? 1 : 0;
        rep_hits += ' ';
        rep_hits += std::to_string(h);
        if (k == 0) {
          want = digests(r.out);
          first = std::move(r);
        } else {
          for (std::size_t i = 0; i < r.out.size(); ++i)
            drift += response_digest(r.out[i]) == want[i] ? 0 : 1;
        }
        return rep;
      });
  eng.reset();

  result.check("repetitions agree with the first", routed - first.out.size(),
               drift);
  check_routed(opt, first, result);
  double hv = 0.0;
  for (std::size_t i = 0; i < first.out.size(); ++i)
    hv += eval::net_hypervolume(first.out[i].frontier, first.nets[i]);
  result.notes.push_back(rep_hits);
  set_rep_metrics(result, reps, static_cast<double>(first.out.size()));
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.set("hv_total", hv, "hv");
  return 0;
}

}  // namespace perfbench
