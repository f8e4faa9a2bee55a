// The engine subsystem: geom::canonicalize properties (invariance under
// translation / axis swap / reflection), the frontier cache (LRU, pin
// validation, hit/miss accounting), the method table, and the engine's
// determinism contract — cache on, cache off, a cache hit, and any job
// count produce bit-identical frontiers and trees, and the PatLabor path
// matches direct core::patlabor — and engine::map_back against the
// from_edges map-back it replaced (map_back_reference.hpp).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "map_back_reference.hpp"
#include "patlabor/engine/map_back.hpp"
#include "patlabor/patlabor.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::Net;
using geom::Point;

/// `net` mapped through symmetry `sym` plus a translation.
Net transformed(const Net& net, int sym, Point offset) {
  geom::Isometry iso = geom::symmetry(sym);
  iso.t = offset;
  Net out;
  out.pins.reserve(net.pins.size());
  for (const Point& p : net.pins) out.pins.push_back(iso.apply(p));
  return out;
}

// ---- geom::canonicalize properties ----

TEST(Canonicalize, InvariantUnderTranslationAxisSwapAndReflection) {
  util::Rng rng(11);
  for (int round = 0; round < 100; ++round) {
    const Net net =
        testing::random_net(rng, 2 + rng.index(10), 5000, /*allow_ties=*/true);
    const geom::CanonicalNet base = geom::canonicalize(net);
    for (int sym = 0; sym < geom::kNumSymmetries; ++sym) {
      const Point offset{static_cast<geom::Coord>(rng.uniform_int(-4000, 4000)),
                         static_cast<geom::Coord>(rng.uniform_int(-4000, 4000))};
      const geom::CanonicalNet c =
          geom::canonicalize(transformed(net, sym, offset));
      EXPECT_EQ(c.key, base.key) << "sym " << sym;
      EXPECT_EQ(c.net.pins, base.net.pins) << "sym " << sym;
    }
  }
}

TEST(Canonicalize, TransformMapsOriginalOntoCanonicalPins) {
  util::Rng rng(12);
  for (int round = 0; round < 50; ++round) {
    const Net net = testing::random_net(rng, 2 + rng.index(8), 3000, true);
    const geom::CanonicalNet c = geom::canonicalize(net);
    // Source maps to the canonical source; sinks map onto the sorted tail.
    std::vector<Point> mapped;
    for (const Point& p : net.pins) mapped.push_back(c.to_canonical.apply(p));
    EXPECT_EQ(mapped.front(), c.net.pins.front());
    std::sort(mapped.begin() + 1, mapped.end());
    EXPECT_EQ(mapped, c.net.pins);
    // The inverse isometry round-trips every pin exactly.
    const geom::Isometry back = c.to_canonical.inverse();
    for (const Point& p : net.pins)
      EXPECT_EQ(back.apply(c.to_canonical.apply(p)), p);
  }
}

TEST(Canonicalize, IdempotentAndAnchoredAtOrigin) {
  util::Rng rng(13);
  for (int round = 0; round < 50; ++round) {
    const Net net = testing::random_net(rng, 2 + rng.index(8), 3000, true);
    const geom::CanonicalNet c = geom::canonicalize(net);
    geom::Coord mnx = c.net.pins[0].x, mny = c.net.pins[0].y;
    for (const Point& p : c.net.pins) {
      mnx = std::min(mnx, p.x);
      mny = std::min(mny, p.y);
    }
    EXPECT_EQ(mnx, 0);
    EXPECT_EQ(mny, 0);
    const geom::CanonicalNet again = geom::canonicalize(c.net);
    EXPECT_EQ(again.net.pins, c.net.pins);
    EXPECT_EQ(again.key, c.key);
  }
}

TEST(Canonicalize, SourceChoiceDistinguishesNets) {
  // Same pin multiset, different source: different canonical identity
  // (routing is asymmetric in the source).
  Net a, b;
  a.pins = {{0, 0}, {10, 1}, {3, 7}};
  b.pins = {{10, 1}, {0, 0}, {3, 7}};
  EXPECT_NE(geom::canonicalize(a).key, geom::canonicalize(b).key);
}

TEST(Isometry, InverseRoundTripsEverySymmetry) {
  util::Rng rng(14);
  for (int sym = 0; sym < geom::kNumSymmetries; ++sym) {
    geom::Isometry iso = geom::symmetry(sym);
    iso.t = Point{rng.uniform_int(-100, 100), rng.uniform_int(-100, 100)};
    const geom::Isometry back = iso.inverse();
    for (int i = 0; i < 20; ++i) {
      const Point p{rng.uniform_int(-1000, 1000), rng.uniform_int(-1000, 1000)};
      EXPECT_EQ(back.apply(iso.apply(p)), p);
      EXPECT_EQ(iso.apply(back.apply(p)), p);
    }
  }
}

TEST(BoxSymmetry, IsTheLutRankSpaceTransformGroup) {
  // lut::transform_point == box_symmetry on the rank square [0,n-1]^2 —
  // the extraction that pattern.cpp now delegates to.
  for (int n = 2; n <= lut::kMaxLutDegree; ++n)
    for (int t = 0; t < lut::kNumTransforms; ++t) {
      const geom::Isometry iso =
          geom::box_symmetry(t, n - 1, n - 1);
      const geom::Isometry back = iso.inverse();
      for (int x = 0; x < n; ++x)
        for (int y = 0; y < n; ++y) {
          const lut::RankPoint p{static_cast<std::uint8_t>(x),
                                 static_cast<std::uint8_t>(y)};
          const Point q = iso.apply(Point{x, y});
          const lut::RankPoint viaLut = lut::transform_point(p, t, n);
          EXPECT_EQ(q.x, viaLut.x);
          EXPECT_EQ(q.y, viaLut.y);
          const Point r = back.apply(Point{x, y});
          const lut::RankPoint invLut = lut::inverse_transform_point(p, t, n);
          EXPECT_EQ(r.x, invLut.x);
          EXPECT_EQ(r.y, invLut.y);
        }
    }
}

// ---- FrontierCache ----

engine::CacheEntry entry_with(std::vector<Point> pins) {
  engine::CacheEntry e;
  e.pins = std::move(pins);
  return e;
}

TEST(FrontierCache, LruEvictsLeastRecentlyUsed) {
  engine::FrontierCache cache(/*capacity=*/2, /*shards=*/1);
  cache.insert(1, entry_with({{1, 1}}));
  cache.insert(2, entry_with({{2, 2}}));
  EXPECT_TRUE(cache.find(1, {{1, 1}}).has_value());  // bump key 1
  cache.insert(3, entry_with({{3, 3}}));             // evicts key 2
  EXPECT_FALSE(cache.find(2, {{2, 2}}).has_value());
  EXPECT_TRUE(cache.find(1, {{1, 1}}).has_value());
  EXPECT_TRUE(cache.find(3, {{3, 3}}).has_value());
  const engine::CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  // Re-inserting a resident key refreshes it to most-recent without
  // evicting anything or growing the shard...
  cache.insert(1, entry_with({{1, 1}}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  // ...so the next eviction takes the other key.
  cache.insert(4, entry_with({{4, 4}}));
  EXPECT_FALSE(cache.find(3, {{3, 3}}).has_value());
  EXPECT_TRUE(cache.find(1, {{1, 1}}).has_value());
  EXPECT_TRUE(cache.find(4, {{4, 4}}).has_value());
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(FrontierCache, KeyMatchWithDifferentPinsIsAMiss) {
  engine::FrontierCache cache(8, 1);
  cache.insert(42, entry_with({{1, 1}, {2, 2}}));
  EXPECT_FALSE(cache.find(42, {{1, 1}, {9, 9}}).has_value());
  EXPECT_TRUE(cache.find(42, {{1, 1}, {2, 2}}).has_value());
}

TEST(FrontierCache, ZeroCapacityDisablesStorage) {
  engine::FrontierCache cache(0, 4);
  cache.insert(1, entry_with({{1, 1}}));
  EXPECT_FALSE(cache.find(1, {{1, 1}}).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(FrontierCache, NeverHoldsMoreThanCapacity) {
  // The capacity bounds the total even when more stripes are requested
  // than there are entries.
  for (const std::size_t capacity : {std::size_t{5}, std::size_t{100}}) {
    engine::FrontierCache cache(capacity, /*shards=*/16);
    for (std::uint64_t k = 0; k < 100; ++k)
      cache.insert(k, entry_with({{int(k), int(k)}}));
    const engine::CacheStats s = cache.stats();
    EXPECT_LE(s.entries, capacity) << "capacity " << capacity;
    EXPECT_LE(s.shards.size(), capacity) << "capacity " << capacity;
  }
}

TEST(CacheOptions, EnablementRule) {
  // Explicit setting wins over PATLABOR_CACHE; capacity 0 always disables.
  const char* saved = std::getenv("PATLABOR_CACHE");
  const std::string saved_value = saved != nullptr ? saved : "";
  engine::CacheOptions opt;
  ::unsetenv("PATLABOR_CACHE");
  EXPECT_TRUE(engine::cache_is_enabled(opt));
  ::setenv("PATLABOR_CACHE", "0", 1);
  EXPECT_FALSE(engine::cache_is_enabled(opt));
  opt.enabled = true;
  EXPECT_TRUE(engine::cache_is_enabled(opt));
  ::setenv("PATLABOR_CACHE", "1", 1);
  opt.enabled.reset();
  EXPECT_TRUE(engine::cache_is_enabled(opt));
  opt.enabled = false;
  EXPECT_FALSE(engine::cache_is_enabled(opt));
  opt.enabled = true;
  opt.capacity = 0;
  EXPECT_FALSE(engine::cache_is_enabled(opt));
  opt.enabled.reset();
  EXPECT_FALSE(engine::cache_is_enabled(opt));
  // The engine applies the same rule.
  ::setenv("PATLABOR_CACHE", "0", 1);
  EXPECT_FALSE(engine::Engine(engine::EngineOptions{}).cache_enabled());
  if (saved != nullptr)
    ::setenv("PATLABOR_CACHE", saved_value.c_str(), 1);
  else
    ::unsetenv("PATLABOR_CACHE");
}

TEST(FrontierCache, PerShardStatsSumToTheTotals) {
  engine::FrontierCache cache(/*capacity=*/64, /*shards=*/4);
  for (std::uint64_t k = 0; k < 32; ++k) {
    cache.find(k, {{int(k), int(k)}});  // miss
    cache.insert(k, entry_with({{int(k), int(k)}}));
    cache.find(k, {{int(k), int(k)}});  // hit
  }
  const engine::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 32u);
  EXPECT_EQ(s.misses, 32u);
  EXPECT_EQ(s.entries, 32u);
  ASSERT_EQ(s.shards.size(), 4u);
  std::uint64_t hits = 0, misses = 0;
  std::size_t entries = 0, populated = 0;
  for (const engine::ShardStats& sh : s.shards) {
    hits += sh.hits;
    misses += sh.misses;
    entries += sh.entries;
    if (sh.entries > 0) ++populated;
    // Hit/miss traffic happens on the stripe that owns the key.
    EXPECT_EQ(sh.hits, sh.entries);
  }
  EXPECT_EQ(hits, s.hits);
  EXPECT_EQ(misses, s.misses);
  EXPECT_EQ(entries, s.entries);
  // The Fibonacci stripe mix should spread 32 keys over several stripes.
  EXPECT_GE(populated, 2u);
}

// ---- Method table ----

TEST(MethodTable, CoversAllSevenConstructors) {
  const std::vector<std::string_view> expected{"patlabor", "pd",   "pdii",
                                               "salt",     "ysd",  "rsmt",
                                               "rsma"};
  std::vector<std::string_view> names;
  for (const engine::MethodInfo& m : engine::kMethods) names.push_back(m.name);
  EXPECT_EQ(names, expected);
  for (std::size_t i = 0; i < engine::kMethods.size(); ++i) {
    const auto method = static_cast<engine::Method>(i);
    EXPECT_EQ(engine::method_name(method), expected[i]);
    EXPECT_EQ(engine::parse_method(expected[i]), method);
  }
  const auto info = [](engine::Method m) {
    return engine::kMethods[static_cast<std::size_t>(m)];
  };
  EXPECT_TRUE(info(engine::Method::kPatLabor).produces_frontier);
  EXPECT_EQ(info(engine::Method::kSalt).sweep_param, "epsilon");
  EXPECT_EQ(info(engine::Method::kPd).sweep_param, "alpha");
  EXPECT_EQ(info(engine::Method::kYsd).sweep_param, "beta");
  EXPECT_THROW(engine::parse_method("nope"), std::invalid_argument);
}

TEST(MethodTable, DefaultParamsMatchTheExperimentSweeps) {
  EXPECT_EQ(engine::default_params(engine::Method::kPd),
            baselines::default_alphas());
  EXPECT_EQ(engine::default_params(engine::Method::kPdii),
            baselines::default_alphas());
  EXPECT_EQ(engine::default_params(engine::Method::kSalt),
            baselines::default_epsilons());
  EXPECT_EQ(engine::default_params(engine::Method::kYsd),
            baselines::default_betas());
  EXPECT_TRUE(engine::default_params(engine::Method::kPatLabor).empty());
  EXPECT_TRUE(engine::default_params(engine::Method::kRsmt).empty());
  EXPECT_TRUE(engine::default_params(engine::Method::kRsma).empty());
  EXPECT_THROW(engine::parse_method("flute"), std::invalid_argument);
  EXPECT_EQ(engine::parse_method("ysd"), engine::Method::kYsd);
}

// ---- Engine ----

class EngineSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new lut::LookupTable(lut::LookupTable::generate(5));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }

  static engine::EngineOptions options(bool cache_on, std::size_t jobs = 0) {
    engine::EngineOptions opt;
    opt.table = table_;
    opt.jobs = jobs;
    opt.cache.enabled = cache_on;
    return opt;
  }

  /// Mixed corpus: exact-regime degrees (LUT-covered and DW fallback),
  /// local-search degrees, plus isomorphic and identical repeats.
  static std::vector<Net> corpus() {
    util::Rng rng(77);
    std::vector<Net> nets;
    for (std::size_t d : {2u, 3u, 4u, 5u, 6u, 8u, 9u, 12u, 15u})
      nets.push_back(netgen::clustered_net(rng, d));
    const std::size_t base_count = nets.size();
    for (std::size_t i = 0; i < base_count; ++i) {
      // An isometric copy of each base net...
      nets.push_back(transformed(nets[i], static_cast<int>(i) % 8,
                                 Point{1234, -567}));
      // ...and an identical repeat.
      nets.push_back(nets[i]);
    }
    return nets;
  }

  static lut::LookupTable* table_;
};

lut::LookupTable* EngineSuite::table_ = nullptr;

TEST_F(EngineSuite, EveryRegisteredMethodRoutesEveryNet) {
  const engine::Engine eng(options(true));
  util::Rng rng(21);
  const std::vector<Net> nets = {netgen::uniform_net(rng, 5),
                                 netgen::clustered_net(rng, 12)};
  for (const engine::MethodInfo& m : engine::kMethods) {
    const std::string name(m.name);
    for (const Net& net : nets) {
      const engine::RouteResponse r = eng.route(net, {.method = name});
      ASSERT_FALSE(r.frontier.empty()) << name;
      ASSERT_EQ(r.frontier.size(), r.trees.size()) << name;
      EXPECT_TRUE(r.frontier.invariant_ok()) << name;
      for (std::size_t i = 0; i < r.trees.size(); ++i) {
        EXPECT_TRUE(r.trees[i].validate().empty())
            << name << ": " << r.trees[i].validate();
        EXPECT_EQ(r.trees[i].objective(), r.frontier[i]) << name;
      }
    }
  }
}

TEST_F(EngineSuite, SweepParamsOverrideTheDefaults) {
  const engine::Engine eng(options(true));
  util::Rng rng(22);
  const Net net = netgen::uniform_net(rng, 7);
  // A single-alpha PD sweep yields exactly one tree on the frontier.
  const auto one = eng.route(net, {.method = "pd", .params = {0.0}});
  EXPECT_EQ(one.trees.size(), 1u);
  // The full default sweep dominates or matches the single-point one.
  const auto full = eng.route(net, {.method = "pd"});
  EXPECT_GE(full.trees.size(), 1u);
  for (const auto& s : one.frontier) EXPECT_TRUE(pareto::covers(full.frontier, s));
}

TEST_F(EngineSuite, PatlaborMatchesDirectCoreOnTheCorpus) {
  // Acceptance: Engine + cache bit-identical to direct core::patlabor —
  // frontiers on every net; tree structural hashes wherever the tree
  // realization is deterministic across frames (LUT-covered exact degrees
  // and all local-search degrees; numeric-DW fallback degrees 6..9 pick
  // frame-dependent representatives of the same exact frontier).
  const engine::Engine eng(options(true));
  for (int pass = 0; pass < 2; ++pass) {  // second pass = cache hits
    for (const Net& net : corpus()) {
      core::PatLaborOptions opt;
      opt.table = table_;
      const core::PatLaborResult direct = core::patlabor(net, opt);
      const engine::RouteResponse r = eng.route(net);
      EXPECT_EQ(r.frontier, direct.frontier) << net.degree();
      EXPECT_EQ(r.iterations, direct.iterations) << net.degree();
      ASSERT_EQ(r.trees.size(), direct.trees.size()) << net.degree();
      const bool tree_exact =
          net.degree() > 9 || table_->covers(static_cast<int>(net.degree()));
      for (std::size_t t = 0; t < r.trees.size(); ++t) {
        EXPECT_EQ(r.trees[t].objective(), direct.trees[t].objective());
        EXPECT_TRUE(r.trees[t].validate().empty()) << r.trees[t].validate();
        if (tree_exact)
          EXPECT_EQ(r.trees[t].structural_hash(),
                    direct.trees[t].structural_hash())
              << "degree " << net.degree() << " tree " << t;
      }
    }
  }
}

TEST_F(EngineSuite, CacheOnAndOffAreBitIdenticalAcrossJobs) {
  const std::vector<Net> nets = corpus();
  const engine::Engine on1(options(true, 1)), off1(options(false, 1));
  const auto r_on1 = on1.route_batch(nets);
  const auto r_off1 = off1.route_batch(nets);
  ASSERT_EQ(r_on1.size(), nets.size());
  const auto expect_same = [&](const std::vector<engine::RouteResponse>& r,
                               const char* label) {
    ASSERT_EQ(r.size(), nets.size()) << label;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      EXPECT_EQ(r_on1[i].frontier, r[i].frontier) << label << " net " << i;
      EXPECT_EQ(r_on1[i].iterations, r[i].iterations)
          << label << " net " << i;
      ASSERT_EQ(r_on1[i].trees.size(), r[i].trees.size())
          << label << " net " << i;
      for (std::size_t t = 0; t < r_on1[i].trees.size(); ++t)
        EXPECT_EQ(r_on1[i].trees[t].structural_hash(),
                  r[i].trees[t].structural_hash())
            << label << " net " << i << " tree " << t;
    }
  };
  expect_same(r_off1, "off jobs=1");
  // Wider pools run the nets on several lanes in scheduling order; every
  // width must reproduce the jobs=1 bits, cache on and off.
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4},
                                 std::size_t{8}}) {
    const engine::Engine on(options(true, jobs)), off(options(false, jobs));
    expect_same(on.route_batch(nets), "on");
    expect_same(off.route_batch(nets), "off");
  }
  // The cache actually participated: the corpus repeats every base shape.
  EXPECT_GT(on1.cache_stats().hits, 0u);
  EXPECT_EQ(off1.cache_stats().hits + off1.cache_stats().misses, 0u);
  // A warm pass replays every net from the cache: same bits, hits only.
  const engine::CacheStats cold = on1.cache_stats();
  expect_same(on1.route_batch(nets), "warm");
  const engine::CacheStats warm = on1.cache_stats();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.hits, cold.hits + nets.size());
}

TEST_F(EngineSuite, PhaseTableSelfTimesAreNonNegativeAndBoundedByLanes) {
  // pool.task must enclose the spans of the task it runs: otherwise the
  // task's spans and pool.task are both charged to engine.route_batch and
  // its self time goes negative.  Jobs 1 takes the pool's inline path,
  // jobs 4 the pooled one.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::vector<Net> nets = corpus();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const engine::Engine eng(options(false, jobs));
    obs::clear_trace();
    const std::uint64_t t0 = obs::now_us();
    eng.route_batch(nets);
    const double wall = static_cast<double>(obs::now_us() - t0) * 1e-6;
    const auto phases = obs::aggregate_phases(obs::drain_trace());
    double self_sum = 0.0;
    bool saw_task = false;
    for (const obs::PhaseRow& row : phases) {
      EXPECT_GE(row.self_s, 0.0) << row.name << " at jobs " << jobs;
      self_sum += row.self_s;
      saw_task |= row.name == "pool.task";
    }
    EXPECT_TRUE(saw_task) << "jobs " << jobs;
    EXPECT_LE(self_sum, static_cast<double>(jobs) * wall + 1e-3)
        << "jobs " << jobs;
  }
  obs::set_enabled(was_enabled);
}

TEST(FrontierCache, ConcurrentReadersAndWritersStayCoherent) {
  // Hammer the striped read path while inserts evict under it: readers
  // must only ever see fully-constructed entries whose pins match the key
  // they asked for (the TSan pass in scripts/verify.sh runs this binary).
  // Keys deliberately collide into few shards.
  engine::FrontierCache cache(/*capacity=*/32, /*shards=*/2);
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  // Fixed probe counts (not a stop flag): on a 1-core host the writer can
  // finish before a reader is ever scheduled, and the probes must still
  // happen for the assertions below to mean anything.
  for (int t = 0; t < 3; ++t)
    readers.emplace_back([&, t] {
      std::uint64_t k = static_cast<std::uint64_t>(t);
      for (int it = 0; it < 3000; ++it) {
        const std::uint64_t key = k++ % 64;
        const auto hit = cache.find(
            key, {{static_cast<int>(key), static_cast<int>(key)}});
        if (hit.has_value() &&
            (hit->pins.size() != 1 ||
             hit->pins[0].x != static_cast<int>(key)))
          bad.fetch_add(1);
      }
    });
  for (int round = 0; round < 200; ++round)
    cache.insert(static_cast<std::uint64_t>(round) % 64,
                 entry_with({{round % 64, round % 64}}));
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u);
  const engine::CacheStats s = cache.stats();
  EXPECT_LE(s.entries, 32u);
  EXPECT_GE(s.hits + s.misses, 9000u);
}

TEST_F(EngineSuite, IsomorphicSmallNetsShareOneCacheEntry) {
  const engine::Engine eng(options(true));
  util::Rng rng(33);
  const Net base = netgen::uniform_net(rng, 6);
  std::vector<Net> variants;
  for (int sym = 0; sym < geom::kNumSymmetries; ++sym)
    variants.push_back(transformed(base, sym, Point{50 * sym, -90 * sym}));
  const auto responses = eng.route_batch(variants);
  // One compute, seven shared answers (batch order is deterministic but
  // execution may interleave; the entry count is the strong invariant).
  EXPECT_EQ(eng.cache_stats().entries, 1u);
  for (const auto& r : responses) {
    EXPECT_EQ(r.frontier, responses.front().frontier);
    for (std::size_t t = 0; t < r.trees.size(); ++t)
      EXPECT_EQ(r.trees[t].objective(), responses.front().frontier[t]);
  }
}

TEST_F(EngineSuite, LocalSearchNetsAreCachedByExactPinSequenceOnly) {
  const engine::Engine eng(options(true));
  util::Rng rng(34);
  const Net big = netgen::clustered_net(rng, 14);
  const engine::RouteResponse first = eng.route(big);
  EXPECT_FALSE(first.cache_hit);
  // Identical repeat: served from the cache, bit-identical.
  const engine::RouteResponse again = eng.route(big);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.frontier, first.frontier);
  ASSERT_EQ(again.trees.size(), first.trees.size());
  for (std::size_t t = 0; t < first.trees.size(); ++t)
    EXPECT_EQ(again.trees[t].structural_hash(),
              first.trees[t].structural_hash());
  // A merely-isomorphic copy is NOT served from a large-net entry (local
  // search is not isometry-equivariant), so it recomputes natively.
  const engine::RouteResponse shifted = eng.route(transformed(big, 0, {7, 7}));
  EXPECT_FALSE(shifted.cache_hit);
}

TEST_F(EngineSuite, EvictionKeepsServingCorrectAnswers) {
  engine::EngineOptions opt = options(true);
  opt.cache.capacity = 4;
  opt.cache.shards = 1;
  const engine::Engine eng(opt);
  util::Rng rng(35);
  std::vector<Net> nets;
  for (int i = 0; i < 16; ++i) nets.push_back(netgen::uniform_net(rng, 5));
  const auto first = eng.route_batch(nets);
  EXPECT_GT(eng.cache_stats().evictions, 0u);
  EXPECT_LE(eng.cache_stats().entries, 4u);
  const auto second = eng.route_batch(nets);
  for (std::size_t i = 0; i < nets.size(); ++i)
    EXPECT_EQ(first[i].frontier, second[i].frontier);
}

TEST_F(EngineSuite, RouteBatchMatchesPerNetRoute) {
  const engine::Engine batch_eng(options(true, 3));
  const engine::Engine solo_eng(options(true, 1));
  const std::vector<Net> nets = corpus();
  const auto batch = batch_eng.route_batch(nets);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const engine::RouteResponse solo = solo_eng.route(nets[i]);
    EXPECT_EQ(batch[i].frontier, solo.frontier) << "net " << i;
    ASSERT_EQ(batch[i].trees.size(), solo.trees.size());
    for (std::size_t t = 0; t < solo.trees.size(); ++t)
      EXPECT_EQ(batch[i].trees[t].structural_hash(),
                solo.trees[t].structural_hash());
  }
}

TEST_F(EngineSuite, AdoptTableTransfersOwnership) {
  engine::EngineOptions opt;
  opt.cache.enabled = true;
  engine::Engine eng(opt);
  eng.adopt_table(lut::LookupTable::generate(4));
  util::Rng rng(36);
  const Net net = netgen::uniform_net(rng, 4);
  core::PatLaborOptions direct;
  direct.table = table_;  // degree 4 is covered by both tables identically
  EXPECT_EQ(eng.route(net).frontier, core::patlabor(net, direct).frontier);
}

// ---- engine::map_back against the from_edges reference ----

/// Empty when engine::map_back gives the reference's trees node for node
/// (num_pins, nodes, parents), else the first difference.
std::string map_back_diff(std::span<const tree::RoutingTree> canonical,
                          const geom::CanonicalNet& canon, const Net& net) {
  const auto got = engine::map_back(canonical, canon, net);
  const auto want = testing::reference_map_back(canonical, canon, net);
  if (got.size() != want.size()) return "tree count";
  for (std::size_t t = 0; t < got.size(); ++t) {
    if (got[t].num_pins() != want[t].num_pins())
      return "num_pins of tree " + std::to_string(t);
    if (got[t].nodes() != want[t].nodes())
      return "nodes of tree " + std::to_string(t);
    if (got[t].parents() != want[t].parents())
      return "parents of tree " + std::to_string(t);
  }
  return {};
}

/// The net under every symmetry, each with its own translation.
std::vector<Net> all_symmetries(const Net& base, util::Rng& rng) {
  std::vector<Net> out;
  for (int sym = 0; sym < geom::kNumSymmetries; ++sym)
    out.push_back(transformed(
        base, sym,
        Point{static_cast<geom::Coord>(rng.uniform_int(-5000, 5000)),
              static_cast<geom::Coord>(rng.uniform_int(-5000, 5000))}));
  return out;
}

/// Compares LUT-query and DW trees of every symmetric copy of `base`;
/// returns the number of trees compared.
std::size_t expect_lut_and_dw_trees_map_back(const lut::LookupTable& table,
                                             const Net& base, util::Rng& rng,
                                             const std::string& what) {
  std::size_t trees = 0;
  for (const Net& net : all_symmetries(base, rng)) {
    const geom::CanonicalNet canon = geom::canonicalize(net);
    const auto lut_trees = table.query(canon.net).trees;
    const auto dw_trees = dw::pareto_dw(canon.net).trees;
    EXPECT_EQ(map_back_diff(lut_trees, canon, net), "") << what << ", LUT";
    EXPECT_EQ(map_back_diff(dw_trees, canon, net), "") << what << ", DW";
    trees += lut_trees.size() + dw_trees.size();
  }
  return trees;
}

TEST_F(EngineSuite, MapBackMatchesReferenceUnderEverySymmetry) {
  util::Rng rng(41);
  std::size_t trees = 0;
  for (int round = 0; round < 10; ++round)
    for (std::size_t d = 2; d <= 8; ++d)
      trees += expect_lut_and_dw_trees_map_back(
          *table_, netgen::clustered_net(rng, d), rng,
          "clustered degree " + std::to_string(d));
  EXPECT_GT(trees, 1000u);
}

TEST_F(EngineSuite, MapBackMatchesReferenceOnTiesDuplicatesAndCollinearPins) {
  util::Rng rng(42);
  for (int round = 0; round < 12; ++round)
    for (std::size_t d = 2; d <= 7; ++d)
      for (const geom::Coord window : {1, 2, 3}) {
        // Tiny windows force tied coordinates and repeated pins.
        expect_lut_and_dw_trees_map_back(
            *table_, testing::random_net(rng, d, window, true), rng,
            "window " + std::to_string(window) + " degree " +
                std::to_string(d));
      }
  for (std::size_t d = 2; d <= 7; ++d) {
    Net line;  // collinear pins on one row
    for (std::size_t i = 0; i < d; ++i)
      line.pins.push_back(
          Point{static_cast<geom::Coord>((i * 37 + 11) % 50), 7});
    expect_lut_and_dw_trees_map_back(*table_, line, rng, "collinear");
  }
  Net dup;  // a sink on the source and a repeated sink
  dup.pins = {{4, 4}, {4, 4}, {9, 1}, {0, 7}, {9, 1}};
  expect_lut_and_dw_trees_map_back(*table_, dup, rng, "duplicate pins");
}

TEST_F(EngineSuite, MapBackMatchesReferenceOnCacheHits) {
  // A miss stores canonical trees; every symmetric copy is then a hit that
  // maps those stored trees back onto its own frame.
  const engine::Engine eng(options(true));
  util::Rng rng(43);
  core::PatLaborOptions direct;
  direct.table = table_;
  for (std::size_t d = 2; d <= 9; ++d) {
    const Net base = d % 2 == 0 ? netgen::clustered_net(rng, d)
                                : testing::random_net(rng, d, 4, true);
    bool first = true;
    for (const Net& net : all_symmetries(base, rng)) {
      const geom::CanonicalNet canon = geom::canonicalize(net);
      const auto canonical = core::patlabor(canon.net, direct).trees;
      const engine::RouteResponse r = eng.route(net);
      EXPECT_EQ(r.cache_hit, !first) << "degree " << d;
      first = false;
      const auto want = testing::reference_map_back(canonical, canon, net);
      ASSERT_EQ(r.trees.size(), want.size()) << "degree " << d;
      for (std::size_t t = 0; t < want.size(); ++t) {
        EXPECT_EQ(r.trees[t].nodes(), want[t].nodes()) << "degree " << d;
        EXPECT_EQ(r.trees[t].parents(), want[t].parents()) << "degree " << d;
        EXPECT_EQ(r.trees[t].num_pins(), want[t].num_pins());
      }
    }
  }
}

/// A star over `c` with each duplicate pin hanging off its first twin, as
/// from_edges orients one.
tree::RoutingTree twin_star(const Net& c) {
  tree::RoutingTree t = tree::RoutingTree::star(c);
  for (std::size_t v = 1; v < c.pins.size(); ++v)
    for (std::size_t u = 0; u < v; ++u)
      if (c.pins[u] == c.pins[v]) {
        t.set_parent(v, static_cast<std::int32_t>(u));
        break;
      }
  return t;
}

/// The first sink with a later twin, and that twin.
std::pair<std::size_t, std::size_t> first_twins(const Net& c) {
  for (std::size_t v = 2; v < c.pins.size(); ++v)
    for (std::size_t u = 1; u < v; ++u)
      if (c.pins[u] == c.pins[v]) return {u, v};
  return {0, 0};
}

/// Pins 1 and 3 under a Steiner chain whose middle edge has two endpoints
/// new to from_edges' interning: s1 (listed first) hangs off s2, which
/// hangs off the source; s3, under s1, comes before both in edge order.
tree::RoutingTree steiner_chain(const Net& c) {
  tree::RoutingTree t = twin_star(c);
  const auto s1 = static_cast<std::int32_t>(t.add_steiner(Point{-4, 1}, 0));
  const auto s2 = static_cast<std::int32_t>(t.add_steiner(Point{-6, 3}, 0));
  const auto s3 = static_cast<std::int32_t>(t.add_steiner(Point{-2, -5}, s1));
  t.set_parent(static_cast<std::size_t>(s1), s2);
  t.set_parent(1, s3);
  t.set_parent(3, s3);
  return t;
}

TEST(MapBack, HandMadeTreesMatchReference) {
  // Canonical trees no router produces: unreached nodes, a pass-through
  // Steiner node, Steiner points on a pin or on each other, a duplicate
  // pin away from its twin, a parent cycle.
  util::Rng rng(44);
  Net base;
  base.pins = {{0, 0}, {10, 0}, {10, 10}, {0, 10}, {10, 10}, {5, 3}};
  using MakeTree = tree::RoutingTree (*)(const Net&);
  const std::vector<std::pair<const char*, MakeTree>> cases = {
      {"twin star", twin_star},
      {"unreached Steiner node",
       [](const Net& c) {
         tree::RoutingTree t = twin_star(c);
         t.add_steiner(Point{3, 3}, tree::kNoParent);
         return t;
       }},
      {"unreached pin",
       [](const Net& c) {
         tree::RoutingTree t = twin_star(c);
         t.set_parent(2, tree::kNoParent);
         return t;
       }},
      {"pass-through Steiner node",
       [](const Net& c) {
         tree::RoutingTree t = twin_star(c);
         const Point mid{(c.pins[0].x + c.pins[1].x) / 2,
                         (c.pins[0].y + c.pins[1].y) / 2};
         t.set_parent(1, static_cast<std::int32_t>(t.add_steiner(mid, 0)));
         return t;
       }},
      {"Steiner chain", steiner_chain},
      {"Steiner chain and an unreached Steiner node",
       [](const Net& c) {
         tree::RoutingTree t = steiner_chain(c);
         t.add_steiner(Point{3, 3}, tree::kNoParent);
         return t;
       }},
      {"Steiner point on a pin",
       [](const Net& c) {
         tree::RoutingTree t = twin_star(c);
         const auto s = static_cast<std::int32_t>(t.add_steiner(c.pins[2], 0));
         t.set_parent(1, s);
         t.set_parent(3, s);
         return t;
       }},
      {"two Steiner nodes at one point",
       [](const Net& c) {
         tree::RoutingTree t = twin_star(c);
         const Point p{c.pins[1].x + 1, c.pins[1].y + 2};
         t.set_parent(1, static_cast<std::int32_t>(t.add_steiner(p, 0)));
         t.set_parent(3, static_cast<std::int32_t>(t.add_steiner(p, 0)));
         return t;
       }},
      {"duplicate pin away from its twin",
       [](const Net& c) {
         // The first twin detours through a far Steiner node; its twin
         // hangs off the source, which is the shorter way to their point.
         tree::RoutingTree t = twin_star(c);
         const auto [first, twin] = first_twins(c);
         t.set_parent(first, static_cast<std::int32_t>(
                                 t.add_steiner(Point{-50, -50}, 0)));
         t.set_parent(twin, 0);
         return t;
       }},
      {"Steiner node under a duplicate pin",
       [](const Net& c) {
         tree::RoutingTree t = twin_star(c);
         const auto [first, twin] = first_twins(c);
         const auto s = static_cast<std::int32_t>(
             t.add_steiner(Point{-7, 2}, static_cast<std::int32_t>(twin)));
         for (std::size_t v = 1; v < c.pins.size(); ++v)
           if (v != first && v != twin) t.set_parent(v, s);
         return t;
       }},
      {"parent cycle",
       [](const Net& c) {
         tree::RoutingTree t = twin_star(c);
         const auto a =
             static_cast<std::int32_t>(t.add_steiner(Point{-1, -2}, 0));
         const auto b =
             static_cast<std::int32_t>(t.add_steiner(Point{-5, -2}, a));
         t.set_parent(static_cast<std::size_t>(a), b);
         t.set_parent(1, a);
         return t;
       }},
  };
  for (const Net& net : all_symmetries(base, rng)) {
    const geom::CanonicalNet canon = geom::canonicalize(net);
    ASSERT_NE(first_twins(canon.net).second, 0u);
    for (const auto& [what, make] : cases) {
      const std::vector<tree::RoutingTree> one = {make(canon.net)};
      EXPECT_EQ(map_back_diff(one, canon, net), "") << what;
    }
  }
}

}  // namespace
}  // namespace patlabor
