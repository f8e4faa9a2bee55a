// The parallel execution layer (src/patlabor/par/): pool primitives,
// per-task RNG streams, and the determinism contract — LUT generation,
// route_batch and the local search must produce bit-identical output for
// every pool size, including 1, and across repeated runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "patlabor/core/patlabor.hpp"
#include "patlabor/engine/engine.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/trace.hpp"
#include "patlabor/par/ordered.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/par/worker_context.hpp"
#include "patlabor/util/rng.hpp"

namespace patlabor {
namespace {

TEST(ThreadPool, ParallelTransformMergesInIndexOrder) {
  par::ThreadPool pool(4);
  const auto out = par::parallel_transform(
      1000, [](std::size_t i) { return i * i; }, &pool);
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ZeroAndOneElementBatchesRunInline) {
  par::ThreadPool pool(4);
  pool.run_indexed(0, [](std::size_t) { FAIL(); });
  const auto one = par::parallel_transform(
      1, [](std::size_t i) { return i + 41; }, &pool);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41u);
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{8}}) {
    par::ThreadPool pool(threads);
    try {
      pool.run_indexed(64, [](std::size_t i) {
        if (i % 7 == 3) throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected an exception at pool size " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 3") << "pool size " << threads;
    }
  }
}

TEST(ThreadPool, NestedBatchesOnTheSamePoolDoNotDeadlock) {
  par::ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.run_indexed(5, [&](std::size_t) {
    pool.run_indexed(5, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 25);
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
  par::ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> n{0};
    pool.run_indexed(8, [&](std::size_t) { n.fetch_add(1); });
    ASSERT_EQ(n.load(), 8);
  }
}

TEST(RunIndexed, CoversEveryIndexOnceForAnyPoolAndBatchSize) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{8}}) {
    par::ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{7}, std::size_t{257},
                          std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.run_indexed(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(RunIndexed, SlowLowestIndexDoesNotBlockLaterIndices) {
  // Task 0 spins until 1, 2 and 3 are all done: whichever lane claims it
  // wedges there, so the batch completes only if the other lane keeps
  // claiming past it.
  par::ThreadPool pool(2);
  std::atomic<int> others_done{0};
  pool.run_indexed(4, [&](std::size_t i) {
    if (i == 0) {
      while (others_done.load(std::memory_order_acquire) < 3)
        std::this_thread::yield();
    } else {
      others_done.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  EXPECT_EQ(others_done.load(), 3);
}

TEST(RunIndexed, SkewedStressCoversEveryIndex) {
  // Deliberately skewed batch: the first eighth of the indices is much
  // heavier than the rest, so lanes finish at very different times while
  // the others race on the shared counter (the TSan pass in
  // scripts/verify.sh runs this binary).
  par::ThreadPool pool(8);
  const std::size_t n = 2000;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::uint64_t> sink{0};
    pool.run_indexed(n, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i < n / 8) {  // first eighth: ~50x the work
        std::uint64_t acc = i;
        for (int k = 0; k < 5000; ++k) acc = acc * 6364136223846793005ULL + 1;
        sink.fetch_add(acc, std::memory_order_relaxed);
      }
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(RunSharded, CoversEveryIndexOnceForAnyPoolAndBatchSize) {
  // run_sharded is an alias of run_indexed kept for perfbench/.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    par::ThreadPool pool(threads);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{257}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.run_sharded(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(RunSharded, TransformMergesInIndexOrder) {
  // perfbench/route.cpp fills one result slot per index through
  // run_sharded; the merged output must read back in index order.
  par::ThreadPool pool(4);
  std::vector<std::size_t> out(1000);
  pool.run_sharded(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(RunSharded, LowestIndexExceptionWins) {
  par::ThreadPool pool(4);
  try {
    pool.run_sharded(64, [](std::size_t i) {
      if (i % 7 == 3) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(WorkerContext, GetReturnsTheSameSlotPerTypeAndThread) {
  auto& ctx = par::WorkerContext::current();
  ctx.reset();
  struct ScratchA { std::vector<int> buf; };
  struct ScratchB { std::vector<int> buf; };
  ScratchA& a1 = ctx.get<ScratchA>();
  a1.buf.resize(64);
  ScratchA& a2 = ctx.get<ScratchA>();
  EXPECT_EQ(&a1, &a2);             // same slot: capacity survives
  EXPECT_EQ(a2.buf.size(), 64u);
  ScratchB& b = ctx.get<ScratchB>();
  EXPECT_NE(static_cast<void*>(&a1), static_cast<void*>(&b));
  EXPECT_EQ(ctx.stats().acquisitions, 3u);
  EXPECT_EQ(ctx.stats().constructions, 2u);
  // A different thread gets its own context and slots.
  ScratchA* other = nullptr;
  std::thread t([&] { other = &par::WorkerContext::current().get<ScratchA>(); });
  t.join();
  EXPECT_NE(other, &a1);
  ctx.reset();
  EXPECT_EQ(ctx.stats().acquisitions, 0u);
  EXPECT_TRUE(ctx.get<ScratchA>().buf.empty());  // reset dropped capacity
  ctx.reset();
}

TEST(TaskRng, StreamsDependOnlyOnSeedAndIndex) {
  for (std::uint64_t i = 0; i < 16; ++i) {
    util::Rng a = par::task_rng(123, i);
    util::Rng b = par::task_rng(123, i);
    for (int k = 0; k < 8; ++k) EXPECT_EQ(a.next(), b.next());
  }
  // Neighbouring indices (and different seeds) give distinct streams.
  EXPECT_NE(par::task_seed(123, 0), par::task_seed(123, 1));
  EXPECT_NE(par::task_seed(123, 0), par::task_seed(124, 0));
}

TEST(Jobs, SetJobsControlsTheGlobalPool) {
  const std::size_t before = par::jobs();
  par::set_jobs(2);
  EXPECT_EQ(par::jobs(), 2u);
  EXPECT_EQ(par::global_pool().size(), 2u);
  par::set_jobs(before);
  EXPECT_EQ(par::global_pool().size(), before);
}

TEST(ObsIntegration, PoolWorkersRegisterNamedTraceLanes) {
  par::ThreadPool pool(3);  // 2 workers register themselves on startup
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t workers = 0;
  do {
    workers = 0;
    for (const auto& [tid, name] : obs::thread_names())
      if (name.rfind("pool.worker-", 0) == 0) ++workers;
    if (workers >= 2) break;
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_GE(workers, 2u);

  // The lane names surface as Chrome thread_name metadata events.
  const std::string json = obs::trace_json({});
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("pool.worker-"), std::string::npos);
}

// ---- Concurrency observatory: per-lane timelines ----

class PoolObservatory : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
  }
  void TearDown() override { obs::set_enabled(was_enabled_); }
  bool was_enabled_ = false;
};

TEST_F(PoolObservatory, WorkerStatsCoverEveryLaneAndSumToBatchSize) {
  par::ThreadPool pool(4);
  pool.run_indexed(64, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  const auto ws = pool.worker_stats();
  ASSERT_EQ(ws.size(), 4u);  // 3 workers + the submitting caller
  std::uint64_t tasks = 0, busy = 0;
  for (const auto& w : ws) {
    tasks += w.tasks;
    busy += w.busy_us;
  }
  EXPECT_EQ(tasks, 64u);
  EXPECT_GT(busy, 0u);
  // The caller drains cooperatively, so its lane always claims work.
  EXPECT_GT(ws.back().tasks, 0u);
}

TEST_F(PoolObservatory, InlinePoolAccountsTheCallerLane) {
  par::ThreadPool pool(1);  // no Impl: the pure inline path
  pool.run_indexed(8, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  const auto ws = pool.worker_stats();
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].tasks, 8u);
  EXPECT_GT(ws[0].busy_us, 0u);
}

TEST_F(PoolObservatory, NestedBatchesDoNotDoubleCountBusyTime) {
  // Single lane: everything runs on the calling thread, so lane busy time
  // must equal the measured wall.  Double-counting nested tasks inside
  // their parent's timed window would roughly double it.
  par::ThreadPool pool(1);
  const std::uint64_t t0 = obs::now_us();
  pool.run_indexed(1, [&](std::size_t) {
    pool.run_indexed(4, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  });
  const std::uint64_t elapsed = obs::now_us() - t0;
  const auto ws = pool.worker_stats();
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_LE(ws[0].busy_us, elapsed + 1000u);
  EXPECT_GE(ws[0].busy_us, 8000u);  // 4 nested sleeps of 2ms
  EXPECT_EQ(ws[0].tasks, 1u + 4u);  // task counts do include nested tasks

  // Multi-lane smoke: nested work spread across workers still sums.
  par::ThreadPool pool2(2);
  const std::uint64_t t1 = obs::now_us();
  pool2.run_indexed(2, [&](std::size_t) {
    pool2.run_indexed(4, [](std::size_t) {});
  });
  const std::uint64_t elapsed2 = obs::now_us() - t1;
  std::uint64_t tasks = 0;
  std::uint64_t max_busy = 0;
  for (const auto& w : pool2.worker_stats()) {
    tasks += w.tasks;
    max_busy = std::max(max_busy, w.busy_us);
  }
  EXPECT_EQ(tasks, 2u + 2u * 4u);
  EXPECT_LE(max_busy, elapsed2 + 1000u);
}

TEST_F(PoolObservatory, StatsStayZeroWhileRuntimeDisabled) {
  obs::set_enabled(false);
  par::ThreadPool pool(3);
  pool.run_indexed(32, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  for (const auto& w : pool.worker_stats()) {
    EXPECT_EQ(w.tasks, 0u);
    EXPECT_EQ(w.busy_us, 0u);
  }
}

TEST_F(PoolObservatory, PerTaskSpansLandInWorkerTraceLanes) {
  obs::clear_trace();
  par::ThreadPool pool(2);
  pool.run_indexed(6, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  const auto events = obs::drain_trace();
  std::size_t spans = 0;
  for (const auto& e : events)
    if (e.name == "pool.task") ++spans;
  EXPECT_EQ(spans, 6u);
}

TEST_F(PoolObservatory, RouteBatchCountsOneTopLevelBatchAtEveryWidth) {
  // jobs=1 takes the inline path and jobs=4 the pooled one; both must count
  // the engine's batch once, and the nested inline_pool candidate batches
  // (degree > table degree) not at all.
  const lut::LookupTable table = lut::LookupTable::generate(4);
  std::vector<geom::Net> nets;
  util::Rng rng(3);
  for (std::size_t d : {4u, 6u, 8u, 8u, 12u, 14u})
    nets.push_back(netgen::clustered_net(rng, d));
  auto counter = [](const char* name) {
    const auto snap = obs::StatsRegistry::instance().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    engine::EngineOptions opt;
    opt.table = &table;
    opt.lambda = 7;
    opt.jobs = jobs;
    const engine::Engine eng(opt);
    const std::uint64_t batches0 = counter("par.pool.batches");
    const std::uint64_t tasks0 = counter("par.pool.tasks");
    eng.route_batch(nets);
    EXPECT_EQ(counter("par.pool.batches") - batches0, 1u) << "jobs " << jobs;
    EXPECT_EQ(counter("par.pool.tasks") - tasks0, nets.size())
        << "jobs " << jobs;
  }
}

// ---- Determinism golden-compares across pool sizes ----

TEST(Determinism, LutGenerationIsIdenticalForAnyPoolSize) {
  par::ThreadPool pool1(1), pool4(4);
  const lut::LookupTable seq = lut::LookupTable::generate(5, {}, &pool1);
  const lut::LookupTable par_a = lut::LookupTable::generate(5, {}, &pool4);
  const lut::LookupTable par_b = lut::LookupTable::generate(5, {}, &pool4);

  EXPECT_EQ(seq.content_hash(), par_a.content_hash());
  EXPECT_EQ(par_a.content_hash(), par_b.content_hash());  // run-to-run
  ASSERT_EQ(seq.stats().size(), par_a.stats().size());
  for (const auto& [degree, st] : seq.stats()) {
    const auto& pt = par_a.stats().at(degree);
    EXPECT_EQ(st.indices, pt.indices);
    EXPECT_EQ(st.patterns, pt.patterns);
    EXPECT_EQ(st.topologies, pt.topologies);
    EXPECT_EQ(st.lp_calls, pt.lp_calls);
    EXPECT_EQ(st.bytes, pt.bytes);
  }
}

TEST(Determinism, LutQueriesAgreeAcrossPoolSizes) {
  par::ThreadPool pool1(1), pool3(3);
  const lut::LookupTable seq = lut::LookupTable::generate(5, {}, &pool1);
  const lut::LookupTable par_t = lut::LookupTable::generate(5, {}, &pool3);
  util::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const geom::Net net = netgen::uniform_net(rng, 5);
    EXPECT_EQ(seq.query(net).frontier, par_t.query(net).frontier);
  }
}

// Engine-based batch helper for the determinism goldens.
std::vector<core::PatLaborResult> route_with_jobs(
    const std::vector<geom::Net>& nets, const lut::LookupTable& table,
    std::size_t jobs) {
  engine::EngineOptions opt;
  opt.table = &table;
  opt.lambda = 7;
  opt.jobs = jobs;
  const engine::Engine eng(opt);
  std::vector<engine::RouteResponse> responses = eng.route_batch(nets);
  std::vector<core::PatLaborResult> out;
  out.reserve(responses.size());
  for (engine::RouteResponse& r : responses)
    out.push_back(core::PatLaborResult{std::move(r.frontier),
                                       std::move(r.trees), r.iterations});
  return out;
}

TEST(Determinism, RouteBatchIsIdenticalForAnyJobCountAndRun) {
  const lut::LookupTable table = lut::LookupTable::generate(5);
  std::vector<geom::Net> nets;
  util::Rng rng(99);
  for (std::size_t d : {3u, 5u, 8u, 12u, 15u, 18u})
    nets.push_back(netgen::clustered_net(rng, d));

  const auto r1 = route_with_jobs(nets, table, 1);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4},
                                 std::size_t{8}}) {
    const auto rj = route_with_jobs(nets, table, jobs);
    ASSERT_EQ(r1.size(), nets.size());
    ASSERT_EQ(rj.size(), nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
      EXPECT_EQ(r1[i].frontier, rj[i].frontier)
          << "jobs " << jobs << " net " << i;
      EXPECT_EQ(r1[i].iterations, rj[i].iterations)
          << "jobs " << jobs << " net " << i;
      ASSERT_EQ(r1[i].trees.size(), rj[i].trees.size())
          << "jobs " << jobs << " net " << i;
      for (std::size_t t = 0; t < r1[i].trees.size(); ++t)
        EXPECT_EQ(r1[i].trees[t].structural_hash(),
                  rj[i].trees[t].structural_hash())
            << "jobs " << jobs << " net " << i << " tree " << t;
    }
  }
  // Run-to-run: same jobs value twice.
  const auto r4 = route_with_jobs(nets, table, 4);
  const auto r4b = route_with_jobs(nets, table, 4);
  for (std::size_t i = 0; i < nets.size(); ++i)
    EXPECT_EQ(r4[i].frontier, r4b[i].frontier) << "net " << i;
}

TEST(Determinism, EngineCacheOnOffIsIdenticalForAnyJobCountAndRun) {
  // The engine extends the route_batch contract: cache on, cache off, any
  // job count, and repeated runs (= cache hits on the second pass) are all
  // bit-identical.
  const lut::LookupTable table = lut::LookupTable::generate(5);
  std::vector<geom::Net> nets;
  util::Rng rng(99);
  for (std::size_t d : {3u, 5u, 8u, 12u, 15u, 18u})
    nets.push_back(netgen::clustered_net(rng, d));
  // Repeat the whole list so the warm half of each run is served from the
  // cache when it is enabled.
  const std::vector<geom::Net> base = nets;
  nets.insert(nets.end(), base.begin(), base.end());

  const auto engine_route = [&](bool cache_on, std::size_t jobs) {
    engine::EngineOptions opt;
    opt.table = &table;
    opt.lambda = 7;
    opt.jobs = jobs;
    opt.cache.enabled = cache_on;
    const engine::Engine eng(opt);
    return eng.route_batch(nets);
  };

  const auto golden = engine_route(false, 1);
  for (const bool cache_on : {false, true}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      const auto got = engine_route(cache_on, jobs);
      ASSERT_EQ(got.size(), golden.size());
      for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(got[i].frontier, golden[i].frontier)
            << "cache " << cache_on << " jobs " << jobs << " net " << i;
        EXPECT_EQ(got[i].iterations, golden[i].iterations) << "net " << i;
        ASSERT_EQ(got[i].trees.size(), golden[i].trees.size()) << "net " << i;
        for (std::size_t t = 0; t < golden[i].trees.size(); ++t)
          EXPECT_EQ(got[i].trees[t].structural_hash(),
                    golden[i].trees[t].structural_hash())
              << "cache " << cache_on << " jobs " << jobs << " net " << i
              << " tree " << t;
      }
    }
  }
}

TEST(Determinism, PerRequestRouteBatchMatchesUniformBatch) {
  // The heterogeneous overload (one RouteRequest per net — the daemon's
  // admission-queue shape) must agree bit-for-bit with the uniform overload
  // when every per-net request is the same, and must reject a length
  // mismatch up front.
  const lut::LookupTable table = lut::LookupTable::generate(4);
  std::vector<geom::Net> nets;
  util::Rng rng(13);
  for (std::size_t d : {4u, 9u, 13u}) nets.push_back(netgen::uniform_net(rng, d));

  engine::EngineOptions opt;
  opt.table = &table;
  opt.lambda = 7;
  opt.jobs = 2;
  const engine::Engine eng(opt);

  engine::RouteRequest request;
  request.tag = "t0";  // tags must never affect routing
  std::vector<engine::RouteRequest> requests(nets.size(), request);
  const auto uniform = eng.route_batch(nets);
  const auto per_net = eng.route_batch(nets, requests);
  ASSERT_EQ(uniform.size(), per_net.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_EQ(uniform[i].frontier, per_net[i].frontier) << "net " << i;
    ASSERT_EQ(uniform[i].trees.size(), per_net[i].trees.size());
    for (std::size_t t = 0; t < uniform[i].trees.size(); ++t)
      EXPECT_EQ(uniform[i].trees[t].structural_hash(),
                per_net[i].trees[t].structural_hash())
          << "net " << i << " tree " << t;
  }

  requests.pop_back();
  EXPECT_THROW(eng.route_batch(nets, requests), std::invalid_argument);
}

TEST(OrderedSink, ReleasesContiguousPrefixInOrder) {
  std::vector<int> seen;
  par::OrderedSink<int> sink([&](int&& v) { seen.push_back(v); });
  sink.put(2, 20);
  sink.put(1, 10);
  EXPECT_TRUE(seen.empty());  // index 0 still missing
  EXPECT_EQ(sink.pending(), 2u);
  sink.put(0, 0);
  EXPECT_EQ(seen, (std::vector<int>{0, 10, 20}));
  EXPECT_EQ(sink.flushed(), 3u);
  EXPECT_EQ(sink.pending(), 0u);
  sink.put(3, 30);  // streaming continues past the first drain
  EXPECT_EQ(seen, (std::vector<int>{0, 10, 20, 30}));
}

TEST(OrderedSink, ConsumerSeesIndexOrderUnderConcurrentPuts) {
  constexpr std::size_t kItems = 500;
  std::vector<std::size_t> seen;
  par::OrderedSink<std::size_t> sink(
      [&](std::size_t&& v) { seen.push_back(v); });
  par::ThreadPool pool(4);
  // Workers complete out of order; the consumer must still observe 0..n-1.
  pool.run_indexed(kItems, [&](std::size_t i) { sink.put(i, i); });
  ASSERT_EQ(seen.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(sink.pending(), 0u);
}

TEST(Determinism, RouteBatchMatchesSequentialPatlabor) {
  const lut::LookupTable table = lut::LookupTable::generate(4);
  std::vector<geom::Net> nets;
  util::Rng rng(5);
  for (std::size_t d : {4u, 11u, 14u}) nets.push_back(netgen::uniform_net(rng, d));

  const auto batch = route_with_jobs(nets, table, 4);
  par::ThreadPool pool1(1);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    core::PatLaborOptions opt;
    opt.table = &table;
    opt.lambda = 7;
    opt.pool = &pool1;
    const auto solo = core::patlabor(nets[i], opt);
    EXPECT_EQ(solo.frontier, batch[i].frontier) << "net " << i;
  }
}

}  // namespace
}  // namespace patlabor
