#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "patlabor/obs/json.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/report.hpp"
#include "patlabor/obs/timed_mutex.hpp"

namespace patlabor {
namespace {

using obs::StatsRegistry;
using obs::TraceEvent;

// Each fixture run starts from a clean, disabled observability state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    StatsRegistry::instance().reset();
    obs::clear_trace();
  }
  void TearDown() override {
    obs::set_enabled(false);
    StatsRegistry::instance().reset();
    obs::clear_trace();
  }
};

TEST_F(ObsTest, CounterAddAndSnapshot) {
  obs::set_enabled(true);
  auto& c = StatsRegistry::instance().counter("test.counter_basic");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  const auto snap = StatsRegistry::instance().snapshot();
  ASSERT_TRUE(snap.counters.count("test.counter_basic"));
  EXPECT_EQ(snap.counters.at("test.counter_basic"), 42u);
}

TEST_F(ObsTest, RegistryReturnsStableHandles) {
  auto& a = StatsRegistry::instance().counter("test.stable");
  auto& b = StatsRegistry::instance().counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.add(7);
  StatsRegistry::instance().reset();
  EXPECT_EQ(b.value(), 0u);  // reset zeroes but keeps the registration
  b.add(3);
  EXPECT_EQ(a.value(), 3u);
}

TEST_F(ObsTest, HistogramSummary) {
  auto& h = StatsRegistry::instance().histogram("test.hist");
  for (std::uint64_t v : {5u, 1u, 9u, 5u}) h.record(v);
  const auto s = h.summary();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 20u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 9u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // log2 buckets: 1 -> bucket 1, 5 -> bucket 3 (twice), 9 -> bucket 4.
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[3], 2u);
  EXPECT_EQ(s.buckets[4], 1u);

  const auto empty = StatsRegistry::instance().histogram("test.empty").summary();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min, 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST_F(ObsTest, MacrosAreNoOpsWhenDisabled) {
  ASSERT_FALSE(obs::enabled());
  PL_COUNT("test.disabled_counter", 5);
  PL_HIST("test.disabled_hist", 5);
  { PL_SPAN("test.disabled_span"); }
  const auto snap = StatsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.count("test.disabled_counter"), 0u);
  EXPECT_EQ(snap.histograms.count("test.disabled_hist"), 0u);
  EXPECT_TRUE(obs::drain_trace().empty());
}

TEST_F(ObsTest, MacrosRecordWhenEnabled) {
  obs::set_enabled(true);
  PL_COUNT("test.enabled_counter", 2);
  PL_COUNT("test.enabled_counter", 3);
  PL_HIST("test.enabled_hist", 7);
  const auto snap = StatsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("test.enabled_counter"), 5u);
  EXPECT_EQ(snap.histograms.at("test.enabled_hist").count, 1u);
}

TEST_F(ObsTest, NestedSpansRecordDepthAndContainment) {
  obs::set_enabled(true);
  // Spin until the microsecond clock ticks so every span gets a distinct
  // start time; equal timestamps would make the drain order ambiguous.
  auto advance_clock = [] {
    const auto t0 = obs::now_us();
    while (obs::now_us() == t0) {
    }
  };
  {
    PL_SPAN("outer");
    advance_clock();
    {
      PL_SPAN("inner");
      advance_clock();
      {
        PL_SPAN("leaf");
        advance_clock();
      }
    }
    {
      PL_SPAN("inner2");
      advance_clock();
    }
  }
  const auto events = obs::drain_trace();
  ASSERT_EQ(events.size(), 4u);

  auto find = [&](const std::string& name) -> const TraceEvent& {
    for (const auto& e : events)
      if (e.name == name) return e;
    ADD_FAILURE() << "missing event " << name;
    static TraceEvent dummy;
    return dummy;
  };
  const auto& outer = find("outer");
  const auto& inner = find("inner");
  const auto& leaf = find("leaf");
  const auto& inner2 = find("inner2");

  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(leaf.depth, 2u);
  EXPECT_EQ(inner2.depth, 1u);
  // Same thread, nested intervals.
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_GE(leaf.ts_us, inner.ts_us);
  EXPECT_GE(inner2.ts_us, inner.ts_us + inner.dur_us);

  // Parent/child ordering after drain: sorted by start time, parent first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "leaf");
  EXPECT_EQ(events[3].name, "inner2");
}

TEST_F(ObsTest, AggregatePhasesComputesSelfTime) {
  // Synthetic event tree: root [0, 100] with children [10, 20] and
  // [50, 30]; child "b" has a grandchild [55, 10] of a different name.
  std::vector<TraceEvent> events{
      {"root", 1, 0, 0, 100},
      {"child", 1, 1, 10, 20},
      {"child", 1, 1, 50, 30},
      {"grand", 1, 2, 55, 10},
  };
  const auto phases = obs::aggregate_phases(events);
  ASSERT_EQ(phases.size(), 3u);

  auto row = [&](const std::string& name) {
    for (const auto& p : phases)
      if (p.name == name) return p;
    ADD_FAILURE() << "missing phase " << name;
    return obs::PhaseRow{};
  };
  EXPECT_EQ(row("root").count, 1u);
  EXPECT_NEAR(row("root").total_s, 100e-6, 1e-12);
  EXPECT_NEAR(row("root").self_s, 50e-6, 1e-12);  // 100 - 20 - 30
  EXPECT_EQ(row("child").count, 2u);
  EXPECT_NEAR(row("child").total_s, 50e-6, 1e-12);
  EXPECT_NEAR(row("child").self_s, 40e-6, 1e-12);  // 50 - 10
  EXPECT_NEAR(row("grand").self_s, 10e-6, 1e-12);
  // Rows sorted by total time descending.
  EXPECT_EQ(phases[0].name, "root");
}

TEST_F(ObsTest, TraceJsonRoundTrips) {
  obs::set_enabled(true);
  {
    PL_SPAN("json.outer");
    PL_SPAN("json \"quoted\\name\"");  // exercises escaping
  }
  const auto events = obs::drain_trace();
  const std::string text = obs::trace_json(events);

  const auto parsed = obs::json::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  ASSERT_TRUE(parsed->is_object());
  const auto* trace_events = parsed->find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  ASSERT_EQ(trace_events->arr.size(), events.size());
  bool found_escaped = false;
  for (const auto& e : trace_events->arr) {
    ASSERT_TRUE(e.is_object());
    const auto* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "X");
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    EXPECT_GE(e.find("dur")->number, 0.0);
    if (e.find("name")->str == "json \"quoted\\name\"") found_escaped = true;
  }
  EXPECT_TRUE(found_escaped);
}

TEST_F(ObsTest, ReportJsonRoundTrips) {
  obs::set_enabled(true);
  PL_COUNT("test.report_counter", 12);
  PL_HIST("test.report_hist", 3);
  { PL_SPAN("report.phase"); }
  const auto phases = obs::aggregate_phases(obs::drain_trace());
  const std::string text =
      obs::report_json(StatsRegistry::instance().snapshot(), phases, 1.5);

  const auto parsed = obs::json::parse(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_DOUBLE_EQ(parsed->find("wall_seconds")->number, 1.5);
  const auto* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("test.report_counter")->number, 12.0);
  const auto* hists = parsed->find("histograms");
  ASSERT_NE(hists, nullptr);
  EXPECT_DOUBLE_EQ(hists->find("test.report_hist")->find("sum")->number, 3.0);
  const auto* ph = parsed->find("phases");
  ASSERT_NE(ph, nullptr);
  ASSERT_EQ(ph->arr.size(), 1u);
  EXPECT_EQ(ph->arr[0].find("name")->str, "report.phase");
}

TEST_F(ObsTest, MultiThreadedCounterIncrements) {
  obs::set_enabled(true);
  auto& c = StatsRegistry::instance().counter("test.mt_counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) PL_COUNT("test.mt_counter", 1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, SpansFromMultipleThreadsGetDistinctTids) {
  obs::set_enabled(true);
  { PL_SPAN("main.span"); }
  std::thread([&] { PL_SPAN("worker.span"); }).join();
  const auto events = obs::drain_trace();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

// ---- TimedMutex: lock-wait accounting ----

TEST_F(ObsTest, TimedMutexCountsUncontendedAcquisitions) {
  obs::set_enabled(true);
  obs::TimedMutex mu;
  for (int i = 0; i < 5; ++i) {
    std::lock_guard<obs::TimedMutex> lock(mu);
  }
  const obs::LockStats s = mu.stats();
  EXPECT_EQ(s.acquisitions, 5u);
  EXPECT_EQ(s.contentions, 0u);  // never blocked
  EXPECT_EQ(s.wait_us, 0u);
}

TEST_F(ObsTest, TimedMutexMeasuresContendedWaitAndMirrorsFamily) {
  obs::set_enabled(true);
  obs::TimedMutex mu("test.lockfam");
  std::atomic<bool> held{false};
  std::thread holder([&] {
    mu.lock();
    held.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mu.unlock();
  });
  while (!held.load()) std::this_thread::yield();
  mu.lock();  // blocks until the holder releases
  mu.unlock();
  holder.join();

  const obs::LockStats s = mu.stats();
  EXPECT_EQ(s.acquisitions, 2u);
  EXPECT_EQ(s.contentions, 1u);
  EXPECT_GE(s.wait_us, 1000u);  // the holder slept 20ms while holding

  // Contended waits roll up into the <family>.* registry counters.
  const auto snap = StatsRegistry::instance().snapshot();
  ASSERT_TRUE(snap.counters.count("test.lockfam.contended"));
  EXPECT_EQ(snap.counters.at("test.lockfam.contended"), 1u);
  EXPECT_GE(snap.counters.at("test.lockfam.wait_us"), 1000u);
}

TEST_F(ObsTest, TimedMutexIsInertWhileRuntimeDisabled) {
  ASSERT_FALSE(obs::enabled());
  obs::TimedMutex mu("test.lockfam_off");
  {
    std::lock_guard<obs::TimedMutex> lock(mu);
  }
  EXPECT_EQ(mu.stats().acquisitions, 0u);
  EXPECT_EQ(StatsRegistry::instance().snapshot().counters.count(
                "test.lockfam_off.contended"),
            0u);
}

TEST_F(ObsTest, TimedMutexStillExcludesUnderAllConfigurations) {
  // Mutual exclusion must hold whether or not the runtime switch is on
  // (off, lock() is the plain mutex; on, the try_lock fast path).
  for (const bool on : {false, true}) {
    obs::set_enabled(on);
    obs::TimedMutex mu;
    int counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        for (int i = 0; i < 2000; ++i) {
          std::lock_guard<obs::TimedMutex> lock(mu);
          ++counter;  // unsynchronized without the mutex
        }
      });
    for (auto& t : threads) t.join();
    EXPECT_EQ(counter, 8000) << "enabled=" << on;
  }
}

TEST(ObsJson, ParsesScalarsAndStructures) {
  using obs::json::parse;
  EXPECT_TRUE(parse("null").has_value());
  EXPECT_TRUE(parse("true")->boolean);
  EXPECT_DOUBLE_EQ(parse("-1.5e2")->number, -150.0);
  EXPECT_EQ(parse("\"a\\nb\\u0041\"")->str, "a\nbA");
  EXPECT_EQ(parse("[1, 2, 3]")->arr.size(), 3u);
  const auto obj = parse("{\"k\": [true, {\"n\": 1}], \"m\": \"v\"}");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->obj.size(), 2u);
  EXPECT_EQ(obj->find("m")->str, "v");
  EXPECT_EQ(obj->find("missing"), nullptr);
}

TEST_F(ObsTest, GaugeSetAddAndSnapshot) {
  auto& g = StatsRegistry::instance().gauge("test.gauge_basic");
  EXPECT_EQ(g.value(), 0);
  g.set(12);
  g.add(-5);
  EXPECT_EQ(g.value(), 7);

  const auto snap = StatsRegistry::instance().snapshot();
  ASSERT_TRUE(snap.gauges.count("test.gauge_basic"));
  EXPECT_EQ(snap.gauges.at("test.gauge_basic"), 7);

  StatsRegistry::instance().reset();
  EXPECT_EQ(g.value(), 0);  // reset zeroes but keeps the registration
}

TEST_F(ObsTest, GaugeMacroRespectsRuntimeFlag) {
  PL_GAUGE_SET("test.gauge_macro", 9);  // disabled: must not record
  EXPECT_EQ(StatsRegistry::instance().snapshot().gauges.count(
                "test.gauge_macro"),
            0u);
  obs::set_enabled(true);
  PL_GAUGE_SET("test.gauge_macro", 9);
  const auto snap = StatsRegistry::instance().snapshot();
  ASSERT_TRUE(snap.gauges.count("test.gauge_macro"));
  EXPECT_EQ(snap.gauges.at("test.gauge_macro"), 9);
}

TEST(ObsJson, RejectsMalformedInput) {
  using obs::json::parse;
  EXPECT_FALSE(parse("").has_value());
  EXPECT_FALSE(parse("{").has_value());
  EXPECT_FALSE(parse("[1,]").has_value());
  EXPECT_FALSE(parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(parse("12 garbage").has_value());
  EXPECT_FALSE(parse("\"unterminated").has_value());
  EXPECT_FALSE(parse("\"bad\\escape\"").has_value());
  EXPECT_FALSE(parse("01").has_value() && false);  // leading zeros tolerated
  EXPECT_FALSE(parse("nul").has_value());
}

}  // namespace
}  // namespace patlabor
