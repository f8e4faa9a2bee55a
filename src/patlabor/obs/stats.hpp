// Process-wide statistics registry: named monotonic counters and value
// histograms with thread-safe (lock-free) increments.
//
// Instrumentation sites use the PL_COUNT / PL_HIST macros from obs.hpp,
// which check the runtime enable flag (obs::enabled()).  Handles
// returned by counter()/histogram() have stable addresses for the process
// lifetime, so sites may cache them in function-local statics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace patlabor::obs {

/// Monotonic counter; add() is a relaxed atomic increment.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (cache population, pool size, ...): set() overwrites,
/// add() adjusts by a signed delta.  Unlike Counter, values may go down —
/// the metrics exposition layer types the two differently.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed value histogram: bucket i counts values with bit width i
/// (0, then [2^(i-1), 2^i)).  All updates are relaxed atomics.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width of uint64 is 0..64

  struct Summary {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  // 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  void record(std::uint64_t v) noexcept;
  Summary summary() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Point-in-time copy of every registered metric, keyed by name.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Histogram::Summary> histograms;
};

/// Registry of named metrics.  Registration takes a mutex; increments on
/// the returned handles are lock-free.
class StatsRegistry {
 public:
  static StatsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  Snapshot snapshot() const;

  /// Zeroes every metric.  Registrations (and handle addresses) survive.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> hists_;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime master switch, off by default.  Gates both span recording and
/// the PL_COUNT / PL_HIST macros; reading it is a relaxed atomic load.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

}  // namespace patlabor::obs
