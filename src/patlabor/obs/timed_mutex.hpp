// Lock-wait accounting: a std::mutex wrapper that measures how long
// contended acquisitions block, so hot locks (engine cache shards, the
// pool's batch queue) can attribute wall time to synchronization instead
// of guessing.
//
// Cost model: an uncontended lock() is one relaxed atomic load
// (obs::enabled()) + one relaxed fetch_add + the underlying try_lock —
// near-zero next to any critical section worth instrumenting.  Only the
// contended path reads the clock (twice) and touches the wait counters.
// With the runtime switch off, lock() degenerates to the plain mutex.
//
// An optional `family` name mirrors contended waits into process-wide
// counters (`<family>.wait_us`, `<family>.contended`) so the metrics
// exposition layer sees lock pressure without polling every instance;
// per-instance skew (e.g. across cache shards) is read via stats().
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "patlabor/obs/obs.hpp"

namespace patlabor::obs {

/// Point-in-time counters of one TimedMutex (all zero while recording is
/// disabled at runtime).
struct LockStats {
  std::uint64_t acquisitions = 0;  ///< lock() calls observed while enabled
  std::uint64_t contentions = 0;   ///< acquisitions that had to block
  std::uint64_t wait_us = 0;       ///< total blocked wall time

  LockStats& operator+=(const LockStats& o) {
    acquisitions += o.acquisitions;
    contentions += o.contentions;
    wait_us += o.wait_us;
    return *this;
  }
};

class TimedMutex {
 public:
  TimedMutex() = default;
  /// `family` must be a string literal (or otherwise outlive the mutex);
  /// contended waits are mirrored into `<family>.wait_us` and
  /// `<family>.contended` registry counters.
  explicit TimedMutex(const char* family) : family_(family) {}

  TimedMutex(const TimedMutex&) = delete;
  TimedMutex& operator=(const TimedMutex&) = delete;

  void lock() {
    if (!enabled()) {
      mu_.lock();
      return;
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    if (mu_.try_lock()) return;
    const std::uint64_t t0 = now_us();
    mu_.lock();
    const std::uint64_t waited = now_us() - t0;
    contentions_.fetch_add(1, std::memory_order_relaxed);
    wait_us_.fetch_add(waited, std::memory_order_relaxed);
    if (family_ != nullptr) mirror_contention(waited);
  }

  bool try_lock() {
    if (enabled()) acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return mu_.try_lock();
  }

  void unlock() { mu_.unlock(); }

  LockStats stats() const {
    LockStats s;
    s.acquisitions = acquisitions_.load(std::memory_order_relaxed);
    s.contentions = contentions_.load(std::memory_order_relaxed);
    s.wait_us = wait_us_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  void mirror_contention(std::uint64_t waited_us) {
    // Registration (a registry mutex) is paid once per instance, and only
    // on the already-slow contended path.
    if (wait_counter_ == nullptr) {
      auto& reg = StatsRegistry::instance();
      contended_counter_ = &reg.counter(std::string(family_) + ".contended");
      wait_counter_ = &reg.counter(std::string(family_) + ".wait_us");
    }
    contended_counter_->add(1);
    wait_counter_->add(waited_us);
  }

  std::mutex mu_;
  const char* family_ = nullptr;
  std::atomic<std::uint64_t> acquisitions_{0};
  std::atomic<std::uint64_t> contentions_{0};
  std::atomic<std::uint64_t> wait_us_{0};
  // Lazily resolved under mu_ (only the lock holder writes them).
  Counter* wait_counter_ = nullptr;
  Counter* contended_counter_ = nullptr;
};

}  // namespace patlabor::obs
