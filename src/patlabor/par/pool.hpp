// Shared parallel execution layer: a fixed-size thread pool with an
// index-ordered parallel_transform.
//
// Determinism contract: parallel_transform(n, fn) returns out[i] = fn(i)
// merged in index order, so as long as fn(i) depends only on i (and
// read-only captures), the result is bit-identical for every pool size,
// including 1.  Stochastic tasks derive their stream from task_rng(seed, i)
// — a function of the task index, never of the executing thread — which
// keeps randomized work on the same contract.
//
// Batches are drained cooperatively: every lane — each worker and the
// submitting thread — claims the next unclaimed index from one shared
// atomic counter, so a worker may itself submit a nested batch to the same
// pool without deadlock (it just drains the inner batch in place).  A pool
// of size 1 (or a batch of one task) runs entirely inline on the calling
// thread — the zero-dependency fallback path spawns nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "patlabor/util/rng.hpp"

namespace patlabor::par {

/// Per-lane execution accounting (one lane per worker thread plus one for
/// the submitting caller).  The timing fields are zero when the obs runtime
/// is disabled or instrumentation is compiled out (PATLABOR_OBS=OFF).
struct WorkerStats {
  std::uint64_t tasks = 0;          ///< index-tasks executed on this lane
  std::uint64_t busy_us = 0;        ///< wall time spent inside task fns
  std::uint64_t queue_wait_us = 0;  ///< batch submit -> lane pickup latency
  /// Always 0: the pool does not steal.  Kept only because perfbench/
  /// reads it for its par.steals metric.
  std::uint64_t steals = 0;
};

/// Fixed-size worker pool.  `threads` is the total parallelism of a batch:
/// the pool owns threads-1 workers and the submitting thread contributes
/// the remaining lane while it waits.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the submitting thread); always >= 1.
  std::size_t size() const noexcept { return size_; }

  /// Runs fn(i) for every i in [0, n), blocking until all calls finished.
  /// Lanes claim indices one at a time from a shared counter.  Exceptions
  /// are rethrown in the caller; when several tasks throw, the one with the
  /// smallest index wins (deterministic for any pool size).  On the inline
  /// path tasks run in index order and the first throw stops the batch.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Same as run_indexed.  Kept only because perfbench/ calls it.
  void run_sharded(std::size_t n, const std::function<void(std::size_t)>& fn);

  // ---- Concurrency observatory (all zero under PATLABOR_OBS=OFF or with
  // the obs runtime disabled; see DESIGN.md §6.2) ----

  /// Per-lane timeline totals: size() entries, lanes [0, size()-2] are the
  /// pool workers and the last lane is the submitting caller.  Nested
  /// batches drained by a worker are attributed to that worker's lane.
  std::vector<WorkerStats> worker_stats() const;

 private:
  struct Impl;
  /// One lane's counters, cache-line padded so concurrent lanes never
  /// share a line.  Lives outside Impl: a size-1 pool has no Impl (the
  /// inline fallback) but still accounts the caller lane.
  struct alignas(64) LaneStats {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_us{0};
    std::atomic<std::uint64_t> queue_wait_us{0};
  };
  /// The calling thread's lane index (its worker lane, or size_-1 for any
  /// non-worker submitter).
  std::size_t lane_of_caller() const noexcept;

  Impl* impl_ = nullptr;
  std::size_t size_ = 1;
  std::unique_ptr<LaneStats[]> lanes_;
};

/// Effective job count: the last set_jobs() value if any, else the
/// PATLABOR_JOBS env var (when a positive integer), else
/// std::thread::hardware_concurrency().
std::size_t jobs();

/// Overrides the job count used by the global pool.  Requires n >= 1.
/// If the global pool already exists at a different size it is rebuilt;
/// the caller must ensure no batches are in flight on it.
void set_jobs(std::size_t n);

/// Lazily-constructed process-wide pool of size jobs().
ThreadPool& global_pool();

/// Process-wide size-1 pool: batches run inline on the calling thread.
/// Pass it as the task pool of code that is itself already running as a
/// coarse pool task — nested candidate evaluation then executes in place
/// on the worker instead of re-entering the scheduler, which is the
/// difference between 248 fine tasks and one-task-per-net batches.
/// Safe to share across threads (the inline path only touches atomics).
ThreadPool& inline_pool();

/// Ordered map: returns {fn(0), fn(1), ..., fn(n-1)}, computed in parallel
/// but merged in index order.  fn must be callable concurrently.
template <typename F>
auto parallel_transform(std::size_t n, F&& fn, ThreadPool* pool = nullptr)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using R = decltype(fn(std::size_t{}));
  std::vector<R> out(n);
  ThreadPool& p = pool != nullptr ? *pool : global_pool();
  p.run_indexed(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Seed of task i's private RNG stream, derived from a base seed by a
/// splitmix-style mix so neighbouring indices land far apart.  Depends only
/// on (base_seed, task_index): streams are reproducible for any pool size.
std::uint64_t task_seed(std::uint64_t base_seed,
                        std::uint64_t task_index) noexcept;

/// Per-task RNG on the task_seed stream.
inline util::Rng task_rng(std::uint64_t base_seed,
                          std::uint64_t task_index) noexcept {
  return util::Rng(task_seed(base_seed, task_index));
}

}  // namespace patlabor::par
