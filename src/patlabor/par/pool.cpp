#include "patlabor/par/pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/timed_mutex.hpp"
#include "patlabor/obs/trace.hpp"
#include "patlabor/util/str.hpp"

namespace patlabor::par {

namespace {

/// Pointers into one lane's counters.  The timing trio is null when obs
/// accounting is off for this drain (obs disabled at submit time); the
/// steal counters are always wired when the pool has lanes, because steal
/// events are scheduler facts rather than timings.
struct LaneCounters {
  std::atomic<std::uint64_t>* tasks = nullptr;
  std::atomic<std::uint64_t>* busy_us = nullptr;
  std::atomic<std::uint64_t>* queue_wait_us = nullptr;
  std::atomic<std::uint64_t>* steals = nullptr;
  std::atomic<std::uint64_t>* stolen_tasks = nullptr;
};

#if PATLABOR_OBS_ENABLED
/// Task-nesting depth on this thread.  A task that submits a nested batch
/// executes inner tasks inside its own timed window, so lane busy time is
/// accumulated only at depth 0 — otherwise nested work would be counted
/// twice and per-lane busy could exceed wall clock.
thread_local int t_task_depth = 0;

struct TaskDepthGuard {
  TaskDepthGuard() noexcept { ++t_task_depth; }
  ~TaskDepthGuard() { --t_task_depth; }
};
#endif  // PATLABOR_OBS_ENABLED

/// One submitted batch of n index-tasks, drained cooperatively by workers
/// and the submitting thread.  Two claiming modes share the struct: the
/// shared-counter mode of run_indexed (next), and the sharded mode of
/// run_sharded (one ShardRange per lane, owners popping the front and
/// thieves chunk-stealing from the tail).
struct Batch {
  /// One lane's contiguous index range, packed {head:32, tail:32} into a
  /// single atomic so owner pops and tail steals serialize through one CAS.
  /// Indices in [head, tail) are unclaimed.
  struct alignas(64) ShardRange {
    std::atomic<std::uint64_t> range{0};
  };
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  static constexpr std::uint64_t pack(std::uint64_t head,
                                      std::uint64_t tail) noexcept {
    return (head << 32) | tail;
  }

  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  /// Submission timestamp (obs::now_us), 0 when telemetry was off.
  std::uint64_t submit_us = 0;
  std::atomic<std::size_t> next{0};
  std::unique_ptr<ShardRange[]> shards;  // non-null => sharded mode
  std::size_t num_shards = 0;
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  // First (lowest-index) exception wins so failures are deterministic.
  std::exception_ptr err;
  std::size_t err_index = std::numeric_limits<std::size_t>::max();

  /// True once every index has been claimed (not necessarily finished);
  /// the batch can then leave the pool queue.
  bool fully_claimed() const noexcept {
    if (shards == nullptr) return next.load(std::memory_order_relaxed) >= n;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::uint64_t r = shards[s].range.load(std::memory_order_relaxed);
      if ((r >> 32) < (r & 0xFFFFFFFFu)) return false;
    }
    return true;
  }

  /// Owner-side pop: claims the lowest unclaimed index of `shard`, or npos.
  std::size_t claim_front(ShardRange& shard) noexcept {
    std::uint64_t cur = shard.range.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t head = cur >> 32;
      const std::uint64_t tail = cur & 0xFFFFFFFFu;
      if (head >= tail) return npos;
      if (shard.range.compare_exchange_weak(cur, pack(head + 1, tail),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
        return static_cast<std::size_t>(head);
    }
  }

  /// Thief-side chunk steal: detaches the upper half (at least one index)
  /// of `shard`'s remainder.  Returns {begin, end}, empty when nothing is
  /// left.  Stealing from the tail keeps the owner's front pops and the
  /// thief's range disjoint by construction.
  std::pair<std::size_t, std::size_t> steal_back(ShardRange& shard) noexcept {
    std::uint64_t cur = shard.range.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t head = cur >> 32;
      const std::uint64_t tail = cur & 0xFFFFFFFFu;
      if (head >= tail) return {0, 0};
      const std::uint64_t take = (tail - head + 1) / 2;
      if (shard.range.compare_exchange_weak(cur, pack(head, tail - take),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
        return {static_cast<std::size_t>(tail - take),
                static_cast<std::size_t>(tail)};
    }
  }

  /// Executes task i with the per-task accounting shared by both modes.
  void run_task(std::size_t i, const LaneCounters& lane, bool& first_claim) {
#if PATLABOR_OBS_ENABLED
    std::uint64_t t0 = 0;
    const bool rec = lane.tasks != nullptr && obs::enabled();
    const bool outermost = t_task_depth == 0;
    if (rec) {
      t0 = obs::now_us();
      if (first_claim) {
        first_claim = false;
        // Per-lane handoff latency: submit -> this lane's first claim.
        if (submit_us != 0 && t0 > submit_us)
          lane.queue_wait_us->fetch_add(t0 - submit_us,
                                        std::memory_order_relaxed);
      }
    }
    TaskDepthGuard depth_guard;
#else
    (void)first_claim;
#endif
    {
      // Opened around the task, so the task's own spans nest under it.
      PL_SPAN("pool.task");
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
    }
#if PATLABOR_OBS_ENABLED
    if (rec) {
      const std::uint64_t t1 = obs::now_us();
      if (outermost)
        lane.busy_us->fetch_add(t1 - t0, std::memory_order_relaxed);
      lane.tasks->fetch_add(1, std::memory_order_relaxed);
    }
#endif
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }

  void drain(const LaneCounters& lane) {
    bool first_claim = true;
    for (std::size_t i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
      run_task(i, lane, first_claim);
  }

  /// Sharded drain for the lane `self`: exhaust the own range first, then
  /// scan the other lanes round-robin and steal chunks until every shard
  /// is empty.  Stolen chunks run in ascending index order; which lane ran
  /// an index never affects the output (results land by index, events are
  /// re-ordered by par::OrderedSink), so stealing preserves determinism.
  void drain_sharded(std::size_t self, const LaneCounters& lane) {
    bool first_claim = true;
    if (self < num_shards) {
      ShardRange& own = shards[self];
      for (std::size_t i; (i = claim_front(own)) != npos;)
        run_task(i, lane, first_claim);
    }
    for (;;) {
      bool stole = false;
      for (std::size_t off = 1; off <= num_shards; ++off) {
        const std::size_t victim = (self + off) % num_shards;
        const auto [begin, end] = steal_back(shards[victim]);
        if (begin == end) continue;
        stole = true;
        if (lane.steals != nullptr) {
          lane.steals->fetch_add(1, std::memory_order_relaxed);
          lane.stolen_tasks->fetch_add(end - begin,
                                       std::memory_order_relaxed);
        }
        PL_COUNT("par.pool.steals", 1);
        PL_COUNT("par.pool.stolen_tasks", end - begin);
        for (std::size_t i = begin; i < end; ++i)
          run_task(i, lane, first_claim);
        break;  // restart the scan so the nearest loaded lane is preferred
      }
      if (!stole) return;
    }
  }
};

/// The worker lane of the current thread, valid for the pool whose Impl
/// pointer matches t_worker_pool (workers never migrate between pools).
thread_local const void* t_worker_pool = nullptr;
thread_local std::size_t t_worker_lane = 0;

}  // namespace

struct ThreadPool::Impl {
  /// Batch-queue lock; wait accounting surfaces scheduler contention as
  /// the par.pool.lock.* metric family (see DESIGN.md §6.2).
  obs::TimedMutex mu{"par.pool.lock"};
  std::condition_variable_any cv;
  std::deque<std::shared_ptr<Batch>> queue;
  bool stop = false;
  std::vector<std::thread> workers;
  LaneStats* lanes = nullptr;  // borrowed from the owning pool

  void worker_main(std::size_t index) {
    obs::set_thread_name("pool.worker-" + std::to_string(index));
    t_worker_pool = this;
    t_worker_lane = index;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<obs::TimedMutex> lock(mu);
        cv.wait(lock, [&] { return stop || !queue.empty(); });
        if (stop && queue.empty()) return;
        batch = queue.front();
        // Leave the batch visible until exhausted so every idle worker can
        // join it; drop it once all of its chunks have been claimed.
        if (batch->fully_claimed()) queue.pop_front();
      }
      LaneCounters lc;
#if PATLABOR_OBS_ENABLED
      lc.tasks = &lanes[index].tasks;
      lc.busy_us = &lanes[index].busy_us;
      lc.queue_wait_us = &lanes[index].queue_wait_us;
#endif
      lc.steals = &lanes[index].steals;
      lc.stolen_tasks = &lanes[index].stolen_tasks;
      if (batch->shards != nullptr)
        batch->drain_sharded(index, lc);
      else
        batch->drain(lc);
      std::lock_guard<obs::TimedMutex> lock(mu);
      if (!queue.empty() && queue.front() == batch && batch->fully_claimed())
        queue.pop_front();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? 1 : threads),
      lanes_(std::make_unique<LaneStats[]>(size_)) {
  PL_GAUGE_SET("par.pool.size", size_);
  if (size_ == 1) return;  // inline fallback: no workers, no queue
  impl_ = new Impl;
  impl_->lanes = lanes_.get();
  impl_->workers.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i)
    impl_->workers.emplace_back([this, i] { impl_->worker_main(i); });
}

ThreadPool::~ThreadPool() {
  if (impl_ == nullptr) return;
  {
    std::lock_guard<obs::TimedMutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::size_t ThreadPool::lane_of_caller() const noexcept {
  if (impl_ != nullptr && t_worker_pool == impl_) return t_worker_lane;
  return size_ - 1;
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t lane = lane_of_caller();
  if (impl_ == nullptr || n == 1) {
#if PATLABOR_OBS_ENABLED
    if (obs::enabled()) {
      LaneStats& ls = lanes_[lane];
      for (std::size_t i = 0; i < n; ++i) {
        const bool outermost = t_task_depth == 0;
        const std::uint64_t t0 = obs::now_us();
        {
          TaskDepthGuard depth_guard;
          PL_SPAN("pool.task");
          fn(i);
        }
        const std::uint64_t t1 = obs::now_us();
        if (outermost)
          ls.busy_us.fetch_add(t1 - t0, std::memory_order_relaxed);
        ls.tasks.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
#if PATLABOR_OBS_ENABLED
  const bool rec = obs::enabled();
  if (rec) batch->submit_us = obs::now_us();
#endif
  std::size_t depth = 0;
  {
    std::lock_guard<obs::TimedMutex> lock(impl_->mu);
    impl_->queue.push_back(batch);
    depth = impl_->queue.size();
  }
  // Sampled on every submit: how many batches were pending at that moment.
  PL_GAUGE_SET("par.pool.queue_depth", depth);
  impl_->cv.notify_all();
  LaneCounters lc;
#if PATLABOR_OBS_ENABLED
  if (rec) {
    lc.tasks = &lanes_[lane].tasks;
    lc.busy_us = &lanes_[lane].busy_us;
    lc.queue_wait_us = &lanes_[lane].queue_wait_us;
  }
#endif
  lc.steals = &lanes_[lane].steals;
  lc.stolen_tasks = &lanes_[lane].stolen_tasks;
  // The submitting thread is a full participant.
  if (batch->shards != nullptr)
    batch->drain_sharded(lane, lc);
  else
    batch->drain(lc);
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
  }
  PL_COUNT("par.pool.batches", 1);
  PL_COUNT("par.pool.tasks", n);
  PL_HIST("par.pool.batch_tasks", n);
  if (batch->err) std::rethrow_exception(batch->err);
}

void ThreadPool::run_sharded(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  // The inline fallback and 1-task batches have no imbalance to steal;
  // shared-counter claiming is equivalent there (and run_indexed already
  // carries the accounting), so delegate.
  if (impl_ == nullptr || n <= 1) {
    run_indexed(n, fn);
    return;
  }
  const std::size_t lane = lane_of_caller();
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  batch->num_shards = size_;
  batch->shards = std::make_unique<Batch::ShardRange[]>(size_);
  for (std::size_t k = 0; k < size_; ++k) {
    const std::uint64_t begin = k * n / size_;
    const std::uint64_t end = (k + 1) * n / size_;
    batch->shards[k].range.store(Batch::pack(begin, end),
                                 std::memory_order_relaxed);
  }
#if PATLABOR_OBS_ENABLED
  const bool rec = obs::enabled();
  if (rec) batch->submit_us = obs::now_us();
#endif
  std::size_t depth = 0;
  {
    std::lock_guard<obs::TimedMutex> lock(impl_->mu);
    impl_->queue.push_back(batch);
    depth = impl_->queue.size();
  }
  PL_GAUGE_SET("par.pool.queue_depth", depth);
  impl_->cv.notify_all();
  LaneCounters lc;
#if PATLABOR_OBS_ENABLED
  if (rec) {
    lc.tasks = &lanes_[lane].tasks;
    lc.busy_us = &lanes_[lane].busy_us;
    lc.queue_wait_us = &lanes_[lane].queue_wait_us;
  }
#endif
  lc.steals = &lanes_[lane].steals;
  lc.stolen_tasks = &lanes_[lane].stolen_tasks;
  batch->drain_sharded(lane, lc);
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
  }
  PL_COUNT("par.pool.batches", 1);
  PL_COUNT("par.pool.tasks", n);
  PL_HIST("par.pool.batch_tasks", n);
  if (batch->err) std::rethrow_exception(batch->err);
}

std::vector<WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out[i].tasks = lanes_[i].tasks.load(std::memory_order_relaxed);
    out[i].busy_us = lanes_[i].busy_us.load(std::memory_order_relaxed);
    out[i].queue_wait_us =
        lanes_[i].queue_wait_us.load(std::memory_order_relaxed);
    out[i].steals = lanes_[i].steals.load(std::memory_order_relaxed);
    out[i].stolen_tasks =
        lanes_[i].stolen_tasks.load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_jobs = 0;  // 0 = unresolved

std::size_t resolve_default_jobs() {
  if (const char* env = std::getenv("PATLABOR_JOBS")) {
    const auto v = util::parse_u64(env);
    if (v && *v >= 1) return static_cast<std::size_t>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t jobs() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_jobs == 0) g_jobs = resolve_default_jobs();
  return g_jobs;
}

void set_jobs(std::size_t n) {
  if (n == 0) n = 1;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_jobs = n;
  if (g_pool != nullptr && g_pool->size() != n) g_pool.reset();
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_jobs == 0) g_jobs = resolve_default_jobs();
  if (g_pool == nullptr) g_pool = std::make_unique<ThreadPool>(g_jobs);
  return *g_pool;
}

ThreadPool& inline_pool() {
  static ThreadPool pool(1);
  return pool;
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn,
                  ThreadPool* pool) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (n + grain - 1) / grain;
  ThreadPool& p = pool != nullptr ? *pool : global_pool();
  p.run_indexed(chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    fn(begin, std::min(begin + grain, n));
  });
}

std::uint64_t task_seed(std::uint64_t base_seed,
                        std::uint64_t task_index) noexcept {
  // splitmix64 finalizer over the pair; full avalanche keeps neighbouring
  // task indices statistically independent.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace patlabor::par
