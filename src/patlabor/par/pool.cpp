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
#include <utility>

#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/timed_mutex.hpp"
#include "patlabor/obs/trace.hpp"
#include "patlabor/util/str.hpp"

namespace patlabor::par {

namespace {

/// Pointers into one lane's counters (ThreadPool::LaneStats).
struct LaneCounters {
  std::atomic<std::uint64_t>* tasks = nullptr;
  std::atomic<std::uint64_t>* busy_us = nullptr;
  std::atomic<std::uint64_t>* queue_wait_us = nullptr;
};

/// Task-nesting depth on this thread: 0 outside any pool task.
thread_local int t_task_depth = 0;

/// Per-task lane accounting, live for the duration of one task (thrown or
/// not).  A task that submits a nested batch executes inner tasks inside
/// its own timed window, so busy time accrues only at depth 0 — otherwise
/// nested work would be counted twice and lane busy could exceed wall.
class TaskScope {
 public:
  explicit TaskScope(const LaneCounters& lane) noexcept
      : lane_(obs::enabled() ? &lane : nullptr),
        outermost_(t_task_depth++ == 0),
        t0_(lane_ != nullptr ? obs::now_us() : 0) {}
  ~TaskScope() {
    --t_task_depth;
    if (lane_ == nullptr) return;
    if (outermost_)
      lane_->busy_us->fetch_add(obs::now_us() - t0_,
                                std::memory_order_relaxed);
    lane_->tasks->fetch_add(1, std::memory_order_relaxed);
  }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  const LaneCounters* lane_;
  bool outermost_;
  std::uint64_t t0_;
};

/// Runs fn(i) with the per-task accounting shared by the pooled and the
/// inline path: the lane's busy/tasks update and a `pool.task` span opened
/// around the task, so the task's own spans nest under it.  Exceptions
/// propagate to the caller.
void run_task(const std::function<void(std::size_t)>& fn, std::size_t i,
              const LaneCounters& lane) {
  TaskScope scope(lane);
  PL_SPAN("pool.task");
  fn(i);
}

/// One submitted batch of n index-tasks, drained cooperatively by workers
/// and the submitting thread, every lane claiming the next index from the
/// shared counter `next`.
struct Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  /// Submission timestamp (obs::now_us), 0 when telemetry was off.
  std::uint64_t submit_us = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  // First (lowest-index) exception wins so failures are deterministic.
  std::exception_ptr err;
  std::size_t err_index = std::numeric_limits<std::size_t>::max();

  /// True once every index has been claimed (not necessarily finished);
  /// the batch can then leave the pool queue.
  bool fully_claimed() const noexcept {
    return next.load(std::memory_order_relaxed) >= n;
  }

  void drain(const LaneCounters& lane) {
    std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    // Per-lane handoff latency: submit -> this lane's first claim.
    if (submit_us != 0 && obs::enabled()) {
      const std::uint64_t now = obs::now_us();
      if (now > submit_us)
        lane.queue_wait_us->fetch_add(now - submit_us,
                                      std::memory_order_relaxed);
    }
    do {
      try {
        run_task(*fn, i, lane);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    } while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n);
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
    LaneStats& ls = lanes[index];
    const LaneCounters lc{&ls.tasks, &ls.busy_us, &ls.queue_wait_us};
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<obs::TimedMutex> lock(mu);
        cv.wait(lock, [&] { return stop || !queue.empty(); });
        if (stop && queue.empty()) return;
        batch = queue.front();
        // Leave the batch visible until exhausted so every idle worker can
        // join it; drop it once all of its indices have been claimed.
        if (batch->fully_claimed()) queue.pop_front();
      }
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
  // Top-level batches only: nested batches submitted from inside a task
  // (inline_pool candidate evaluation) stay uncounted at every width.
  if (t_task_depth == 0) {
    PL_COUNT("par.pool.batches", 1);
    PL_COUNT("par.pool.tasks", n);
    PL_HIST("par.pool.batch_tasks", n);
  }
  LaneStats& ls = lanes_[lane_of_caller()];
  const LaneCounters lc{&ls.tasks, &ls.busy_us, &ls.queue_wait_us};
  if (impl_ == nullptr || n == 1) {
    // Inline: in index order, stopping at the first throw.
    for (std::size_t i = 0; i < n; ++i) run_task(fn, i, lc);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;
  if (obs::enabled()) batch->submit_us = obs::now_us();
  std::size_t depth = 0;
  {
    std::lock_guard<obs::TimedMutex> lock(impl_->mu);
    impl_->queue.push_back(batch);
    depth = impl_->queue.size();
  }
  // Sampled on every submit: how many batches were pending at that moment.
  PL_GAUGE_SET("par.pool.queue_depth", depth);
  impl_->cv.notify_all();
  // The submitting thread is a full participant.
  batch->drain(lc);
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->n;
    });
  }
  // Take the exception out of the batch before rethrowing: a worker may
  // still hold the batch, and its release must not be the one that frees
  // the exception object the caller is reading.
  if (std::exception_ptr err = std::move(batch->err))
    std::rethrow_exception(err);
}

void ThreadPool::run_sharded(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  run_indexed(n, fn);
}

std::vector<WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out[i].tasks = lanes_[i].tasks.load(std::memory_order_relaxed);
    out[i].busy_us = lanes_[i].busy_us.load(std::memory_order_relaxed);
    out[i].queue_wait_us =
        lanes_[i].queue_wait_us.load(std::memory_order_relaxed);
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
