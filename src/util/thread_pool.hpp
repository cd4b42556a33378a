// A small fixed-size worker pool used to parallelise per-node work in the
// decentralized-learning simulator (local SGD steps, aggregation, accuracy
// evaluation). Work is submitted either as individual tasks or through
// parallel_for, which block-partitions an index range.
//
// Nested-parallelism policy: help-while-wait. parallel_for publishes its
// chunks on the pool; workers with no queued task claim them. A call from
// one of the pool's own workers also claims chunks itself and then waits
// only for chunks already running on other threads, so nested loops (a
// loop body calling parallel_for, a sweep trial's node loops on the sweep
// pool) cannot deadlock: no thread ever waits on a chunk nobody runs.
// Queued tasks go before published chunks, so a pool full of work keeps
// running one task per worker, and idle workers help the running tasks'
// loops. Chunk boundaries depend only on the range, the grain and the
// pool size, never on which or how many threads run them.
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace skiptrain::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers. 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs fn(i) for i in [begin, end), partitioned into at most size()
  /// contiguous blocks, and blocks until completion. `grain` bounds the
  /// smallest block size (reduces scheduling overhead for cheap bodies).
  /// If a body throws, the remaining chunks still complete and the first
  /// exception is rethrown on the calling thread.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

  /// Templated overload: lambdas bind here instead of converting to
  /// std::function, so the body is invoked directly inside the chunk loop
  /// — type-erased dispatch happens once per CHUNK (the task queue),
  /// never per index. This is what the hot engine loops pay.
  template <typename Body>
    requires std::invocable<Body&, std::size_t>
  void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                    std::size_t grain = 1) {
    parallel_for_chunks(
        begin, end,
        [&body](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        },
        grain);
  }

  /// Like parallel_for but hands each worker a [chunk_begin, chunk_end)
  /// range, letting the body amortise per-chunk setup. `min_per_chunk`
  /// bounds the smallest chunk (fewer, larger chunks for cheap bodies).
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t min_per_chunk = 1);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Cumulative worker utilization telemetry. Busy time is wall-clock
  /// spent inside task bodies and helped chunks, summed over workers;
  /// idle time is the complement of busy over each worker's lifetime.
  /// helped_chunks counts the loop chunks workers claimed from another
  /// thread's parallel_for. Busy time and tasks_executed are tracked only
  /// while obs::enabled() (two clock reads per task or helped chunk);
  /// observational only, never read by scheduling decisions.
  struct PoolStats {
    std::size_t workers = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t tasks_executed = 0;
    std::uint64_t helped_chunks = 0;
  };
  [[nodiscard]] PoolStats stats() const {
    return PoolStats{workers_.size(),
                     busy_ns_.load(std::memory_order_relaxed),
                     tasks_executed_.load(std::memory_order_relaxed),
                     helped_chunks_.load(std::memory_order_relaxed)};
  }

  /// While an instance is alive, parallel_for / parallel_for_chunks on the
  /// calling thread run serially for EVERY pool, as one chunk on the
  /// calling thread. Tests, the benches and traced single-trial replays
  /// use it to time a loop body without helpers. Nests correctly.
  class ScopedForceSerial {
   public:
    ScopedForceSerial();
    ~ScopedForceSerial();
    ScopedForceSerial(const ScopedForceSerial&) = delete;
    ScopedForceSerial& operator=(const ScopedForceSerial&) = delete;

   private:
    bool previous_;
  };

  /// True when the calling thread is inside a ScopedForceSerial scope.
  static bool force_serial_active();

  /// Process-wide pool sized from SKIPTRAIN_THREADS (if set) or the
  /// hardware concurrency. Constructed on first use.
  static ThreadPool& global();

  /// The pool the calling thread works for, else global(). Library loops
  /// run here, so a loop called from a sweep worker is helped by that
  /// sweep pool's idle workers.
  static ThreadPool& current();

 private:
  struct Loop;

  void worker_loop();
  /// Claims the next chunk of `loop`; mutex_ held, a chunk left.
  std::size_t claim(Loop& loop);

  mutable std::mutex mutex_;
  std::queue<std::function<void()>> tasks_;  // guarded by mutex_
  std::vector<Loop*> loops_;  // guarded; loops with unclaimed chunks
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;  // guarded by mutex_
  bool stop_ = false;          // guarded by mutex_
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> helped_chunks_{0};
  std::vector<std::thread> workers_;  // last: workers use every member above
};

/// Convenience wrapper over ThreadPool::current().parallel_for.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

/// Templated convenience wrapper: keeps call sites free of per-index
/// std::function dispatch (see ThreadPool::parallel_for).
template <typename Body>
  requires std::invocable<Body&, std::size_t>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t grain = 1) {
  ThreadPool::current().parallel_for(begin, end, std::forward<Body>(body),
                                     grain);
}

}  // namespace skiptrain::util
