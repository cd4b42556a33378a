#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"

namespace skiptrain::util {

namespace {
thread_local bool t_force_serial = false;
// The pool whose worker_loop runs on this thread; null off the workers.
thread_local ThreadPool* t_pool = nullptr;
}  // namespace

/// One parallel_for published on the pool. Lives on the caller's stack;
/// every field but the fixed partition is guarded by the pool's mutex_.
/// The caller returns only once all chunks are claimed and none is still
/// running, so a helper never touches a Loop after its last decrement.
struct ThreadPool::Loop {
  const std::function<void(std::size_t, std::size_t)>& fn;
  std::size_t begin;
  std::size_t base;       // every chunk holds base indices...
  std::size_t remainder;  // ...and the first `remainder` one more
  std::size_t num_chunks;
  std::size_t next = 0;     // next unclaimed chunk
  std::size_t running = 0;  // chunks claimed by helpers, not yet finished
  std::exception_ptr first_error{};
  std::condition_variable done{};

  /// Runs chunk c; the error it throws, if any, is returned, not raised.
  std::exception_ptr run(std::size_t c) const noexcept {
    const std::size_t lo = begin + c * base + std::min(c, remainder);
    const std::size_t hi = lo + base + (c < remainder ? 1 : 0);
    try {
      fn(lo, hi);
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }
  bool finished() const { return next == num_chunks && running == 0; }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
    depth = tasks_.size();
  }
  task_available_.notify_one();
  if (obs::enabled()) {
    // High-water mark of the task queue across every pool — a saturated
    // queue (depth >> workers) signals trial- or node-level imbalance.
    static const obs::Gauge queue_depth = obs::gauge("pool.queue_depth");
    queue_depth.set(static_cast<std::int64_t>(depth));
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::claim(Loop& loop) {
  const std::size_t c = loop.next++;
  if (loop.next == loop.num_chunks) std::erase(loops_, &loop);
  return c;
}

void ThreadPool::worker_loop() {
  t_pool = this;
  std::unique_lock lock(mutex_);
  for (;;) {
    // Re-checked under the lock after every wake-up: a loop's owner may
    // have claimed its last chunk in the meantime, and then the loop is
    // gone from loops_.
    task_available_.wait(lock, [this] {
      return stop_ || !tasks_.empty() || !loops_.empty();
    });
    const std::uint64_t start_ns = obs::enabled() ? obs::now_ns() : 0;
    if (!tasks_.empty()) {
      // Queued tasks go first, so a full queue still runs one per worker.
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop();
      lock.unlock();
      // A raw submit()ed task must not tear down the pool (or leak
      // in_flight_): log and keep serving. parallel_for chunks never
      // reach this — their errors are rethrown on the loop's caller.
      try {
        task();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[thread_pool] task threw: %s\n", e.what());
      } catch (...) {
        std::fprintf(stderr, "[thread_pool] task threw a non-std exception\n");
      }
      if (start_ns != 0) {
        busy_ns_.fetch_add(obs::now_ns() - start_ns, std::memory_order_relaxed);
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      }
      lock.lock();
      if (--in_flight_ == 0) all_done_.notify_all();
    } else if (!loops_.empty()) {
      // Help the oldest published loop with one chunk.
      Loop& loop = *loops_.front();
      const std::size_t c = claim(loop);
      ++loop.running;
      lock.unlock();
      std::exception_ptr error = loop.run(c);
      if (start_ns != 0) {
        busy_ns_.fetch_add(obs::now_ns() - start_ns, std::memory_order_relaxed);
      }
      helped_chunks_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      if (error && !loop.first_error) loop.first_error = std::move(error);
      --loop.running;
      // Notified under the lock: the owner cannot see finished() and
      // leave (destroying `loop`) before this thread lets go of mutex_.
      if (loop.finished()) loop.done.notify_one();
    } else {
      return;  // stop_
    }
  }
}

ThreadPool::ScopedForceSerial::ScopedForceSerial() : previous_(t_force_serial) {
  t_force_serial = true;
}

ThreadPool::ScopedForceSerial::~ScopedForceSerial() {
  t_force_serial = previous_;
}

bool ThreadPool::force_serial_active() { return t_force_serial; }

bool ThreadPool::on_worker_thread() const { return t_pool == this; }

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_per_chunk) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  // Chunk so every chunk carries at least min_per_chunk indices (grain):
  // cheap bodies get fewer, larger chunks instead of paying per-chunk
  // dispatch.
  const std::size_t max_chunks =
      std::max<std::size_t>(1, count / std::max<std::size_t>(1, min_per_chunk));
  const std::size_t num_chunks =
      t_force_serial ? 1 : std::min({count, workers_.size(), max_chunks});
  if (num_chunks <= 1) {
    fn(begin, end);
    return;
  }
  Loop loop{fn, begin, count / num_chunks, count % num_chunks, num_chunks};
  {
    std::lock_guard publish(mutex_);
    loops_.push_back(&loop);
  }
  task_available_.notify_all();
  std::unique_lock lock(mutex_);
  if (on_worker_thread()) {
    // Help-while-wait: this worker runs every chunk no helper has taken,
    // so it waits below only on chunks already running elsewhere. Other
    // callers leave every chunk to the workers, as a plain queue would.
    while (loop.next < loop.num_chunks) {
      const std::size_t c = claim(loop);
      lock.unlock();
      std::exception_ptr error = loop.run(c);
      lock.lock();
      if (error && !loop.first_error) loop.first_error = std::move(error);
    }
  }
  loop.done.wait(lock, [&loop] { return loop.finished(); });
  lock.unlock();
  if (loop.first_error) std::rethrow_exception(loop.first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    // Runs once under the static-local guard, before any pool worker
    // exists; nothing mutates the environment concurrently.
    if (const char* env = std::getenv("SKIPTRAIN_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    return std::size_t{0};
  }());
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_pool != nullptr ? *t_pool : global();
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  ThreadPool::current().parallel_for(begin, end, fn, grain);
}

}  // namespace skiptrain::util
