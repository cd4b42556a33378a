#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace skiptrain::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(0, touched.size(),
                    [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForPartialRange) {
  ThreadPool pool(2);
  std::vector<int> touched(100, 0);
  pool.parallel_for(10, 20, [&](std::size_t i) { touched[i] = 1; });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i], (i >= 10 && i < 20) ? 1 : 0);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleElementRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(3, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 3u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ChunksPartitionRange) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard lock(mutex);
    chunks.emplace_back(lo, hi);
  });
  std::size_t covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 100u);
  EXPECT_LE(chunks.size(), 3u);
}

TEST(ThreadPool, NestedParallelForFromCallerCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    // Re-entrant call from a worker must not deadlock.
    pool.parallel_for(0, 10, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 40);
}

/// A bounded rendezvous: arrive() returns once `needed` threads arrived
/// or the deadline passed, so a broken pool fails a test instead of
/// hanging it.
class Rendezvous {
 public:
  explicit Rendezvous(int needed) : needed_(needed) {}
  void arrive() {
    std::unique_lock lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(10),
                 [this] { return arrived_ >= needed_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  const int needed_;
};

TEST(ThreadPool, LoopFromWorkerIsHelpedByIdleWorkers) {
  ThreadPool pool(4);
  Rendezvous both(2);
  std::mutex mutex;
  std::set<std::thread::id> ran_on;
  pool.submit([&] {
    pool.parallel_for_chunks(0, 4, [&](std::size_t, std::size_t) {
      {
        std::lock_guard lock(mutex);
        ran_on.insert(std::this_thread::get_id());
      }
      // The caller's first chunk waits here until a helper has claimed
      // another one: with 3 idle workers that takes microseconds.
      both.arrive();
    });
  });
  pool.wait_idle();
  EXPECT_GE(ran_on.size(), 2u);
  EXPECT_GE(pool.stats().helped_chunks, 1u);
}

TEST(ThreadPool, TinyLoopsFromWorkersWithIdleHelpersStress) {
  // Owners usually claim every chunk before a woken helper gets the lock,
  // so this drives the helper's claimed-out-after-wake path thousands of
  // times (run it under TSan).
  ThreadPool pool(4);
  constexpr int kLoops = 4000;
  constexpr std::size_t kRange = 6;
  std::vector<std::atomic<long>> totals(2);
  for (std::size_t t = 0; t < totals.size(); ++t) {
    pool.submit([&, t] {
      for (int loop = 0; loop < kLoops; ++loop) {
        pool.parallel_for(0, kRange, [&](std::size_t i) {
          totals[t].fetch_add(static_cast<long>(i) + 1);
        });
      }
    });
  }
  pool.wait_idle();
  for (const auto& total : totals) {
    EXPECT_EQ(total.load(), kLoops * 21L);  // 1 + 2 + ... + 6
  }
}

TEST(ThreadPool, HelperExceptionIsRethrownOnCallingWorker) {
  ThreadPool pool(2);
  Rendezvous helper_started(2);
  std::atomic<bool> caught{false};
  std::atomic<bool> helper_threw{false};
  pool.submit([&] {
    const auto owner = std::this_thread::get_id();
    try {
      pool.parallel_for_chunks(0, 2, [&](std::size_t, std::size_t) {
        helper_started.arrive();
        if (std::this_thread::get_id() != owner) {
          helper_threw = true;
          throw std::runtime_error("helper boom");
        }
      });
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "helper boom";
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(helper_threw.load());
  EXPECT_TRUE(caught.load());
  // The pool keeps serving: tasks, and loops from workers and the caller.
  std::atomic<int> after{0};
  pool.submit([&] {
    pool.parallel_for(0, 10, [&](std::size_t) { after.fetch_add(1); });
  });
  pool.wait_idle();
  pool.parallel_for(0, 10, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 20);
}

TEST(ThreadPool, NestedLoopsFromWorkersCoverEveryIndexOnce) {
  constexpr std::size_t kOuter = 7;
  constexpr std::size_t kInner = 13;
  for (const std::size_t workers : {1, 2, 4}) {
    ThreadPool pool(workers);
    // One task per worker, plus one queued, so helpers, owners and the
    // queue all interleave.
    const std::size_t tasks = workers + 1;
    std::vector<std::atomic<int>> hits(tasks * kOuter * kInner);
    for (std::size_t t = 0; t < tasks; ++t) {
      pool.submit([&, t] {
        pool.parallel_for(0, kOuter, [&](std::size_t i) {
          pool.parallel_for(0, kInner, [&](std::size_t j) {
            hits[(t * kOuter + i) * kInner + j].fetch_add(1);
          });
        });
      });
    }
    pool.wait_idle();
    for (std::size_t k = 0; k < hits.size(); ++k) {
      ASSERT_EQ(hits[k].load(), 1) << "workers " << workers << " index " << k;
    }
  }
}

TEST(ThreadPool, CurrentIsTheWorkersPoolElseGlobal) {
  ThreadPool pool(2);
  EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
  std::atomic<ThreadPool*> seen{nullptr};
  pool.submit([&] { seen = &ThreadPool::current(); });
  pool.wait_idle();
  EXPECT_EQ(seen.load(), &pool);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long> values(10000);
  std::iota(values.begin(), values.end(), 0L);
  std::atomic<long> parallel_sum{0};
  pool.parallel_for(0, values.size(), [&](std::size_t i) {
    parallel_sum.fetch_add(values[i]);
  });
  const long serial_sum = std::accumulate(values.begin(), values.end(), 0L);
  EXPECT_EQ(parallel_sum.load(), serial_sum);
}

TEST(ThreadPool, OnWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<bool> detected{false};
  pool.submit([&] { detected = pool.on_worker_thread(); });
  pool.wait_idle();
  EXPECT_TRUE(detected.load());
}

TEST(ThreadPool, SizeMatchesConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ParallelForRethrowsBodyExceptionOnCaller) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          executed.fetch_add(1);
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable: the counter reached zero (no deadlock) and a
  // follow-up loop completes normally.
  std::atomic<int> after{0};
  pool.parallel_for(0, 10, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 10);
  EXPECT_GT(executed.load(), 0);
}

TEST(ThreadPool, ScopedForceSerialPinsLoopsToCallingThread) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::force_serial_active());
  const auto self = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(16);
  {
    ThreadPool::ScopedForceSerial guard;
    EXPECT_TRUE(ThreadPool::force_serial_active());
    // Even a foreign pool's parallel_for must stay on this thread.
    pool.parallel_for(0, ran_on.size(), [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
    {
      ThreadPool::ScopedForceSerial nested;  // nests and restores correctly
      EXPECT_TRUE(ThreadPool::force_serial_active());
    }
    EXPECT_TRUE(ThreadPool::force_serial_active());
  }
  EXPECT_FALSE(ThreadPool::force_serial_active());
  for (const auto id : ran_on) EXPECT_EQ(id, self);
}

TEST(ThreadPool, ScopedForceSerialKeepsWorkersLoopOnItsThread) {
  ThreadPool pool(4);
  std::vector<std::thread::id> ran_on(16);
  std::thread::id worker;
  pool.submit([&] {
    worker = std::this_thread::get_id();
    const ThreadPool::ScopedForceSerial serial;
    pool.parallel_for(0, ran_on.size(), [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
  });
  pool.wait_idle();
  for (const auto id : ran_on) EXPECT_EQ(id, worker);
  EXPECT_EQ(pool.stats().helped_chunks, 0u);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  parallel_for(0, 50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace skiptrain::util
