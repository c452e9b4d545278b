// ThreadPool: deterministic chunking, full coverage of the index range,
// reentrancy (nested ParallelFor), concurrent use from many threads, and the
// Post task queue (every posted task runs exactly once, including while
// ParallelFor helpers come and go, and at destruction).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace xfrag {
namespace {

TEST(ThreadPoolChunksTest, PartitionIsContiguousAndBalanced) {
  for (size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 100u, 1013u}) {
    for (unsigned parts : {1u, 2u, 3u, 4u, 8u, 16u}) {
      auto chunks = ThreadPool::Chunks(n, parts);
      if (n == 0) {
        EXPECT_TRUE(chunks.empty());
        continue;
      }
      ASSERT_FALSE(chunks.empty());
      EXPECT_LE(chunks.size(), static_cast<size_t>(parts));
      EXPECT_LE(chunks.size(), n);
      // Contiguous cover of [0, n) with near-equal sizes.
      size_t expect_begin = 0;
      size_t min_len = n, max_len = 0;
      for (const auto& [begin, end] : chunks) {
        EXPECT_EQ(begin, expect_begin);
        ASSERT_LT(begin, end);
        min_len = std::min(min_len, end - begin);
        max_len = std::max(max_len, end - begin);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, n);
      EXPECT_LE(max_len - min_len, 1u);
    }
  }
}

TEST(ThreadPoolChunksTest, PartitionIsDeterministic) {
  auto a = ThreadPool::Chunks(1013, 7);
  auto b = ThreadPool::Chunks(1013, 7);
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (unsigned parallelism : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(parallelism);
    EXPECT_EQ(pool.parallelism(), std::max(parallelism, 1u));
    const size_t n = 10007;
    std::vector<std::atomic<int>> visits(n);
    pool.ParallelFor(n, [&](unsigned, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkIndicesMatchStaticPartition) {
  ThreadPool pool(4);
  const size_t n = 37;
  auto expected = ThreadPool::Chunks(n, pool.parallelism());
  std::mutex mutex;
  std::vector<std::pair<size_t, size_t>> seen(expected.size(), {0, 0});
  pool.ParallelFor(n, [&](unsigned chunk, size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_LT(chunk, seen.size());
    seen[chunk] = {begin, end};
  });
  EXPECT_EQ(seen, expected);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](unsigned, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A chunk body issuing its own ParallelFor on the same pool must complete
  // (the waiting thread helps drain the queue). Exercised with fewer OS
  // threads than logical chunks.
  ThreadPool pool(2);
  const size_t outer = 8, inner = 64;
  std::vector<std::atomic<int>> counts(outer * inner);
  pool.ParallelFor(outer, [&](unsigned, size_t begin, size_t end) {
    for (size_t o = begin; o < end; ++o) {
      pool.ParallelFor(inner, [&, o](unsigned, size_t ib, size_t ie) {
        for (size_t i = ib; i < ie; ++i) counts[o * inner + i].fetch_add(1);
      });
    }
  });
  for (auto& c : counts) ASSERT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  const size_t n = 4096;
  std::vector<std::vector<std::atomic<int>>> visits(kCallers);
  for (auto& v : visits) {
    v = std::vector<std::atomic<int>>(n);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(n, [&, c](unsigned, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) visits[c][i].fetch_add(1);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, PerChunkAccumulatorsMergeToSerialTotal) {
  // The merged-at-the-barrier pattern the parallel kernels rely on.
  const size_t n = 100000;
  uint64_t serial = 0;
  for (size_t i = 0; i < n; ++i) serial += i * i;
  ThreadPool pool(8);
  std::vector<uint64_t> partial(pool.parallelism(), 0);
  pool.ParallelFor(n, [&](unsigned chunk, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) partial[chunk] += i * i;
  });
  uint64_t merged = std::accumulate(partial.begin(), partial.end(), 0ull);
  EXPECT_EQ(merged, serial);
}

/// Counts finished posted tasks; tests wait on it with a bound, never a
/// sleep, so a stranded task fails the test instead of hanging it.
class DoneCounter {
 public:
  void Add() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    cv_.notify_all();
  }
  bool WaitFor(int want) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(60),
                        [&] { return done_ >= want; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int done_ = 0;
};

TEST(ThreadPoolPostTest, PostStormWhileNestedParallelForsComeAndGo) {
  // Post wakes one thread, and that thread may be a ParallelFor helper whose
  // own loop is just finishing. Posters storm the queue while other threads
  // run short nested ParallelFors, so helpers enter and leave their wait
  // throughout the storm; every posted task must still run exactly once.
  constexpr int kPosters = 3;
  constexpr int kPostsEach = 2000;
  constexpr int kTotal = kPosters * kPostsEach;
  constexpr int kLoopers = 2;
  constexpr int kRounds = 40;
  std::vector<std::atomic<int>> runs(kTotal);
  DoneCounter done;
  std::atomic<bool> nested_ok{true};
  ThreadPool pool(4);

  std::vector<std::thread> threads;
  for (int l = 0; l < kLoopers; ++l) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<int> visits{0};
        pool.ParallelFor(4, [&](unsigned, size_t begin, size_t end) {
          for (size_t o = begin; o < end; ++o) {
            pool.ParallelFor(32, [&](unsigned, size_t ib, size_t ie) {
              visits.fetch_add(static_cast<int>(ie - ib));
            });
          }
        });
        if (visits.load() != 4 * 32) nested_ok.store(false);
      }
    });
  }
  for (int p = 0; p < kPosters; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPostsEach; ++i) {
        const int id = p * kPostsEach + i;
        pool.Post([&, id] {
          runs[id].fetch_add(1);
          done.Add();
        });
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_TRUE(done.WaitFor(kTotal)) << "a posted task was stranded";
  EXPECT_TRUE(nested_ok.load());
  for (int id = 0; id < kTotal; ++id) {
    ASSERT_EQ(runs[id].load(), 1) << "task " << id;
  }
}

TEST(ThreadPoolPostTest, PostFromInsideAParallelForChunk) {
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  DoneCounter done;
  ThreadPool pool(4);
  pool.ParallelFor(kTasks, [&](unsigned, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      pool.Post([&, i] {
        runs[i].fetch_add(1);
        done.Add();
      });
    }
  });
  ASSERT_TRUE(done.WaitFor(kTasks));
  for (int i = 0; i < kTasks; ++i) ASSERT_EQ(runs[i].load(), 1) << i;
}

TEST(ThreadPoolPostTest, DestructionDrainsQueuedTasks) {
  // The only worker is held by a gate task, so the counting tasks are still
  // queued when destruction begins; the exiting worker must run them all.
  constexpr int kQueued = 100;
  std::atomic<int> ran{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto pool = std::make_unique<ThreadPool>(2);
  pool->Post([gate] { gate.wait(); });
  for (int i = 0; i < kQueued; ++i) {
    pool->Post([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 0);
  std::thread destroyer([&] { pool.reset(); });
  release.set_value();
  destroyer.join();
  EXPECT_EQ(ran.load(), kQueued);
}

}  // namespace
}  // namespace xfrag
