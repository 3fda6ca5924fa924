/// ShardPool semantics: FIFO fold queues (`Enqueue`/`DrainQueues`),
/// run-to-completion Shutdown, and the Enqueue decline protocol after
/// Shutdown.
#include "shard/shard_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace easeml::shard {
namespace {

TEST(ShardPoolTest, EnqueueRunsTasksInFifoOrderPerWorker) {
  constexpr int kWorkers = 3;
  constexpr int kTasksPerWorker = 50;
  ShardPool pool(kWorkers);
  std::vector<std::vector<int>> order(kWorkers);
  for (int i = 0; i < kTasksPerWorker; ++i) {
    for (int w = 0; w < kWorkers; ++w) {
      // `order` rows are written only by their owning worker; DrainQueues
      // publishes the writes before the reads below.
      EXPECT_TRUE(pool.Enqueue(w, [&order, w, i] { order[w].push_back(i); }));
    }
  }
  pool.DrainQueues();
  for (int w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(order[w].size(), static_cast<size_t>(kTasksPerWorker));
    for (int i = 0; i < kTasksPerWorker; ++i) EXPECT_EQ(order[w][i], i);
  }
}

TEST(ShardPoolTest, DrainQueuesIsANoOpWhenIdle) {
  ShardPool pool(2);
  pool.DrainQueues();  // must not block
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Enqueue(1, [&] { ++ran; }));
  pool.DrainQueues();
  EXPECT_EQ(ran.load(), 1);
  pool.DrainQueues();  // idempotent after the drain
  EXPECT_EQ(ran.load(), 1);
}

TEST(ShardPoolTest, ShutdownRunsEveryAcceptedTask) {
  ShardPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Enqueue(i % 2, [&] { ++ran; }));
  }
  // Accepted work must run-to-completion even when Shutdown lands while
  // the queues are still full.
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 200);
}

TEST(ShardPoolTest, ShutdownDeclinesNewWorkWithoutRunningIt) {
  ShardPool pool(2);
  pool.Shutdown();
  pool.Shutdown();  // idempotent
  bool ran = false;
  EXPECT_FALSE(pool.Enqueue(0, [&] { ran = true; }));
  EXPECT_FALSE(pool.Enqueue(1, [&] { ran = true; }));
  EXPECT_FALSE(ran);     // a declined task must never execute
  pool.DrainQueues();    // and an empty drain must not hang
}

TEST(ShardPoolTest, ConcurrentEnqueuersAllLandBeforeDrainReturns) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  ShardPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(pool.Enqueue((t + i) % 3, [&] { ++ran; }));
      }
    });
  }
  for (auto& t : threads) t.join();
  pool.DrainQueues();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace easeml::shard
