// Sharding machinery: the WorkerBudget token pool and run_shards, which
// must cover every shard exactly once for any budget (including an empty
// one). These are the primitives the sharded-experiment executor rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/worker_budget.h"

namespace hm::sim {
namespace {

TEST(WorkerBudget, GrantsWithinCapacity) {
  WorkerBudget b(4);
  EXPECT_EQ(b.capacity(), 4u);
  EXPECT_EQ(b.available(), 4u);
  EXPECT_EQ(b.acquire(3), 3u);
  EXPECT_EQ(b.available(), 1u);
  // Partial grant: only one token left.
  EXPECT_EQ(b.acquire(5), 1u);
  EXPECT_EQ(b.available(), 0u);
  EXPECT_EQ(b.acquire(1), 0u);
  b.release(4);
  EXPECT_EQ(b.available(), 4u);
}

TEST(WorkerBudget, ZeroCapacityGrantsNothing) {
  WorkerBudget b(0);
  EXPECT_EQ(b.acquire(8), 0u);
  EXPECT_EQ(b.acquire(0), 0u);
  EXPECT_EQ(b.available(), 0u);
}

TEST(WorkerBudget, SetCapacityReseeds) {
  WorkerBudget b(2);
  EXPECT_EQ(b.acquire(2), 2u);
  b.release(2);
  b.set_capacity(6);
  EXPECT_EQ(b.capacity(), 6u);
  EXPECT_EQ(b.acquire(6), 6u);
  b.release(6);
}

TEST(WorkerBudget, GrantRaiiReleasesOnScopeExit) {
  WorkerBudget b(3);
  {
    WorkerGrant g(b, 2);
    EXPECT_EQ(g.granted(), 2u);
    EXPECT_EQ(b.available(), 1u);
    WorkerGrant g2(b, 2);  // only one token remains
    EXPECT_EQ(g2.granted(), 1u);
    EXPECT_EQ(b.available(), 0u);
  }
  EXPECT_EQ(b.available(), 3u);
}

TEST(WorkerBudget, ConcurrentAcquireNeverOversubscribes) {
  WorkerBudget b(8);
  std::atomic<unsigned> total{0};
  std::atomic<unsigned> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const unsigned got = b.acquire(3);
        const unsigned now = total.fetch_add(got) + got;
        unsigned p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        total.fetch_sub(got);
        b.release(got);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(peak.load(), 8u);
  EXPECT_EQ(b.available(), 8u);
}

TEST(RunShards, CoversEveryShardExactlyOnce) {
  constexpr std::uint32_t kShards = 7;
  std::vector<std::atomic<int>> hits(kShards);
  const unsigned threads = run_shards(kShards, [&](std::uint32_t s) { hits[s].fetch_add(1); });
  EXPECT_GE(threads, 1u);
  EXPECT_LE(threads, kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) EXPECT_EQ(hits[s].load(), 1);
}

TEST(RunShards, CompletesOnCallerAloneWithEmptyBudget) {
  // Drain the process budget: run_shards must still complete (the caller
  // always participates; grants are a wall-clock concern only).
  WorkerBudget& global = WorkerBudget::instance();
  const unsigned saved = global.capacity();
  global.set_capacity(0);
  std::vector<std::atomic<int>> hits(4);
  const unsigned threads = run_shards(4, [&](std::uint32_t s) { hits[s].fetch_add(1); });
  global.set_capacity(saved);
  EXPECT_EQ(threads, 1u);  // the caller, alone
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_EQ(hits[s].load(), 1);
}

}  // namespace
}  // namespace hm::sim
