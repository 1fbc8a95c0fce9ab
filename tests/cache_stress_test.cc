// TSan-oriented stress tests for the newly thread-safe caches
// (registered under the ctest `stress` label): concurrent Get/Put on
// LruCache / LfuCache, and the KeyCentricCache shared across executor
// worker threads the way a real multi-worker BatchExecutor will share
// it. Assertions target invariants that survive any interleaving —
// capacity bounds, stats conservation, value integrity — not specific
// hit patterns.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/lfu_cache.h"
#include "cache/lru_cache.h"
#include "exec/key_centric_cache.h"
#include "util/thread_pool.h"

namespace svqa {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 2000;
constexpr std::size_t kCapacity = 64;

// Values encode their key so readers can detect torn/mismatched data.
template <typename Cache>
void HammerIntCache(Cache& cache) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key = (t * 31 + i * 7) % 200;
        if (i % 3 == 0) {
          cache.Put(key, key * 1000);
        } else {
          const auto hit = cache.Get(key);
          if (hit.has_value()) {
            ASSERT_EQ(*hit, key * 1000) << "value torn for key " << key;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_LE(cache.size(), kCapacity);
  const auto stats = cache.stats();
  // Every op is accounted exactly once: lookups from Get, inserts from
  // first-time Put (overwrites don't count, so <=).
  EXPECT_EQ(stats.lookups(),
            static_cast<uint64_t>(kThreads) * (kOpsPerThread -
                                               (kOpsPerThread + 2) / 3));
  EXPECT_LE(stats.inserts,
            static_cast<uint64_t>(kThreads) * ((kOpsPerThread + 2) / 3));
}

TEST(CacheStressTest, LruConcurrentGetPut) {
  cache::LruCache<int, int> cache(kCapacity);
  HammerIntCache(cache);
}

TEST(CacheStressTest, LfuConcurrentGetPut) {
  cache::LfuCache<int, int> cache(kCapacity);
  HammerIntCache(cache);
}

TEST(CacheStressTest, LruConcurrentClearAndResize) {
  // Clear racing Get/Put must neither crash nor leave size above cap.
  cache::LruCache<int, std::string> cache(32);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key = (t + i) % 100;
        cache.Put(key, std::string(16, static_cast<char>('a' + key % 26)));
        cache.Get((key * 3) % 100);
      }
    });
  }
  std::thread clearer([&cache, &stop] {
    while (!stop.load()) {
      cache.Clear();
      std::this_thread::yield();
    }
  });
  for (auto& th : workers) th.join();
  stop.store(true);
  clearer.join();
  EXPECT_LE(cache.size(), 32u);
}

TEST(CacheStressTest, KeyCentricCacheSharedAcrossPoolWorkers) {
  // The exact sharing pattern of the future parallel BatchExecutor: one
  // KeyCentricCache probed and filled by every pool worker.
  exec::KeyCentricCacheOptions options;
  options.capacity = 48;
  exec::KeyCentricCache shared(options);

  ThreadPool pool(kThreads);
  std::atomic<int> scope_hits{0};
  std::atomic<int> path_hits{0};
  pool.ParallelFor(
      static_cast<std::size_t>(kThreads * 200), [&](std::size_t i) {
        const std::string key = "elem-" + std::to_string(i % 64);
        auto scope = shared.GetScopeShared(key);
        if (scope.has_value()) {
          // Scope values encode their key index; detect cross-key bleed.
          ASSERT_EQ((*scope)->size(), 1u);
          ASSERT_EQ((**scope)[0], static_cast<graph::VertexId>(i % 64));
          scope_hits.fetch_add(1);
        } else {
          shared.PutScopeShared(
              key, std::make_shared<const std::vector<graph::VertexId>>(
                       1, static_cast<graph::VertexId>(i % 64)));
        }

        auto path = shared.GetPathShared(key);
        if (path.has_value()) {
          // Path values encode their key index too.
          ASSERT_EQ((*path)->size(), 1u);
          ASSERT_EQ((**path)[0].subject, static_cast<graph::VertexId>(i % 64));
          path_hits.fetch_add(1);
        } else {
          exec::RelationPair rp;
          rp.subject = static_cast<graph::VertexId>(i % 64);
          rp.object = static_cast<graph::VertexId>((i + 1) % 64);
          shared.PutPathShared(
              key, std::make_shared<const std::vector<exec::RelationPair>>(
                       1, rp));
        }
      });
  pool.WaitIdle();

  const auto scope_stats = shared.ScopeStats();
  const auto path_stats = shared.PathStats();
  EXPECT_EQ(scope_stats.lookups(),
            static_cast<uint64_t>(kThreads) * 200);
  EXPECT_EQ(path_stats.lookups(), static_cast<uint64_t>(kThreads) * 200);
  EXPECT_EQ(scope_stats.hits, static_cast<uint64_t>(scope_hits.load()));
  EXPECT_EQ(path_stats.hits, static_cast<uint64_t>(path_hits.load()));
  const auto total = shared.TotalStats();
  EXPECT_EQ(total.lookups(), scope_stats.lookups() + path_stats.lookups());
}

TEST(CacheStressTest, KeyCentricCacheStatsReadersRaceWriters) {
  exec::KeyCentricCache shared;
  std::atomic<bool> stop{false};
  std::thread reader([&shared, &stop] {
    while (!stop.load()) {
      const auto stats = shared.TotalStats();
      ASSERT_GE(stats.lookups(), stats.hits);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&shared, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string((t * 13 + i) % 128);
        if (!shared.GetScopeShared(key).has_value()) {
          shared.PutScopeShared(
              key, std::make_shared<const std::vector<graph::VertexId>>(
                       1, static_cast<graph::VertexId>(i)));
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();
}

}  // namespace
}  // namespace svqa
