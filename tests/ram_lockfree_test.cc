// Torture tests for the lock-free RamCache read path (seqlock buckets,
// epoch-deferred reclamation). Run under TSan in CI: readers race writers
// and evictions on a deliberately tiny cache (4 buckets, long chains, heavy
// budget pressure), and every read is validated for self-consistency — an
// immutable node can never yield a torn value, so any key/payload mismatch
// is a real synchronization bug.

#include "src/cache/ram_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/epoch_reclaim.h"

namespace fdpcache {
namespace {

// Payload carries the key and a sequence number twice, so a reader can
// detect both cross-key mixups and intra-value tears:
//   "<key>#<seq>#<pad of 'a'+seq%26>#<seq>"
std::string MakePayload(const std::string& key, uint64_t seq) {
  std::string value = key;
  value += '#';
  value += std::to_string(seq);
  value += '#';
  value.append(40, static_cast<char>('a' + (seq % 26)));
  value += '#';
  value += std::to_string(seq);
  return value;
}

// Returns the payload's sequence number, or ~0ull when the payload is not a
// well-formed record for `key` (torn or cross-wired read).
uint64_t ValidatePayload(const std::string& key, const std::string& value) {
  constexpr uint64_t kBad = ~0ull;
  const size_t first = value.find('#');
  if (first == std::string::npos || value.substr(0, first) != key) return kBad;
  const size_t second = value.find('#', first + 1);
  const size_t third = value.find('#', second + 1);
  if (second == std::string::npos || third == std::string::npos) return kBad;
  const std::string seq_a = value.substr(first + 1, second - first - 1);
  const std::string seq_b = value.substr(third + 1);
  if (seq_a != seq_b) return kBad;
  const uint64_t seq = std::stoull(seq_a);
  const char pad = static_cast<char>('a' + (seq % 26));
  for (size_t i = second + 1; i < third; ++i) {
    if (value[i] != pad) return kBad;
  }
  return seq;
}

TEST(RamLockfreeTest, ReaderOnlyPhaseAcquiresNoLocks) {
  RamCache cache(1 << 20, /*num_buckets=*/8);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("key-" + std::to_string(i));
    ASSERT_TRUE(cache.Put(keys.back(), MakePayload(keys.back(), 0)));
  }

  // Writers done: snapshot the lock counter, then hammer Get from many
  // threads. The lock-free contract says a hit takes no mutex, so the
  // counter must come back EXACTLY flat — this is the acceptance assertion
  // for "RamCache::Get on a hit acquires no mutex".
  const uint64_t locks_before = cache.stats().lock_acquisitions;
  const uint64_t retries_before = cache.stats().optimistic_retries;

  constexpr int kReaders = 8;
  constexpr int kReadsPerThread = 20000;
  std::atomic<uint64_t> bad_reads{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::string value;
      for (int i = 0; i < kReadsPerThread; ++i) {
        const std::string& key = keys[(t * 31 + i) % keys.size()];
        if (cache.Get(key, &value)) {
          hits.fetch_add(1);
          if (ValidatePayload(key, value) == ~0ull) bad_reads.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  // Nothing evicts or removes during the phase, so every Get hits.
  EXPECT_EQ(hits.load(), static_cast<uint64_t>(kReaders) * kReadsPerThread);
  const RamCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lock_acquisitions, locks_before);
  // No writers -> no seqlock invalidations either.
  EXPECT_EQ(stats.optimistic_retries, retries_before);
}

TEST(RamLockfreeTest, TortureReadersVsWritersAndEviction) {
  // Tiny cache: 4 buckets force multi-node chains; the budget holds only
  // ~24 of the 32 keys, so writers continuously evict (deferred
  // reclamation churns) while readers walk the chains lock-free.
  constexpr int kKeys = 32;
  const uint64_t item_bytes = 6 + MakePayload("key-00", 0).size() +
                              RamCache::kPerItemOverhead;
  RamCache cache(24 * item_bytes, /*num_buckets=*/4);
  std::atomic<uint64_t> evictions{0};
  cache.set_eviction_callback(
      [&](std::string_view, std::string_view) { evictions.fetch_add(1); });

  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "%02d", i);
    keys.push_back(std::string("key-") + buf);
  }

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kWritesPerThread = 8000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_reads{0};
  // last_seq[k]: highest sequence number ever Put for keys[k]; 1-writer-
  // per-key-slice makes the final value checkable (no lost updates).
  std::vector<std::atomic<uint64_t>> last_seq(kKeys);

  // Readers start first, and writers hold until every reader has finished
  // a Get: otherwise the writers can be done before any reader walks a
  // bucket, leaving the seqlock-retry check below nothing to observe.
  std::atomic<int> readers_started{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::string value;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& key = keys[(r * 13 + i++) % kKeys];
        if (cache.Get(key, &value) && ValidatePayload(key, value) == ~0ull) {
          bad_reads.fetch_add(1);
        }
        if (i == 1) {
          readers_started.fetch_add(1);
        }
      }
    });
  }

  // Past their quota, writers go on in rounds until some reader has
  // retried, up to a deadline: on an oversubscribed host the quota can pass
  // while no reader is on a CPU.
  constexpr int kWritesPerRound = 1000;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto readers_retried = [&] {
    return cache.stats().optimistic_retries > 0 || std::chrono::steady_clock::now() > deadline;
  };
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (readers_started.load() < kReaders) {
        std::this_thread::yield();
      }
      // Each writer owns keys where index % kWriters == w (single writer
      // per key; writers still collide on buckets and the eviction index).
      uint64_t seq = 1;
      int i = 0;
      do {
        for (const int round_end = i + kWritesPerRound; i < round_end; ++i) {
          const int k = (w + kWriters * i) % kKeys;
          if (i % 97 == 96) {
            cache.Remove(keys[k]);
          } else {
            ASSERT_TRUE(cache.Put(keys[k], MakePayload(keys[k], seq)));
            last_seq[k].store(seq);
            ++seq;
          }
        }
      } while (i < kWritesPerThread || !readers_retried());
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  // No torn or cross-wired reads, ever.
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(evictions.load(), 0u);

  // No lost updates: every surviving key holds the LAST value its (sole)
  // writer put. A key may legitimately be absent (evicted or removed).
  std::string value;
  for (int k = 0; k < kKeys; ++k) {
    if (!cache.Get(keys[k], &value)) continue;
    const uint64_t seq = ValidatePayload(keys[k], value);
    ASSERT_NE(seq, ~0ull) << keys[k] << " held torn value " << value;
    EXPECT_EQ(seq, last_seq[k].load())
        << keys[k] << " lost its final update";
  }

  const RamCacheStats stats = cache.stats();
  // Writers serialized per bucket and on the eviction index: locks moved.
  EXPECT_GT(stats.lock_acquisitions, 0u);
  if (std::thread::hardware_concurrency() >= 2) {
    // With real parallelism, readers must have hit seqlock invalidation windows
    // (every update/remove/evict bumps a bucket version while readers walk
    // 4 buckets continuously). On a single hardware thread the preemption
    // windows make this likely but not certain, so only assert when the
    // machine can actually run a reader and a writer at once.
    EXPECT_GT(stats.optimistic_retries, 0u);
  }

  // With writers quiesced and no reader in a critical section, deferred
  // reclamation must fully drain (each Reap advances the global epoch, so
  // at most a few rounds age everything out).
  for (int i = 0; i < 8 && cache.deferred_nodes() > 0; ++i) {
    cache.ReapDeferred();
  }
  EXPECT_EQ(cache.deferred_nodes(), 0u);
}

TEST(RamLockfreeTest, ConcurrentDistinctInsertsAllSurvive) {
  RamCache cache(8 << 20, /*num_buckets=*/16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(cache.Put(key, MakePayload(key, 7)));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(cache.size(), static_cast<size_t>(kThreads) * kPerThread);
  std::string value;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(cache.Get(key, &value)) << key;
      EXPECT_EQ(ValidatePayload(key, value), 7u);
    }
  }
}

TEST(RamLockfreeTest, ActiveReaderBlocksReclamation) {
  RamCache cache(1 << 20, /*num_buckets=*/4);
  ASSERT_TRUE(cache.Put("pinned", MakePayload("pinned", 1)));
  {
    // Simulate a reader parked mid-walk: announce an epoch, then retire the
    // node. The grace rule (retire + 2 <= min active epoch) must pin it in
    // limbo until the guard exits.
    EpochRegistry::ReadGuard guard;
    ASSERT_TRUE(cache.Remove("pinned"));
    ASSERT_EQ(cache.deferred_nodes(), 1u);
    for (int i = 0; i < 4; ++i) cache.ReapDeferred();
    EXPECT_EQ(cache.deferred_nodes(), 1u) << "freed under an active reader";
  }
  for (int i = 0; i < 4 && cache.deferred_nodes() > 0; ++i) {
    cache.ReapDeferred();
  }
  EXPECT_EQ(cache.deferred_nodes(), 0u);
}

TEST(RamLockfreeTest, RetryCounterAdvancesUnderForcedInvalidation) {
  // Seqlock exercise: one writer thread updates a single key in a 1-bucket
  // cache while a reader probes a MISSING key in the same bucket. Every
  // probe of the missing key must validate the version; probes overlapping
  // an unlink retry. The probes start only once the writer is running and
  // stop at the first retry or a wall deadline, so a loaded machine that
  // schedules the writer late cannot end the loop before the race begins.
  RamCache cache(1 << 20, /*num_buckets=*/1);
  std::atomic<bool> stop{false};
  std::atomic<bool> writing{false};
  std::thread writer([&] {
    uint64_t seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      cache.Put("hot", MakePayload("hot", seq++));  // Update = unlink+insert.
      writing.store(true, std::memory_order_release);
    }
  });
  while (!writing.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string value;
  while (cache.stats().optimistic_retries == 0 && std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 1000; ++i) {
      cache.Get("absent", &value);
    }
  }
  stop.store(true);
  writer.join();
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_GT(cache.stats().optimistic_retries, 0u);
  }
}

TEST(RamLockfreeTest, SameKeyPutRemoveRaceWithReaperKeepsIndexSound) {
  // A putter and a remover race on the same 8 keys while a third thread
  // reaps limbo nonstop. The budget holds 6 of the 8 items, so the putter's
  // own Puts evict through the index. A node must never be unlinked and
  // retired between its link and its eviction-index entry: if it could, the
  // reaper would free it while its Put still writes the index (a
  // use-after-free under ASan), and the index would keep a dangling entry
  // for a later eviction to dereference.
  constexpr int kKeys = 8;
  constexpr int kPuts = 100000;
  const std::string value(48, 'v');
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back("same-key-" + std::to_string(i));
  const uint64_t item_bytes = keys[0].size() + value.size() + RamCache::kPerItemOverhead;
  RamCache cache(6 * item_bytes, /*num_buckets=*/4);

  std::atomic<bool> stop{false};
  std::thread remover([&] {
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      cache.Remove(keys[i % kKeys]);
    }
  });
  std::thread reaper([&] {
    while (!stop.load(std::memory_order_relaxed)) cache.ReapDeferred();
  });
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(cache.Put(keys[i % kKeys], value));
    ASSERT_LE(cache.used_bytes(), cache.budget_bytes());
  }
  stop.store(true);
  remover.join();
  reaper.join();

  // Chains, byte count and index still agree: removing every key empties
  // the cache, and a refill evicts through an index with no stale entries.
  for (const std::string& key : keys) cache.Remove(key);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  const uint64_t evictions_before = cache.stats().evictions;
  for (int i = 0; i < 4 * kKeys; ++i) ASSERT_TRUE(cache.Put(keys[i % kKeys], value));
  // Cycling 8 keys through room for 6 misses every time past the first 6.
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache.stats().evictions - evictions_before, 4u * kKeys - 6u);
  for (int i = 0; i < 4 && cache.deferred_nodes() > 0; ++i) cache.ReapDeferred();
  EXPECT_EQ(cache.deferred_nodes(), 0u);
}

TEST(RamLockfreeTest, PutReclaimsInBoundedBatches) {
  // Single-threaded updates: every Put retires one node. Once limbo reaches
  // kReapThreshold, each Put frees at most kReapBatch of the oldest nodes
  // (and at least the one it retired), so limbo stays just above the
  // threshold and no single write frees the whole list.
  constexpr int kKeys = 512;
  constexpr int kUpdates = 100000;
  RamCache cache(64 << 20, /*num_buckets=*/64);
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("update-key-" + std::to_string(i));
    ASSERT_TRUE(cache.Put(keys.back(), MakePayload(keys.back(), 0)));
  }
  ASSERT_EQ(cache.deferred_nodes(), 0u);
  size_t largest_drop = 0;
  size_t peak = 0;
  for (int i = 0; i < kUpdates; ++i) {
    const size_t before = cache.deferred_nodes();
    const std::string& key = keys[i % kKeys];
    ASSERT_TRUE(cache.Put(key, MakePayload(key, static_cast<uint64_t>(i) + 1)));
    const size_t after = cache.deferred_nodes();
    if (after < before) largest_drop = std::max(largest_drop, before - after);
    peak = std::max(peak, after);
  }
  EXPECT_LE(largest_drop, RamCache::kReapBatch);
  EXPECT_GT(largest_drop, 0u) << "updates never reclaimed anything";
  EXPECT_LT(peak, RamCache::kReapThreshold + RamCache::kReapBatch);
  EXPECT_GE(peak, RamCache::kReapThreshold);

  // A Put that retires more than a batch (one large insert evicting many
  // small items) frees at least as many as it retired: limbo does not grow.
  RamCache small(64 * (14 + 16 + RamCache::kPerItemOverhead), /*num_buckets=*/16);
  for (int i = 0; i < 4000; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "small-%08d", i % 64);
    ASSERT_TRUE(small.Put(key, std::string(16, 's')));
  }
  // Steady state: limbo cycles between threshold - batch and threshold.
  ASSERT_GE(small.deferred_nodes(), RamCache::kReapThreshold - RamCache::kReapBatch);
  const size_t limbo_before = small.deferred_nodes();
  const uint64_t evicted_before = small.stats().evictions;
  // Needs the room of ~17 small items: more than a batch, fewer than the
  // nodes already past their grace period.
  ASSERT_TRUE(small.Put("large", std::string(16 * (30 + RamCache::kPerItemOverhead), 'L')));
  ASSERT_GT(small.stats().evictions - evicted_before, RamCache::kReapBatch);
  EXPECT_LE(small.deferred_nodes(), limbo_before);
}

TEST(RamLockfreeTest, ReaderOnHighestClaimedSlotPinsReclamation) {
  // Reclaimers scan reader slots only up to the highest slot ever claimed.
  // Park filler threads on the lowest free slots, then start a reader that
  // must claim a slot above all of them and beyond any earlier high-water
  // mark; the node it may see must stay in limbo until it leaves.
  constexpr int kFillers = 40;
  std::atomic<int> claimed{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> fillers;
  for (int i = 0; i < kFillers; ++i) {
    fillers.emplace_back([&] {
      { EpochRegistry::ReadGuard claim; }  // Claims a slot for this thread's life.
      claimed.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  while (claimed.load() < kFillers) std::this_thread::yield();

  RamCache cache(1 << 20, /*num_buckets=*/4);
  ASSERT_TRUE(cache.Put("pinned", MakePayload("pinned", 1)));
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    EpochRegistry::ReadGuard guard;
    reading.store(true);
    while (!done.load()) std::this_thread::yield();
  });
  while (!reading.load()) std::this_thread::yield();

  ASSERT_TRUE(cache.Remove("pinned"));
  ASSERT_EQ(cache.deferred_nodes(), 1u);
  for (int i = 0; i < 4; ++i) cache.ReapDeferred();
  EXPECT_EQ(cache.deferred_nodes(), 1u) << "freed under a reader on the highest slot";
  EXPECT_GE(EpochRegistry::Instance().ActiveReaders(), 1u);

  done.store(true);
  reader.join();
  for (int i = 0; i < 4 && cache.deferred_nodes() > 0; ++i) cache.ReapDeferred();
  EXPECT_EQ(cache.deferred_nodes(), 0u);
  release.store(true);
  for (auto& t : fillers) t.join();
}

}  // namespace
}  // namespace fdpcache
