// ShardedCache tests: stable hash routing, cross-shard stat aggregation,
// eviction spill under the shard lock, and multi-threaded smoke (run under
// ASan/UBSan or TSan in CI).
#include "src/cache/sharded_cache.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/harness/concurrent_replay.h"
#include "src/workload/workload.h"

namespace fdpcache {
namespace {

SsdConfig SmallSsdConfig() {
  SsdConfig config;
  config.geometry.pages_per_block = 16;
  config.geometry.planes_per_die = 2;
  config.geometry.num_dies = 4;
  config.geometry.num_superblocks = 16;
  config.op_fraction = 0.15;
  return config;
}

HybridCacheConfig ShardConfig(uint64_t ram_bytes) {
  HybridCacheConfig config;
  config.ram_bytes = ram_bytes;
  config.navy.small_item_max_bytes = 1024;
  config.navy.soc_fraction = 0.10;
  config.navy.loc_region_size = 128 * 1024;
  return config;
}

// Per-shard topology with synchronous flash writes (the PR 1 deployment
// shape these tests were written against).
ShardedBackendConfig PerShardConfig(uint32_t num_shards, uint64_t ram_bytes_per_shard) {
  ShardedBackendConfig config;
  config.num_shards = num_shards;
  config.topology = BackendTopology::kPerShardDevice;
  config.ssd = SmallSsdConfig();
  config.cache = ShardConfig(ram_bytes_per_shard);
  config.loc_inflight_regions = 0;
  config.soc_inflight_writes = 0;
  return config;
}

TEST(ShardedCacheRoutingTest, StableAndInRange) {
  for (const uint32_t shards : {1u, 2u, 7u, 16u}) {
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "key" + std::to_string(i);
      const uint32_t index = ShardedCache::ShardIndexFor(key, shards);
      EXPECT_LT(index, shards);
      // Pure function of (key, num_shards): repeated calls agree.
      EXPECT_EQ(index, ShardedCache::ShardIndexFor(key, shards));
    }
  }
}

TEST(ShardedCacheRoutingTest, UsesEveryShard) {
  const uint32_t shards = 8;
  std::set<uint32_t> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(ShardedCache::ShardIndexFor("key" + std::to_string(i), shards));
  }
  EXPECT_EQ(seen.size(), shards);
}

class ShardedCacheTest : public ::testing::Test {
 protected:
  void Build(uint32_t num_shards, uint64_t ram_bytes_per_shard) {
    backend_ = std::make_unique<ShardedSimBackend>(PerShardConfig(num_shards, ram_bytes_per_shard));
  }

  ShardedCache& cache() { return backend_->cache(); }

  std::unique_ptr<ShardedSimBackend> backend_;
};

TEST_F(ShardedCacheTest, InstanceRoutingMatchesStaticFormula) {
  Build(8, 1 << 20);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(cache().ShardIndexOf(key), ShardedCache::ShardIndexFor(key, 8));
  }
}

TEST_F(ShardedCacheTest, GetSetRemoveRoundTrip) {
  Build(4, 1 << 20);
  cache().Set("k", "v");
  std::string value;
  ASSERT_TRUE(cache().Get("k", &value));
  EXPECT_EQ(value, "v");
  cache().Remove("k");
  EXPECT_FALSE(cache().Get("k", &value));
}

TEST_F(ShardedCacheTest, OpsLandOnTheRoutedShardOnly) {
  Build(4, 1 << 20);
  cache().Set("solo-key", "v");
  const uint32_t home = cache().ShardIndexOf("solo-key");
  for (uint32_t s = 0; s < cache().num_shards(); ++s) {
    EXPECT_EQ(cache().shard(s).stats().sets, s == home ? 1u : 0u);
  }
}

TEST_F(ShardedCacheTest, StatsAggregateAcrossShards) {
  Build(4, 1 << 20);
  for (int i = 0; i < 500; ++i) {
    cache().Set("key" + std::to_string(i), std::string(100, 'v'));
  }
  std::string value;
  for (int i = 0; i < 500; ++i) {
    cache().Get("key" + std::to_string(i), &value);
  }
  for (int i = 0; i < 100; ++i) {
    cache().Get("absent" + std::to_string(i), &value);
  }
  cache().Remove("key0");

  const ShardedCacheStats stats = cache().Stats();
  EXPECT_EQ(stats.sets, 500u);
  EXPECT_EQ(stats.gets, 600u);
  EXPECT_EQ(stats.removes, 1u);
  EXPECT_EQ(stats.misses, 100u);
  EXPECT_EQ(stats.ram_hits + stats.nvm_hits, 500u);

  // The snapshot equals the sum of the per-shard stats it mirrors.
  uint64_t shard_gets = 0;
  uint64_t shard_sets = 0;
  uint64_t total_ops = 0;
  ASSERT_EQ(stats.shard_ops.size(), cache().num_shards());
  for (uint32_t s = 0; s < cache().num_shards(); ++s) {
    shard_gets += cache().shard(s).stats().gets;
    shard_sets += cache().shard(s).stats().sets;
    total_ops += stats.shard_ops[s];
  }
  EXPECT_EQ(stats.gets, shard_gets);
  EXPECT_EQ(stats.sets, shard_sets);
  EXPECT_EQ(total_ops, stats.gets + stats.sets + stats.removes);
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 500.0 / 600.0);
}

TEST_F(ShardedCacheTest, ResetStatsClearsAggregatesAndMirrors) {
  Build(2, 1 << 20);
  cache().Set("k", "v");
  std::string value;
  cache().Get("k", &value);
  cache().ResetStats();
  const ShardedCacheStats stats = cache().Stats();
  EXPECT_EQ(stats.gets, 0u);
  EXPECT_EQ(stats.sets, 0u);
  EXPECT_EQ(stats.removes, 0u);
  for (const uint64_t ops : stats.shard_ops) {
    EXPECT_EQ(ops, 0u);
  }
}

TEST_F(ShardedCacheTest, EvictionSpillsToFlashUnderShardLock) {
  Build(4, 2048);  // Tiny DRAM per shard: a few small items each.
  for (int i = 0; i < 400; ++i) {
    cache().Set("key" + std::to_string(i), std::string(200, 'a' + i % 26));
  }
  // Early keys were evicted from their shard's DRAM (spilling to that
  // shard's flash, inside the shard lock) and must still be readable.
  std::string value;
  ASSERT_TRUE(cache().Get("key0", &value));
  EXPECT_EQ(value, std::string(200, 'a'));
  const ShardedCacheStats stats = cache().Stats();
  EXPECT_GT(stats.nvm_hits + stats.ram_hits, 0u);
  uint64_t evictions = 0;
  for (uint32_t s = 0; s < cache().num_shards(); ++s) {
    evictions += cache().shard(s).ram().stats().evictions;
  }
  EXPECT_GT(evictions, 0u);
}

TEST_F(ShardedCacheTest, ShardImbalanceNearOneForUniformKeys) {
  Build(8, 1 << 20);
  for (int i = 0; i < 20000; ++i) {
    cache().Set("key" + std::to_string(i), "v");
  }
  EXPECT_LT(cache().Stats().ShardImbalance(), 1.25);
  EXPECT_GE(cache().Stats().ShardImbalance(), 1.0);
}

// The satellite-required smoke test: 4 threads issuing a mixed
// Get/Set/Remove stream against a shared 8-shard cache. Values are a pure
// function of the key, so any hit can be integrity-checked without
// cross-thread coordination. Run under ASan/UBSan or TSan in CI.
TEST_F(ShardedCacheTest, MultithreadedMixedSmoke) {
  Build(8, 16 * 1024);
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;
  constexpr uint64_t kKeySpace = 2000;

  auto value_for = [](uint64_t key_id) {
    return ValuePayload(key_id, 0, static_cast<uint32_t>(100 + key_id % 700));
  };

  std::vector<std::thread> workers;
  std::vector<uint64_t> bad_hits(kThreads, 0);
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t, &bad_hits, &value_for] {
      Rng rng(1000 + t);
      std::string value;
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key_id = rng.NextBelow(kKeySpace);
        const std::string key = KeyString(key_id);
        const int choice = static_cast<int>(rng.NextBelow(100));
        if (choice < 45) {
          cache().Set(key, value_for(key_id));
        } else if (choice < 50) {
          cache().Remove(key);
        } else {
          if (cache().Get(key, &value) && value != value_for(key_id)) {
            ++bad_hits[t];
          }
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }

  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad_hits[t], 0u) << "thread " << t << " observed corrupt values";
  }
  const ShardedCacheStats stats = cache().Stats();
  EXPECT_EQ(stats.gets + stats.sets + stats.removes, kThreads * kOpsPerThread);
  uint64_t shard_op_total = 0;
  for (const uint64_t ops : stats.shard_ops) {
    shard_op_total += ops;
  }
  EXPECT_EQ(shard_op_total, kThreads * kOpsPerThread);
  // Every shard's device-level invariants must hold after concurrent traffic.
  for (uint32_t s = 0; s < backend_->num_shards(); ++s) {
    EXPECT_EQ(backend_->shard_ssd(s).ftl().CheckInvariants(), "") << "shard " << s;
  }
}

// --- Shared-device topology: all shards over ONE SSD ------------------------

ShardedBackendConfig SharedConfig(uint32_t num_shards) {
  ShardedBackendConfig config;
  config.num_shards = num_shards;
  config.topology = BackendTopology::kSharedDevice;
  // One device big enough for every shard: 64 superblocks (128 MiB), with
  // enough OP to keep all 8 RUHs' open reclaim units covered.
  config.ssd.geometry.pages_per_block = 16;
  config.ssd.geometry.planes_per_die = 2;
  config.ssd.geometry.num_dies = 4;
  config.ssd.geometry.num_superblocks = 64;
  config.ssd.op_fraction = 0.20;
  config.cache = ShardConfig(16 * 1024);
  return config;
}

TEST(SharedDeviceBackendTest, OneDeviceServesEveryShard) {
  ShardedSimBackend backend(SharedConfig(4));
  EXPECT_EQ(backend.num_shards(), 4u);
  EXPECT_EQ(backend.num_devices(), 1u);
  ShardedCache& cache = backend.cache();
  for (int i = 0; i < 200; ++i) {
    cache.Set("key" + std::to_string(i), std::string(64, 'v'));
  }
  std::string value;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cache.Get("key" + std::to_string(i), &value)) << i;
  }
  // Every shard saw traffic, and all of it hit the same device.
  const ShardedCacheStats stats = cache.Stats();
  for (const uint64_t ops : stats.shard_ops) {
    EXPECT_GT(ops, 0u);
  }
}

TEST(SharedDeviceBackendTest, ShardsGetDistinctPlacementHandles) {
  ShardedSimBackend backend(SharedConfig(4));
  // 4 shards x {SOC, LOC} = 8 engines on an 8-RUH device: every engine gets
  // its own reclaim unit handle from the one shared allocator.
  std::set<PlacementHandle> handles;
  for (uint32_t s = 0; s < backend.num_shards(); ++s) {
    handles.insert(backend.cache().shard(s).navy().soc_handle());
    handles.insert(backend.cache().shard(s).navy().loc_handle());
  }
  EXPECT_EQ(handles.size(), 8u);
  EXPECT_EQ(handles.count(kNoPlacement), 0u);
}

TEST(SharedDeviceBackendTest, ShardsRideDistinctQueuePairsAndPerQpStatsSurface) {
  ShardedSimBackend backend(SharedConfig(4));
  // Auto queue-pair topology: one SQ/CQ per shard on the one shared device.
  EXPECT_EQ(backend.device(0).num_queue_pairs(), 4u);
  ShardedCache& cache = backend.cache();
  for (int i = 0; i < 800; ++i) {
    cache.Set("key" + std::to_string(i), std::string(600, 'q'));
  }
  cache.Flush();  // Seal + retire + drain every queue pair.

  const ShardedCacheStats stats = cache.Stats();
  ASSERT_EQ(stats.device_queue_pairs.size(), 4u);
  const DeviceStats device = backend.device(0).stats();
  uint64_t qp_writes = 0;
  uint64_t qp_write_bytes = 0;
  uint64_t qp_latency_count = 0;
  uint32_t qps_with_traffic = 0;
  for (const QueuePairStats& qp : stats.device_queue_pairs) {
    qp_writes += qp.writes;
    qp_write_bytes += qp.write_bytes;
    qp_latency_count += qp.write_latency_ns.Count();
    qps_with_traffic += qp.writes > 0 ? 1 : 0;
  }
  // Per-QP stats sum to the aggregate DeviceStats on the quiesced device.
  EXPECT_EQ(qp_writes, device.writes);
  EXPECT_EQ(qp_write_bytes, device.write_bytes);
  EXPECT_EQ(qp_latency_count, device.write_latency_ns.Count());
  // Every shard spilled to flash, so more than one queue pair carried writes.
  EXPECT_GT(qps_with_traffic, 1u);
}

// Execution lanes behind the shared device's arbiter: the backend knob wires
// through, lane stats surface in ShardedCacheStats, and every arbitrated
// request went through exactly one lane.
TEST(SharedDeviceBackendTest, ExecutionLanesWireThroughBackendAndSurfaceInStats) {
  ShardedBackendConfig config = SharedConfig(4);
  config.exec_lanes = 2;
  config.lane_stripe_bytes = 64 * 1024;
  ShardedSimBackend backend(config);
  ShardedCache& cache = backend.cache();
  for (int i = 0; i < 800; ++i) {
    cache.Set("key" + std::to_string(i), std::string(600, 'q'));
  }
  std::string value;
  for (int i = 0; i < 800; ++i) {
    cache.Get("key" + std::to_string(i), &value);
  }
  cache.Flush();

  const ShardedCacheStats stats = cache.Stats();
  ASSERT_EQ(stats.device_lanes.size(), 2u);
  uint64_t lane_dispatches = 0;
  for (const LaneStats& lane : stats.device_lanes) {
    EXPECT_GT(lane.dispatches, 0u);
    EXPECT_GT(lane.busy_ns, 0u);
    lane_dispatches += lane.dispatches;
  }
  uint64_t qp_dispatches = 0;
  for (const QueuePairStats& qp : stats.device_queue_pairs) {
    qp_dispatches += qp.dispatched;
  }
  EXPECT_EQ(lane_dispatches, qp_dispatches);

  // Lanes off: no lane stats, same cache behaviour.
  ShardedSimBackend inline_backend(SharedConfig(4));
  inline_backend.cache().Set("k", "v");
  inline_backend.cache().Flush();
  EXPECT_TRUE(inline_backend.cache().Stats().device_lanes.empty());
}

// The shared-device counterpart of MultithreadedMixedSmoke: 4 threads of
// mixed Get/Set/Remove over 4 shards whose async flash writes all interleave
// on ONE SSD. Values are a pure function of the key, so hits are
// integrity-checked; after quiescing, the device's FTL invariants and the
// per-RUH isolation property must hold. Run under ASan/UBSan and TSan in CI.
TEST(SharedDeviceBackendTest, ConcurrentMixedSmokeKeepsRuhIsolation) {
  ShardedSimBackend backend(SharedConfig(4));
  ShardedCache& cache = backend.cache();
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;
  constexpr uint64_t kKeySpace = 2000;

  auto value_for = [](uint64_t key_id) {
    return ValuePayload(key_id, 0, static_cast<uint32_t>(100 + key_id % 700));
  };

  std::vector<std::thread> workers;
  std::vector<uint64_t> bad_hits(kThreads, 0);
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t, &bad_hits, &value_for] {
      Rng rng(2000 + t);
      std::string value;
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key_id = rng.NextBelow(kKeySpace);
        const std::string key = KeyString(key_id);
        const int choice = static_cast<int>(rng.NextBelow(100));
        if (choice < 45) {
          cache.Set(key, value_for(key_id));
        } else if (choice < 50) {
          cache.Remove(key);
        } else {
          if (cache.Get(key, &value) && value != value_for(key_id)) {
            ++bad_hits[t];
          }
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad_hits[t], 0u) << "thread " << t << " observed corrupt values";
  }

  // Quiesce: seal + retire every async write, drain the device queue, then
  // inspect the one SSD under all four shards.
  cache.Flush();
  backend.device(0).Drain();
  const Ftl& ftl = backend.shard_ssd(0).ftl();
  EXPECT_EQ(ftl.CheckInvariants(), "");
  const uint32_t num_rus = backend.shard_ssd(0).config().geometry.num_superblocks;
  for (uint32_t ru = 0; ru < num_rus; ++ru) {
    const ReclaimUnitInfo& info = ftl.ru_info(ru);
    if (info.state == RuState::kFree || info.is_gc_destination || info.owner < 0) {
      continue;
    }
    // A host stream's reclaim unit only ever holds that stream's data: the
    // shards' distinct handles kept their writes apart on shared media.
    EXPECT_LE(ftl.RuOriginMixCount(ru), 1u) << "ru " << ru << " mixes origins";
  }

  const ShardedCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.gets + stats.sets + stats.removes, kThreads * kOpsPerThread);
  EXPECT_GT(backend.device(0).stats().writes, 0u);
}

TEST(SharedDeviceBackendTest, ReplayDriverRunsOnSharedTopology) {
  ShardedSimBackend backend(SharedConfig(4));
  ConcurrentReplayConfig config;
  config.num_threads = 3;
  config.total_ops = 15'000;
  config.workload = KvWorkloadConfig::MetaKvCache();
  config.workload.num_keys = 5'000;
  ConcurrentReplayDriver driver(&backend.cache(), config);
  const ConcurrentReplayReport report = driver.Run();
  EXPECT_EQ(report.ops_executed, config.total_ops);
  EXPECT_EQ(report.cache.gets + report.cache.sets + report.cache.removes, config.total_ops);
  backend.cache().Flush();
  backend.device(0).Drain();
  EXPECT_EQ(backend.shard_ssd(0).ftl().CheckInvariants(), "");
}

// Fewer logical pages than shards leaves every shard an empty partition: a
// provisioning error the caller can catch, not an abort.
TEST(SharedDeviceBackendTest, DeviceWithFewerPagesThanShardsThrows) {
  ShardedBackendConfig config = SharedConfig(64);
  config.ssd.geometry.planes_per_die = 1;
  config.ssd.geometry.num_dies = 1;
  config.ssd.geometry.num_superblocks = 4;  // 64 pages, 51 of them logical.
  EXPECT_THROW({ ShardedSimBackend backend(config); }, std::runtime_error);
}

TEST(ConcurrentReplayDriverTest, ExecutesAllOpsAndMergesHistograms) {
  ShardedSimBackend backend(PerShardConfig(4, 256 * 1024));
  ConcurrentReplayConfig config;
  config.num_threads = 3;
  config.total_ops = 30'001;  // Remainder lands on thread 0.
  config.workload = KvWorkloadConfig::MetaKvCache();
  config.workload.num_keys = 20'000;
  ConcurrentReplayDriver driver(&backend.cache(), config);
  const ConcurrentReplayReport report = driver.Run();

  EXPECT_EQ(report.ops_executed, config.total_ops);
  ASSERT_EQ(report.per_thread_ops.size(), 3u);
  EXPECT_EQ(report.per_thread_ops[0], 10'001u);
  EXPECT_GT(report.throughput_ops_per_sec, 0.0);
  EXPECT_GT(report.elapsed_seconds, 0.0);

  // Merged histograms cover exactly the timed ops; driver counters agree
  // with the cache's own aggregate view.
  const ShardedCacheStats stats = report.cache;
  EXPECT_EQ(report.get_latency_ns.Count(), stats.gets);
  EXPECT_EQ(report.set_latency_ns.Count(), stats.sets);
  EXPECT_EQ(stats.gets + stats.sets + stats.removes, config.total_ops);
  EXPECT_GE(report.shard_imbalance, 1.0);

  // Run() is repeatable: the second report covers only the second run's
  // traffic (counter deltas), so the same invariants hold again.
  const ConcurrentReplayReport second = driver.Run();
  EXPECT_EQ(second.ops_executed, config.total_ops);
  EXPECT_EQ(second.get_latency_ns.Count(), second.cache.gets);
  EXPECT_EQ(second.cache.gets + second.cache.sets + second.cache.removes, config.total_ops);
}

TEST(ConcurrentReplayDriverTest, SameSeedSameStreamCounts) {
  ConcurrentReplayConfig config;
  config.num_threads = 2;
  config.total_ops = 10'000;
  config.workload.num_keys = 5'000;

  auto run = [&config] {
    ShardedSimBackend backend(PerShardConfig(2, 256 * 1024));
    ConcurrentReplayDriver driver(&backend.cache(), config);
    return driver.Run();
  };
  const ConcurrentReplayReport a = run();
  const ConcurrentReplayReport b = run();
  // Deterministic per-thread streams: identical op mixes run to run. (Hit
  // counts may differ — thread interleaving orders Gets against Sets.)
  EXPECT_EQ(a.cache.gets, b.cache.gets);
  EXPECT_EQ(a.cache.sets, b.cache.sets);
  EXPECT_EQ(a.cache.removes, b.cache.removes);
}

}  // namespace
}  // namespace fdpcache
