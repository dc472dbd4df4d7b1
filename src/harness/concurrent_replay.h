// Concurrent replay driver: M worker threads over a ShardedCache.
//
// Each worker owns a deterministic per-thread op stream (a KvTraceGenerator
// whose Rng is seeded from the run seed and the thread index), issues its
// partition of the total ops against the shared sharded cache, and records
// wall-clock per-op latencies into thread-local histograms. After the
// workers join, the histograms are merged and reported together with
// throughput (ops/s) and shard-imbalance metrics — the concurrent
// counterpart of ExperimentRunner, which drives each tenant's cache on a
// virtual clock.
//
// ShardedSimBackend builds the simulated device(s) beneath the cache with
// DeviceStack, the builder ExperimentRunner uses too.
#ifndef SRC_HARNESS_CONCURRENT_REPLAY_H_
#define SRC_HARNESS_CONCURRENT_REPLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/sharded_cache.h"
#include "src/common/histogram.h"
#include "src/harness/device_stack.h"
#include "src/ssd/ssd.h"
#include "src/workload/workload.h"

namespace fdpcache {

struct ConcurrentReplayConfig {
  uint32_t num_threads = 4;
  // Total operations across all threads, split evenly (thread 0 absorbs the
  // remainder).
  uint64_t total_ops = 1'000'000;
  KvWorkloadConfig workload = KvWorkloadConfig::MetaKvCache();
  uint64_t seed = 42;
  // Async-API window. 0 (default) = the blocking Set/Get/Remove API (the
  // legacy replay). N >= 1 = the async API: each worker keeps up to N cache
  // operations outstanding (issued with LookupAsync/InsertAsync/RemoveAsync,
  // completions counted when the callback fires), so the replay exercises
  // QD > 1 from the cache tier down. Latencies then measure submit-to-
  // callback time. N == 1 pays the async round-trip at depth one — the
  // baseline for cache-QD scaling studies, NOT a sync-path equivalent
  // (which is why this knob is named differently from
  // ExperimentConfig::cache_queue_depth, where <= 1 selects the blocking
  // path).
  uint32_t async_cache_queue_depth = 0;
};

struct ConcurrentReplayReport {
  uint64_t ops_executed = 0;
  double elapsed_seconds = 0.0;       // Wall clock, first worker start to last join.
  double throughput_ops_per_sec = 0.0;

  // Aggregated cache counters plus per-shard op counts (for imbalance),
  // covering this run's traffic only (counter deltas across the run), so
  // repeated Run() calls each get a self-consistent report.
  ShardedCacheStats cache;
  double shard_imbalance = 1.0;

  // Merged across all worker threads; values are wall-clock nanoseconds.
  Histogram get_latency_ns;
  Histogram set_latency_ns;

  std::vector<uint64_t> per_thread_ops;
};

class ConcurrentReplayDriver {
 public:
  // `cache` must outlive the driver and is the only object shared between
  // workers.
  ConcurrentReplayDriver(ShardedCache* cache, const ConcurrentReplayConfig& config);

  // Runs the replay to completion and returns the merged report. May be
  // called repeatedly (each run re-derives the same per-thread streams).
  ConcurrentReplayReport Run();

 private:
  struct WorkerResult {
    uint64_t ops = 0;
    Histogram get_latency_ns;
    Histogram set_latency_ns;
  };

  void WorkerBody(uint32_t thread_index, uint64_t num_ops, WorkerResult* result);
  // The async_cache_queue_depth >= 1 replay loop: async API with a sliding
  // window of outstanding operations per worker.
  void AsyncWorkerBody(KvTraceGenerator& generator, uint64_t num_ops, WorkerResult* result);

  ShardedCache* cache_;
  ConcurrentReplayConfig config_;
};

// Device topology beneath the shards.
enum class BackendTopology : uint8_t {
  // All shards share ONE simulated SSD through one SimSsdDevice: each shard
  // gets a page-aligned byte-range partition of the device, its own
  // placement handles, and its own device queue pair (the device arbitrates
  // across the SQs), so cross-shard FDP streams genuinely interleave on the
  // same NAND geometry — the deployment shape the paper measures.
  kSharedDevice,
  // One private SSD stack per shard (PR 1 behaviour): no cross-shard device
  // interference; useful for front-end scaling studies.
  kPerShardDevice,
};

struct ShardedBackendConfig {
  uint32_t num_shards = 4;
  BackendTopology topology = BackendTopology::kSharedDevice;
  // Whole-device config in shared mode; per-shard device config otherwise.
  SsdConfig ssd;
  // Per-shard cache config. The backend overrides `cache.navy.base_offset`,
  // `size_bytes` and `queue_pair` with the shard's partition and queue pair.
  HybridCacheConfig cache;
  // Per-queue-pair submission-ring capacity (queue-depth knob for the async
  // pipeline; Submit blocks once this many requests are outstanding on one
  // queue pair).
  uint32_t queue_depth = 256;
  // Parallel execution lanes behind the arbiter (0 = inline dispatcher
  // execution; see IoQueueConfig::exec_lanes). Applied to every device this
  // backend builds.
  uint32_t exec_lanes = 0;
  uint64_t lane_stripe_bytes = 256 * 1024;
  // Async flash-write pipelining per shard (applied to cache.navy); the
  // concurrent backend defaults both on, unlike the single-threaded driver.
  uint32_t loc_inflight_regions = 2;
  uint32_t soc_inflight_writes = 8;
};

// Owns the simulated-SSD stack(s) beneath a ShardedCache, built by
// DeviceStack: one stack for every shard (kSharedDevice) or one per shard
// (kPerShardDevice). Each stack gets one queue pair per shard it serves, and
// each shard a partition of its stack's device and a queue pair of its own.
// Throws std::runtime_error when a device cannot hold its shards.
class ShardedSimBackend {
 public:
  explicit ShardedSimBackend(const ShardedBackendConfig& config);
  ~ShardedSimBackend();

  ShardedCache& cache() { return *cache_; }
  uint32_t num_shards() const { return cache_->num_shards(); }
  uint32_t num_devices() const { return static_cast<uint32_t>(stacks_.size()); }

  // The SSD beneath shard `index` (the single shared SSD in kSharedDevice
  // mode). Callers must quiesce first (ShardedCache::Flush + Device::Drain)
  // — inspection is unsynchronized with in-flight I/O by design.
  SimulatedSsd& shard_ssd(uint32_t index) { return *stacks_[index % stacks_.size()]->ssd(); }
  Device& device(uint32_t index) { return stacks_[index % stacks_.size()]->device(); }

 private:
  std::vector<std::unique_ptr<DeviceStack>> stacks_;
  std::unique_ptr<ShardedCache> cache_;
};

}  // namespace fdpcache

#endif  // SRC_HARNESS_CONCURRENT_REPLAY_H_
