#include "src/harness/concurrent_replay.h"

#include <chrono>
#include <thread>

#include "src/common/hash.h"
#include "src/common/thread_annotations.h"

namespace fdpcache {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Counter-wise `after - before`, so a report covers exactly one run's traffic
// even when the cache has served earlier runs (or a warm-up) already.
ShardedCacheStats DiffStats(const ShardedCacheStats& after, const ShardedCacheStats& before) {
  ShardedCacheStats d;
  d.gets = after.gets - before.gets;
  d.sets = after.sets - before.sets;
  d.removes = after.removes - before.removes;
  d.ram_hits = after.ram_hits - before.ram_hits;
  d.nvm_lookups = after.nvm_lookups - before.nvm_lookups;
  d.nvm_hits = after.nvm_hits - before.nvm_hits;
  d.misses = after.misses - before.misses;
  d.shard_lock_acquisitions =
      after.shard_lock_acquisitions - before.shard_lock_acquisitions;
  d.ram_optimistic_retries =
      after.ram_optimistic_retries - before.ram_optimistic_retries;
  d.ram_lock_acquisitions =
      after.ram_lock_acquisitions - before.ram_lock_acquisitions;
  d.shard_ops.resize(after.shard_ops.size());
  for (size_t s = 0; s < after.shard_ops.size(); ++s) {
    d.shard_ops[s] = after.shard_ops[s] - (s < before.shard_ops.size() ? before.shard_ops[s] : 0);
  }
  // Per-QP and per-lane device stats carry the cumulative view (histograms
  // cannot be diffed); they describe the device since construction/reset,
  // not just this run — documented on ShardedCacheStats. pending_ops is a
  // gauge, so the end-of-run snapshot is the meaningful value.
  d.device_queue_pairs = after.device_queue_pairs;
  d.device_lanes = after.device_lanes;
  d.pending_ops = after.pending_ops;
  return d;
}

}  // namespace

ConcurrentReplayDriver::ConcurrentReplayDriver(ShardedCache* cache,
                                               const ConcurrentReplayConfig& config)
    : cache_(cache), config_(config) {}

void ConcurrentReplayDriver::WorkerBody(uint32_t thread_index, uint64_t num_ops,
                                        WorkerResult* result) {
  // Every thread replays its own deterministic stream: same run seed, same
  // workload seed, and same thread index = same ops, independent of
  // scheduling. The caller's workload.seed stays significant so presets
  // seeded differently produce different streams.
  KvWorkloadConfig workload = config_.workload;
  workload.seed = HashU64(config_.seed) ^ Mix64(workload.seed) ^ HashU64(thread_index);
  KvTraceGenerator generator(workload);

  if (config_.async_cache_queue_depth >= 1) {
    AsyncWorkerBody(generator, num_ops, result);
    return;
  }

  std::string value;
  for (uint64_t i = 0; i < num_ops; ++i) {
    const auto op = generator.Next();
    if (!op.has_value()) {
      break;
    }
    const std::string key = KeyString(op->key_id);
    switch (op->type) {
      case OpType::kGet: {
        const uint64_t start = NowNs();
        cache_->Get(key, &value);
        result->get_latency_ns.Record(NowNs() - start);
        break;
      }
      case OpType::kSet: {
        // Version 0 payload: all writers of a key produce identical bytes, so
        // concurrent readers can verify hits without extra coordination.
        const std::string payload = ValuePayload(op->key_id, 0, op->value_size);
        const uint64_t start = NowNs();
        cache_->Set(key, payload);
        result->set_latency_ns.Record(NowNs() - start);
        break;
      }
      case OpType::kDelete:
        cache_->Remove(key);
        break;
    }
    ++result->ops;
  }
}

void ConcurrentReplayDriver::AsyncWorkerBody(KvTraceGenerator& generator, uint64_t num_ops,
                                             WorkerResult* result) {
  // Sliding window of async_cache_queue_depth outstanding ops. Completions
  // fire on the cache's poller thread (or inline for RAM hits), so the
  // window counter and the latency histograms are guarded by one mutex.
  struct Window {
    // Outermost rank: the replay thread blocks on it with nothing held, and
    // the whole cache/device stack may be entered while a submitter waits
    // for a slot.
    fdp::Mutex mu{lock_rank::Make(lock_rank::kReplayWindow), "replay_window"};
    fdp::CondVar cv;
    uint32_t outstanding GUARDED_BY(mu) = 0;
  };
  Window window;
  const uint32_t depth = config_.async_cache_queue_depth;

  const auto acquire_slot = [&window, depth] {
    fdp::MutexLock lock(&window.mu);
    while (window.outstanding >= depth) {
      window.cv.Wait(&window.mu);
    }
    ++window.outstanding;
  };
  const auto release_slot = [&window](Histogram* latency, uint64_t start) {
    const uint64_t end = NowNs();
    fdp::MutexLock lock(&window.mu);
    if (latency != nullptr) {
      latency->Record(end - start);
    }
    --window.outstanding;
    window.cv.NotifyAll();
  };

  for (uint64_t i = 0; i < num_ops; ++i) {
    const auto op = generator.Next();
    if (!op.has_value()) {
      break;
    }
    const std::string key = KeyString(op->key_id);
    switch (op->type) {
      case OpType::kGet: {
        acquire_slot();
        const uint64_t start = NowNs();
        cache_->LookupAsync(key, [&release_slot, result, start](AsyncResult) {
          release_slot(&result->get_latency_ns, start);
        });
        break;
      }
      case OpType::kSet: {
        const std::string payload = ValuePayload(op->key_id, 0, op->value_size);
        acquire_slot();
        const uint64_t start = NowNs();
        cache_->InsertAsync(key, payload, [&release_slot, result, start](AsyncResult) {
          release_slot(&result->set_latency_ns, start);
        });
        break;
      }
      case OpType::kDelete: {
        acquire_slot();
        cache_->RemoveAsync(key, [&release_slot](AsyncResult) {
          release_slot(nullptr, 0);
        });
        break;
      }
    }
    ++result->ops;
  }
  // Wait out the tail of the window before the stack-allocated state goes
  // out of scope; every callback has fired once this returns.
  fdp::MutexLock lock(&window.mu);
  while (window.outstanding != 0) {
    window.cv.Wait(&window.mu);
  }
}

ConcurrentReplayReport ConcurrentReplayDriver::Run() {
  const uint32_t num_threads = config_.num_threads == 0 ? 1 : config_.num_threads;
  const uint64_t per_thread = config_.total_ops / num_threads;
  const ShardedCacheStats stats_before = cache_->Stats();

  std::vector<WorkerResult> results(num_threads);
  std::vector<std::thread> workers;
  workers.reserve(num_threads);

  const uint64_t wall_start = NowNs();
  for (uint32_t t = 0; t < num_threads; ++t) {
    const uint64_t ops = per_thread + (t == 0 ? config_.total_ops % num_threads : 0);
    workers.emplace_back([this, t, ops, &results] { WorkerBody(t, ops, &results[t]); });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  if (config_.async_cache_queue_depth >= 1) {
    // Eviction spills enqueued by the tail of the async window may still be
    // riding the device; the completion barrier makes the post-run stats
    // cover them (mirrors the sync path, where spills complete inline).
    cache_->Drain();
  }
  const uint64_t wall_end = NowNs();

  ConcurrentReplayReport report;
  report.elapsed_seconds = static_cast<double>(wall_end - wall_start) * 1e-9;
  for (const auto& result : results) {
    report.ops_executed += result.ops;
    report.per_thread_ops.push_back(result.ops);
    report.get_latency_ns.Merge(result.get_latency_ns);
    report.set_latency_ns.Merge(result.set_latency_ns);
  }
  report.throughput_ops_per_sec =
      report.elapsed_seconds > 0.0
          ? static_cast<double>(report.ops_executed) / report.elapsed_seconds
          : 0.0;
  report.cache = DiffStats(cache_->Stats(), stats_before);
  report.shard_imbalance = report.cache.ShardImbalance();
  return report;
}

ShardedSimBackend::ShardedSimBackend(const ShardedBackendConfig& config) {
  // Same zero-shard clamp as ShardedCache, so the factory below is never
  // called for a shard this backend did not provision.
  const uint32_t num_shards = config.num_shards == 0 ? 1 : config.num_shards;
  const uint32_t num_stacks = config.topology == BackendTopology::kPerShardDevice ? num_shards : 1;
  const uint32_t shards_per_stack = num_shards / num_stacks;
  DeviceStackConfig stack;
  stack.ssd = config.ssd;
  stack.queue.sq_depth = config.queue_depth;
  // One queue pair per shard, so every shard submits on its own SQ/CQ and
  // the device arbitrates across them.
  stack.queue.num_queue_pairs = shards_per_stack;
  stack.queue.exec_lanes = config.exec_lanes;
  stack.queue.lane_stripe_bytes = config.lane_stripe_bytes;
  // Shards split the logical capacity evenly, rounded down to whole pages.
  const uint64_t page = config.ssd.geometry.page_size_bytes;
  stack.partitions = shards_per_stack;
  stack.partition_bytes = LogicalCapacityBytes(config.ssd) / shards_per_stack / page * page;
  for (uint32_t i = 0; i < num_stacks; ++i) {
    stacks_.push_back(std::make_unique<DeviceStack>(stack));
  }

  // Shard i runs its engine pair inside partition i / num_stacks of stack
  // i % num_stacks, on that partition's queue pair, and draws its placement
  // handles from the stack's one allocator (so distinct shards land on
  // distinct RUHs until the device's handle count wraps).
  cache_ = std::make_unique<ShardedCache>(num_shards, [&](uint32_t shard_index) {
    DeviceStack& owner = *stacks_[shard_index % num_stacks];
    const uint32_t partition = shard_index / num_stacks;
    HybridCacheConfig shard_config = config.cache;
    shard_config.navy.base_offset = partition * owner.partition_bytes();
    shard_config.navy.size_bytes = owner.partition_bytes();
    shard_config.navy.queue_pair = partition;
    shard_config.navy.loc_inflight_regions = config.loc_inflight_regions;
    shard_config.navy.soc_inflight_writes = config.soc_inflight_writes;
    return std::make_unique<HybridCache>(&owner.device(), shard_config, &owner.allocator());
  });
  for (auto& owner : stacks_) {
    cache_->AttachDevice(&owner->device());
  }
}

ShardedSimBackend::~ShardedSimBackend() {
  // Shards hold buffers the device queues may still be reading; drain before
  // anything is torn down.
  if (cache_ != nullptr) {
    cache_->Flush();
  }
}

}  // namespace fdpcache
