// Concurrent demo: serve a Zipf KV workload from a sharded hybrid cache with
// multiple worker threads — all shards sharing ONE simulated FDP SSD through
// the async submission/completion device queue — then inspect aggregate
// stats, per-shard balance, merged latency percentiles, and the shared
// device's FDP telemetry.
//
// Build & run:  ./build/examples/concurrent_demo
#include <cstdio>
#include <thread>
#include <vector>

#include "src/harness/concurrent_replay.h"
#include "src/harness/report.h"

int main() {
  using namespace fdpcache;

  // 1. Four shards over ONE shared simulated FDP SSD (128 MiB physical,
  //    8 RUHs): each shard gets a byte-range partition plus its own SOC/LOC
  //    placement handles, so 4 shards x 2 engines fill all 8 reclaim unit
  //    handles. Flash writes are pipelined (async seals / bucket rewrites)
  //    through the device submission queue.
  ShardedBackendConfig config;
  config.num_shards = 4;
  config.topology = BackendTopology::kSharedDevice;
  config.ssd.geometry.pages_per_block = 16;
  config.ssd.geometry.planes_per_die = 2;
  config.ssd.geometry.num_dies = 4;
  config.ssd.geometry.num_superblocks = 64;
  config.ssd.op_fraction = 0.20;  // 8 open RUHs pin 8 RUs; OP must cover them.
  config.cache.ram_bytes = 512 * 1024;
  config.cache.navy.small_item_max_bytes = 1024;
  config.cache.navy.soc_fraction = 0.10;
  config.cache.navy.loc_region_size = 128 * 1024;
  config.queue_depth = 64;
  // Two execution lanes behind the arbiter: disjoint shard partitions
  // execute concurrently; the conflict tracker keeps each shard's
  // overlapping writes (e.g. SOC bucket rewrites) in submission order.
  config.exec_lanes = 2;
  config.lane_stripe_bytes = 128 * 1024;  // One LOC region per stripe.

  ShardedSimBackend backend(config);
  ShardedCache& cache = backend.cache();

  // 2. The cache API is HybridCache-shaped, just thread-safe.
  cache.Set("user:42:name", "ada lovelace");
  std::string value;
  const bool hit = cache.Get("user:42:name", &value);
  std::printf("get user:42:name -> %s (routed to shard %u of %u, %u device(s))\n\n",
              hit ? value.c_str() : "miss", cache.ShardIndexOf("user:42:name"),
              cache.num_shards(), backend.num_devices());

  // 3. Replay a read-heavy Zipf workload with 4 worker threads, each with its
  //    own deterministic op stream, all funnelling flash I/O into the one
  //    shared submission queue.
  ConcurrentReplayConfig replay;
  replay.num_threads = 4;
  replay.total_ops = 400'000;
  replay.workload = KvWorkloadConfig::MetaKvCache();
  replay.workload.num_keys = 100'000;
  ConcurrentReplayDriver driver(&cache, replay);
  const ConcurrentReplayReport report = driver.Run();

  std::printf("%s\n\n", SummarizeConcurrentReport("replay", report).c_str());
  std::printf("threads: %u (on %u hardware threads), elapsed %.2fs, %.1f kops/s\n",
              replay.num_threads, std::thread::hardware_concurrency(),
              report.elapsed_seconds, report.throughput_ops_per_sec / 1000.0);
  std::printf("hit ratio: %.1f%% (ram+nvm), nvm hit ratio: %.1f%%\n",
              report.cache.HitRatio() * 100.0, report.cache.NvmHitRatio() * 100.0);
  std::printf("get latency: p50=%.1fus p99=%.1fus   set latency: p50=%.1fus p99=%.1fus\n",
              report.get_latency_ns.Percentile(50.0) / 1000.0,
              report.get_latency_ns.Percentile(99.0) / 1000.0,
              report.set_latency_ns.Percentile(50.0) / 1000.0,
              report.set_latency_ns.Percentile(99.0) / 1000.0);

  // 4. The same replay through the asynchronous cache API: each worker keeps
  //    8 cache ops outstanding, flash lookups park on device tokens with the
  //    shard lock released, and callbacks fire from the completion poller.
  ConcurrentReplayConfig async_replay = replay;
  async_replay.total_ops = 100'000;
  async_replay.async_cache_queue_depth = 8;
  const ConcurrentReplayReport async_report =
      ConcurrentReplayDriver(&cache, async_replay).Run();
  std::printf("\nasync replay (cache-qd=%u): %.1f kops/s, hit ratio %.1f%%, "
              "get p99=%.1fus (submit-to-callback)\n",
              async_replay.async_cache_queue_depth, async_report.throughput_ops_per_sec / 1000.0,
              async_report.cache.HitRatio() * 100.0,
              async_report.get_latency_ns.Percentile(99.0) / 1000.0);

  // 5. Hash routing spreads the keyspace across shards; imbalance is
  //    max-shard ops over the mean (1.0 = perfect).
  std::printf("\nshard balance (imbalance=%.2f):\n", report.shard_imbalance);
  for (uint32_t s = 0; s < cache.num_shards(); ++s) {
    std::printf("  shard %u: %llu ops, ram %s used, soc handle %u, loc handle %u\n", s,
                static_cast<unsigned long long>(report.cache.shard_ops[s]),
                FormatBytes(cache.shard(s).ram().used_bytes()).c_str(),
                cache.shard(s).navy().soc_handle(), cache.shard(s).navy().loc_handle());
  }

  // 6. Quiesce (seal + drain every queue pair), then read the shared
  //    device's FDP telemetry: with every stream on its own RUH, GC never
  //    mixes shards and device-level write amplification stays near 1.
  cache.Flush();
  const DeviceStats dev = backend.device(0).stats();
  const SsdTelemetry telemetry = backend.shard_ssd(0).Telemetry(0);
  std::printf("\nshared device: %llu writes / %llu reads / %llu trims, dlwa=%.3f\n",
              static_cast<unsigned long long>(dev.writes),
              static_cast<unsigned long long>(dev.reads),
              static_cast<unsigned long long>(dev.trims), telemetry.dlwa);

  // 7. Each shard rode its own device queue pair (one SQ/CQ per shard, the
  //    arbiter round-robins across them); the per-QP view, read from the
  //    device, shows how it saw the four shards' streams. Snapshot taken
  //    AFTER the flush barrier, so the per-QP writes sum to the aggregate
  //    count above. Only counts and queue depths are printed, no device
  //    latency or busy time: the replay never advances the simulator's
  //    VirtualClock (it stays parked at 0), so a simulated completion's
  //    latency is its position on the die timeline since time 0, not a
  //    service time.
  const Device& device = backend.device(0);
  const std::vector<QueuePairStats> queue_pairs = device.PerQueuePairStats();
  std::printf("device queue pairs (%zu, round-robin arbitration):\n", queue_pairs.size());
  for (size_t i = 0; i < queue_pairs.size(); ++i) {
    const QueuePairStats& qp = queue_pairs[i];
    std::printf("  qp%zu: dispatched=%llu writes=%llu reads=%llu p50_qd=%llu max_qd=%llu\n", i,
                static_cast<unsigned long long>(qp.dispatched),
                static_cast<unsigned long long>(qp.writes),
                static_cast<unsigned long long>(qp.reads),
                static_cast<unsigned long long>(qp.queue_depth.Percentile(50.0)),
                static_cast<unsigned long long>(qp.queue_depth.Max()));
  }

  // 8. Behind the arbiter, two die-affine execution lanes ran the device
  //    work in parallel; conflict waits count requests held back so that
  //    overlapping writes of one queue pair kept their submission order.
  const std::vector<LaneStats> lanes = device.PerLaneStats();
  std::printf("execution lanes (%zu, stripe %s):\n", lanes.size(),
              FormatBytes(config.lane_stripe_bytes).c_str());
  for (size_t i = 0; i < lanes.size(); ++i) {
    std::printf("  lane%zu: dispatches=%llu conflict_waits=%llu\n", i,
                static_cast<unsigned long long>(lanes[i].dispatches),
                static_cast<unsigned long long>(lanes[i].conflict_waits));
  }
  return 0;
}
