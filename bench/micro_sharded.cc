// Sharded-cache scaling micro-bench: threads x shards throughput sweep, plus
// a read-mostly DRAM hit-path sweep.
//
// Phase 1 drives the concurrent replay harness against a ShardedCache whose
// shards each own a private simulated SSD stack, sweeping worker threads
// (1..16) against shard counts (1..16). Reports wall-clock ops/s, speedup
// over the single-threaded run at the same shard count, merged latency
// percentiles, and shard imbalance.
//
// Phase 2 is the lock-free DRAM hit-path sweep: a 95/5 get/set mix whose hot
// set fits in the RAM tier, swept across 1/2/4/8/16 threads at 8 shards.
// Nearly every op is a RAM hit served by the seqlock read path without
// touching the shard mutex, so this is the front-end scaling ceiling the
// threads-x-shards phase can't see (its flash misses dominate). Set
// FDPBENCH_RAM_ONLY=1 to run only this phase (the TSan CI smoke: readers
// racing writers on the lock-free path at reduced scale).
//
// SHAPE CHECKS (any FAIL exits 1):
//   1. (>= 4 hardware threads, phase 1) 8 threads x 8 shards > 2x 1 thread
//      x 8 shards: a regression that serializes the shards fails;
//   2. (any core count) every read-mostly row has >= 95% RAM hits per Get:
//      the sweep measures the DRAM tier, not flash;
//   3. (any core count) every read-mostly row takes the shard mutex at most
//      0.10x ops times: only the 5% Set stream locks, lock-free Gets do not;
//   4. (>= 8 hardware threads) read-mostly 8 threads >= 3x 1 thread.
#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/concurrent_replay.h"

namespace fdpcache {
namespace {

SsdConfig ShardSsdConfig() {
  // Small per-shard device (32 MiB physical, 15% OP): the bench measures
  // front-end concurrency, not device-level DLWA.
  SsdConfig config;
  config.geometry.pages_per_block = 16;
  config.geometry.planes_per_die = 2;
  config.geometry.num_dies = 4;
  config.geometry.num_superblocks = 16;
  config.op_fraction = 0.15;
  return config;
}

HybridCacheConfig ShardCacheConfig() {
  HybridCacheConfig config;
  config.ram_bytes = 512 * 1024;
  config.navy.small_item_max_bytes = 1024;
  config.navy.soc_fraction = 0.10;
  config.navy.loc_region_size = 128 * 1024;
  return config;
}

// DRAM-heavy small-object mix: keeps per-op work host-dominated so the sweep
// exposes lock/shard scaling rather than simulated device time.
KvWorkloadConfig BenchWorkload() {
  KvWorkloadConfig workload = KvWorkloadConfig::MetaKvCache();
  workload.num_keys = 200'000;
  workload.small_key_fraction = 0.98;
  workload.large_value_min = 4 * 1024;
  workload.large_value_max = 16 * 1024;
  return workload;
}

double RunCombo(uint32_t threads, uint32_t shards, uint64_t total_ops,
                ConcurrentReplayReport* out) {
  // Per-shard topology with synchronous flash writes: the sweep measures
  // front-end lock/shard scaling, so the device pipeline stays out of it.
  ShardedBackendConfig backend_config;
  backend_config.num_shards = shards;
  backend_config.topology = BackendTopology::kPerShardDevice;
  backend_config.ssd = ShardSsdConfig();
  backend_config.cache = ShardCacheConfig();
  backend_config.loc_inflight_regions = 0;
  backend_config.soc_inflight_writes = 0;
  ShardedSimBackend backend(backend_config);
  ConcurrentReplayConfig config;
  config.num_threads = threads;
  config.total_ops = total_ops;
  config.workload = BenchWorkload();
  config.seed = 42;
  ConcurrentReplayDriver driver(&backend.cache(), config);
  // Warm the shards so the measured pass sees steady-state hit ratios; the
  // measured Run() isolates its own traffic via counter deltas.
  ConcurrentReplayConfig warm = config;
  warm.total_ops = total_ops / 4;
  warm.seed = 7;
  ConcurrentReplayDriver(&backend.cache(), warm).Run();
  *out = driver.Run();
  return out->throughput_ops_per_sec;
}

// --- Phase 2: read-mostly DRAM hit-path sweep ------------------------------

struct RamRow {
  uint32_t threads = 0;
  double kops = 0.0;
  double speedup = 0.0;
  double ram_hit_fraction = 0.0;  // RAM hits / Gets: how DRAM-bound the row is.
  double p99_get_us = 0.0;
  uint64_t ops = 0;
  uint64_t optimistic_retries = 0;
  uint64_t shard_lock_acquisitions = 0;
  uint64_t ram_lock_acquisitions = 0;
};

// 95/5 get/set over a small all-small-object keyspace that fits in the RAM
// tier entirely: the sweep measures the seqlock read path, not flash.
KvWorkloadConfig ReadMostlyWorkload() {
  KvWorkloadConfig workload;
  workload.get_fraction = 0.95;
  workload.set_fraction = 0.05;
  workload.num_keys = 20'000;
  workload.zipf_alpha = 1.0;
  workload.small_key_fraction = 1.0;
  workload.small_value_min = 64;
  workload.small_value_max = 512;
  return workload;
}

RamRow RunReadMostly(uint32_t threads, uint64_t total_ops) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 8;
  backend_config.topology = BackendTopology::kPerShardDevice;
  backend_config.ssd = ShardSsdConfig();
  backend_config.cache = ShardCacheConfig();
  // A RAM tier big enough for the whole keyspace (~8 MiB of values across
  // 8 x 4 MiB budgets): after the prefill every Get is a DRAM hit served by
  // the lock-free path, and the shard mutex is touched only by the 5% Set
  // stream.
  backend_config.cache.ram_bytes = 4 * 1024 * 1024;
  backend_config.loc_inflight_regions = 0;
  backend_config.soc_inflight_writes = 0;
  ShardedSimBackend backend(backend_config);

  ConcurrentReplayConfig config;
  config.num_threads = threads;
  config.total_ops = total_ops;
  config.workload = ReadMostlyWorkload();
  config.seed = 42;

  // Prefill the whole keyspace with the replayer's version-0 payloads so
  // the measured pass starts from a fully DRAM-resident working set.
  KvTraceGenerator sizes(config.workload);
  for (uint64_t id = 0; id < config.workload.num_keys; ++id) {
    backend.cache().Set(KeyString(id), ValuePayload(id, 0, sizes.ValueSizeOf(id)));
  }

  ConcurrentReplayDriver driver(&backend.cache(), config);
  const ConcurrentReplayReport report = driver.Run();

  RamRow row;
  row.threads = threads;
  row.kops = report.throughput_ops_per_sec / 1e3;
  row.ram_hit_fraction =
      report.cache.gets > 0
          ? static_cast<double>(report.cache.ram_hits) / report.cache.gets
          : 0.0;
  row.p99_get_us = report.get_latency_ns.Percentile(99.0) / 1e3;
  row.ops = report.ops_executed;
  row.optimistic_retries = report.cache.ram_optimistic_retries;
  row.shard_lock_acquisitions = report.cache.shard_lock_acquisitions;
  row.ram_lock_acquisitions = report.cache.ram_lock_acquisitions;
  return row;
}

}  // namespace
}  // namespace fdpcache

int main() {
  using namespace fdpcache;
  PrintHeader("micro_sharded: ShardedCache throughput, threads x shards sweep",
              "n/a (scaling study beyond the paper's single-threaded replayer)");

  const uint64_t total_ops = static_cast<uint64_t>(200'000 * BenchScale());
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const char* ram_only_env = std::getenv("FDPBENCH_RAM_ONLY");
  const bool ram_only = ram_only_env != nullptr && ram_only_env[0] == '1';
  std::printf("hardware threads: %u, ops per combo: %llu\n\n", hw_threads,
              static_cast<unsigned long long>(total_ops));

  bool ok = true;

  if (!ram_only) {
    const std::vector<uint32_t> thread_counts = {1, 2, 4, 8, 16};
    const std::vector<uint32_t> shard_counts = {1, 4, 8, 16};
    TextTable table({"shards", "threads", "kops/s", "speedup", "hit", "p99 get", "imbalance"});
    double speedup_8t_8s = 0.0;
    for (const uint32_t shards : shard_counts) {
      double baseline = 0.0;
      for (const uint32_t threads : thread_counts) {
        ConcurrentReplayReport report;
        const double ops_per_sec = RunCombo(threads, shards, total_ops, &report);
        if (threads == 1) {
          baseline = ops_per_sec;
        }
        const double speedup = baseline > 0.0 ? ops_per_sec / baseline : 0.0;
        if (threads == 8 && shards == 8) {
          speedup_8t_8s = speedup;
        }
        table.AddRow({std::to_string(shards), std::to_string(threads),
                      FormatDouble(ops_per_sec / 1000.0, 1), FormatDouble(speedup, 2),
                      FormatPercent(report.cache.HitRatio()),
                      FormatNsAsUs(report.get_latency_ns.Percentile(99.0)),
                      FormatDouble(report.shard_imbalance, 2)});
      }
    }
    std::printf("%s\n", table.ToString().c_str());

    if (hw_threads >= 4) {
      const bool shards_ok = speedup_8t_8s > 2.0;
      PrintShapeCheck(shards_ok, "8 threads x 8 shards >2x over 1 thread x 8 shards, got " +
                                     FormatDouble(speedup_8t_8s, 2) + "x");
      // Nonzero exit gives the CI bench step teeth: a regression that
      // serializes the shards fails the job, not just the log.
      ok = ok && shards_ok;
    } else {
      std::printf("SHAPE CHECK: SKIP (only %u hardware thread(s); scaling needs >=4 cores; "
                  "measured %sx)\n\n",
                  hw_threads, FormatDouble(speedup_8t_8s, 2).c_str());
    }
  }

  // --- Read-mostly DRAM hit-path sweep (lock-free Get) ---------------------
  std::printf("read-mostly sweep: 95/5 get/set, DRAM-resident hot set, 8 shards\n\n");
  const std::vector<uint32_t> ram_thread_counts = {1, 2, 4, 8, 16};
  double ram_baseline = 0.0;
  double ram_speedup_8t = 0.0;
  // The worst row of each per-row check.
  double min_ram_hit_fraction = 1.0;
  double max_shard_locks_per_op = 0.0;
  TextTable ram_table({"threads", "kops/s", "speedup", "ram-hit%", "p99 get",
                       "seq retries", "shard locks", "ram locks"});
  for (const uint32_t threads : ram_thread_counts) {
    RamRow row = RunReadMostly(threads, total_ops);
    if (threads == 1) {
      ram_baseline = row.kops;
    }
    row.speedup = ram_baseline > 0.0 ? row.kops / ram_baseline : 0.0;
    if (threads == 8) {
      ram_speedup_8t = row.speedup;
    }
    ram_table.AddRow({std::to_string(row.threads), FormatDouble(row.kops, 1),
                      FormatDouble(row.speedup, 2), FormatPercent(row.ram_hit_fraction),
                      FormatDouble(row.p99_get_us, 1) + "us",
                      std::to_string(row.optimistic_retries),
                      std::to_string(row.shard_lock_acquisitions),
                      std::to_string(row.ram_lock_acquisitions)});
    const double shard_locks_per_op =
        static_cast<double>(row.shard_lock_acquisitions) / std::max<uint64_t>(row.ops, 1);
    min_ram_hit_fraction = std::min(min_ram_hit_fraction, row.ram_hit_fraction);
    max_shard_locks_per_op = std::max(max_shard_locks_per_op, shard_locks_per_op);
  }
  std::printf("%s\n", ram_table.ToString().c_str());

  // These two hold at any core count, so the reduced-scale RAM-only smoke
  // enforces them as well.
  const bool ram_hits_ok = min_ram_hit_fraction >= 0.95;
  PrintShapeCheck(ram_hits_ok, "every read-mostly row >= 95% RAM hits per Get, lowest " +
                                   FormatPercent(min_ram_hit_fraction));
  const bool lock_free_ok = max_shard_locks_per_op <= 0.10;
  PrintShapeCheck(lock_free_ok, "every read-mostly row has shard locks <= 0.10x ops, highest " +
                                    FormatDouble(max_shard_locks_per_op, 3) + "x");
  ok = ok && ram_hits_ok && lock_free_ok;

  if (hw_threads >= 8) {
    const bool ram_ok = ram_speedup_8t >= 3.0;
    PrintShapeCheck(ram_ok, "read-mostly 8 threads >=3x over 1 thread, got " +
                                FormatDouble(ram_speedup_8t, 2) + "x");
    ok = ok && ram_ok;
  } else {
    std::printf("SHAPE CHECK: SKIP (only %u hardware thread(s); lock-free read scaling "
                "needs >=8 cores; measured %sx)\n\n",
                hw_threads, FormatDouble(ram_speedup_8t, 2).c_str());
  }

  return ok ? 0 : 1;
}
