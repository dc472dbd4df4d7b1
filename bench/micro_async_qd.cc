// Async device queue-depth sweep: QD 1/4/16/64 x queue pairs 1/2/4/8 x
// execution lanes 0/1/4, shared vs per-shard device.
//
// Submitter threads issue 256 KiB region-sized writes through the
// Submit/Poll/Wait pipeline, each keeping QD writes outstanding (a slot
// window: reap the slot's previous completion, refill the payload, submit).
// Configurations:
//   shared/1t        — one submitter, one shared device, one queue pair:
//                      isolates queue-depth pipelining (payload prep
//                      overlapping device execution);
//   shared/4t xN qp  — four submitters feeding ONE SimSsdDevice over one
//                      SSD through N queue pairs (submitter t rides QP
//                      t % N), each on its own placement handle and byte
//                      range: the multi-QP shared-SSD cache topology. N=1
//                      is the single-ring pipeline;
//   shared/4t x4 qp xL lanes — the same multi-QP topology with L execution
//                      lanes behind the arbiter (L=1: one lane worker, the
//                      serial-execution baseline with the handoff cost paid;
//                      L=4: die-affine parallel execution);
//   shared-overlap/4t — four submitters on ONE queue pair writing the SAME
//                      full-device byte range through 4 lanes: colliding
//                      same-QP requests force the conflict tracker to chain
//                      them, so its cost is measured instead of idle;
//   per-shard/4t     — four submitters, each with a private SSD stack (no
//                      cross-shard interference).
// Reported as MiB/s per (topology, qps, lanes, QD) combo, plus a cache-tier
// table of sharded async Gets at cache-QD 1 vs 8.
//
// SHAPE CHECKS (any FAIL exits 1; single-core runs report the sweep but
// cannot demonstrate overlap):
//   1. (any core count) no write fails anywhere in the sweep;
//   2. (any core count) shared-overlap must record conflict waits: summed
//      over both runs of the QD 16 pair > 0, and summed over the kept run
//      of every QD (1/4/16/64) > 0 — the tracker's chaining cost is
//      measured, not just absent;
//   3. (>= 2 cores) shared/1t: QD 16 must out-write QD 1 — submission
//      pipelining overlaps payload preparation with device execution;
//   4. (>= 2 cores) QD 64 must hold >= 0.95x QD 16 (1t and 4t/4qp): the
//      per-QP congestion window caps outstanding bytes so deep queues
//      cannot convoy the backend (the historical ~2x QD-64 collapse);
//   5. (>= 2 cores) shared/4t at QD 16: 4 queue pairs must be >= 0.90x the
//      single-QP ring — per-QP submission locks remove the one-ring
//      contention, and must never cost throughput;
//   6. (>= 4 cores) shared/4t/4qp at QD 16: 4 lanes must be >= 1.2x the
//      single lane — parallel payload copies across lanes beat one
//      executor, the whole point of the lane engine;
//   7. (>= 4 cores) sharded async Gets at cache-QD 8 >= 1.2x cache-QD 1.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/harness/concurrent_replay.h"
#include "src/navy/sim_ssd_device.h"
#include "src/obs/trace.h"
#include "src/ssd/ssd.h"
#include "src/workload/workload.h"

namespace fdpcache {
namespace {

constexpr uint32_t kMaxThreads = 4;
constexpr uint64_t kWriteBytes = 256 * 1024;  // One 64-page "region" per write.

SsdConfig SweepSsdConfig(uint32_t num_superblocks) {
  SsdConfig config;
  config.geometry.pages_per_block = 16;
  config.geometry.planes_per_die = 2;
  config.geometry.num_dies = 4;
  config.geometry.num_superblocks = num_superblocks;
  config.op_fraction = 0.20;  // Covers one open RU per submitter's RUH.
  return config;
}

// Payload preparation: the host-side work a cache does to assemble a region
// (serialization, checksums). Overlapping this with device execution is
// exactly what queue depth > 1 buys.
void FillPayload(std::vector<uint8_t>* buffer, uint64_t seed) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  auto* words = reinterpret_cast<uint64_t*>(buffer->data());
  const size_t n = buffer->size() / sizeof(uint64_t);
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    words[i] = x;
  }
}

struct SubmitterStats {
  uint64_t writes = 0;
  uint64_t failures = 0;
};

// Keeps `qd` writes outstanding against `device` on queue pair `qp`,
// cycling sequentially through the thread's byte-range partition.
void Submitter(Device* device, uint64_t base, uint64_t span, PlacementHandle handle, uint32_t qp,
               uint32_t qd, uint64_t num_writes, SubmitterStats* out) {
  std::vector<std::vector<uint8_t>> slots(qd, std::vector<uint8_t>(kWriteBytes));
  std::vector<CompletionToken> tokens(qd, kInvalidToken);
  const uint64_t chunks = span / kWriteBytes;
  for (uint64_t i = 0; i < num_writes; ++i) {
    const uint32_t slot = static_cast<uint32_t>(i % qd);
    if (tokens[slot] != kInvalidToken) {
      if (!device->Wait(tokens[slot]).ok) {
        ++out->failures;
      }
    }
    FillPayload(&slots[slot], base + i);
    const uint64_t offset = base + (i % chunks) * kWriteBytes;
    tokens[slot] = device->Submit(
        IoRequest::MakeWrite(offset, slots[slot].data(), kWriteBytes, handle, qp));
    ++out->writes;
  }
  for (const CompletionToken token : tokens) {
    if (token != kInvalidToken && !device->Wait(token).ok) {
      ++out->failures;
    }
  }
}

struct ComboResult {
  std::string topology;
  uint32_t submitters = 0;
  uint32_t qps = 1;
  uint32_t lanes = 0;
  uint32_t qd = 0;
  double mib_per_sec = 0.0;
  double elapsed_s = 0.0;
  uint64_t writes = 0;
  uint64_t failures = 0;
  // Dispatches the conflict tracker had parked behind an overlapping
  // same-QP write, summed over lanes.
  uint64_t conflict_waits = 0;
};

ComboResult RunShared(uint32_t submitters, uint32_t qps, uint32_t lanes, uint32_t qd,
                      uint64_t total_writes, bool overlap = false) {
  SimulatedSsd ssd(SweepSsdConfig(64));
  const uint32_t nsid = *ssd.CreateNamespace(ssd.logical_capacity_bytes());
  VirtualClock clock;
  IoQueueConfig queue;
  queue.sq_depth = kMaxThreads * 64;  // Never the bottleneck in this sweep.
  queue.num_queue_pairs = qps;
  queue.exec_lanes = lanes;
  queue.lane_stripe_bytes = kWriteBytes;  // Consecutive regions hop lanes.
  SimSsdDevice device(&ssd, nsid, &clock, queue);

  const uint64_t per_thread = total_writes / submitters;
  // Disjoint mode partitions the device across submitters; overlap mode
  // points every submitter at the SAME full-device range, so concurrent
  // same-QP writes collide and the lane engine's conflict tracker must
  // chain them — measuring the tracker's cost, not just its absence.
  const uint64_t span = device.size_bytes() / submitters / kWriteBytes * kWriteBytes;
  const uint64_t full_span = device.size_bytes() / kWriteBytes * kWriteBytes;
  std::vector<SubmitterStats> stats(submitters);
  std::vector<std::thread> threads;
  const uint64_t start = obs::NowNs();
  for (uint32_t t = 0; t < submitters; ++t) {
    threads.emplace_back([&device, &stats, t, span, full_span, overlap, qps, qd, per_thread] {
      Submitter(&device, overlap ? 0 : t * span, overlap ? full_span : span,
                /*handle=*/t + 1, /*qp=*/t % qps, qd, per_thread, &stats[t]);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  device.Drain();
  const double elapsed = static_cast<double>(obs::NowNs() - start) * 1e-9;

  ComboResult result;
  result.topology = overlap ? "shared-overlap" : "shared";
  result.submitters = submitters;
  result.qps = qps;
  result.lanes = lanes;
  result.qd = qd;
  result.elapsed_s = elapsed;
  for (const SubmitterStats& s : stats) {
    result.writes += s.writes;
    result.failures += s.failures;
  }
  result.mib_per_sec =
      static_cast<double>(result.writes * kWriteBytes) / (1024.0 * 1024.0) / elapsed;
  for (const LaneStats& lane : device.PerLaneStats()) {
    result.conflict_waits += lane.conflict_waits;
  }
  return result;
}

ComboResult RunPerShard(uint32_t submitters, uint32_t qd, uint64_t total_writes) {
  struct Stack {
    VirtualClock clock;
    std::unique_ptr<SimulatedSsd> ssd;
    std::unique_ptr<SimSsdDevice> device;
  };
  std::vector<std::unique_ptr<Stack>> stacks;
  for (uint32_t t = 0; t < submitters; ++t) {
    auto stack = std::make_unique<Stack>();
    stack->ssd = std::make_unique<SimulatedSsd>(SweepSsdConfig(64 / submitters));
    const uint32_t nsid = *stack->ssd->CreateNamespace(stack->ssd->logical_capacity_bytes());
    IoQueueConfig queue;
    queue.sq_depth = 64;
    stack->device = std::make_unique<SimSsdDevice>(stack->ssd.get(), nsid, &stack->clock, queue);
    stacks.push_back(std::move(stack));
  }

  const uint64_t per_thread = total_writes / submitters;
  std::vector<SubmitterStats> stats(submitters);
  std::vector<std::thread> threads;
  const uint64_t start = obs::NowNs();
  for (uint32_t t = 0; t < submitters; ++t) {
    threads.emplace_back([&stacks, &stats, t, qd, per_thread] {
      Device* device = stacks[t]->device.get();
      const uint64_t span = device->size_bytes() / kWriteBytes * kWriteBytes;
      Submitter(device, 0, span, /*handle=*/1, /*qp=*/0, qd, per_thread, &stats[t]);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (auto& stack : stacks) {
    stack->device->Drain();
  }
  const double elapsed = static_cast<double>(obs::NowNs() - start) * 1e-9;

  ComboResult result;
  result.topology = "per-shard";
  result.submitters = submitters;
  result.qps = 1;
  result.qd = qd;
  result.elapsed_s = elapsed;
  for (const SubmitterStats& s : stats) {
    result.writes += s.writes;
    result.failures += s.failures;
  }
  result.mib_per_sec =
      static_cast<double>(result.writes * kWriteBytes) / (1024.0 * 1024.0) / elapsed;
  return result;
}

// --- Cache-tier queue-depth axis ---------------------------------------------
// Sharded Gets through the asynchronous cache API (LookupAsync over a
// flash-heavy keyspace) at cache-QD 1 vs 8: depth-1 async pays the full
// submit→dispatcher→poller round trip per op, depth 8 pipelines it — the
// cache-tier counterpart of the device-level QD axis above.
struct CacheQdResult {
  uint32_t cache_qd = 0;
  uint32_t threads = 0;
  uint32_t shards = 0;
  double kops = 0.0;
  double elapsed_s = 0.0;
  double hit_ratio = 0.0;
};

CacheQdResult RunCacheQd(uint32_t cache_qd, uint64_t total_ops) {
  ShardedBackendConfig config;
  config.num_shards = 4;
  config.ssd = SweepSsdConfig(64);
  // Tiny DRAM tier: most lookups fall through to flash, so the async path's
  // lock-release across device reads is what the sweep measures.
  config.cache.ram_bytes = 96 * 1024;
  config.cache.navy.use_placement_handles = true;
  ShardedSimBackend backend(config);

  KvWorkloadConfig workload;
  workload.num_keys = 4096;
  workload.get_fraction = 1.0;
  workload.set_fraction = 0.0;
  workload.small_key_fraction = 1.0;
  workload.small_value_min = 256;
  workload.small_value_max = 512;

  // Prefill the keyspace into flash (sync writes; evictions spill), then
  // flush so the timed phase reads a quiescent device.
  for (uint64_t id = 0; id < workload.num_keys; ++id) {
    backend.cache().Set(KeyString(id), ValuePayload(id, 0, 384));
  }
  backend.cache().Flush();
  backend.cache().ResetStats();

  ConcurrentReplayConfig replay;
  replay.num_threads = 2;
  replay.total_ops = total_ops;
  replay.workload = workload;
  replay.async_cache_queue_depth = cache_qd;
  ConcurrentReplayDriver driver(&backend.cache(), replay);
  const ConcurrentReplayReport report = driver.Run();

  CacheQdResult result;
  result.cache_qd = cache_qd;
  result.threads = replay.num_threads;
  result.shards = config.num_shards;
  result.kops = report.throughput_ops_per_sec / 1e3;
  result.elapsed_s = report.elapsed_seconds;
  result.hit_ratio = report.cache.HitRatio();
  return result;
}

}  // namespace
}  // namespace fdpcache

int main() {
  using namespace fdpcache;
  PrintHeader("micro_async_qd: async device pipeline, QD x queue-pair sweep, shared vs "
              "per-shard SSD",
              "n/a (queue-depth scaling study enabling the paper's evaluation methodology)");

  uint64_t total_writes = static_cast<uint64_t>(1024 * BenchScale());
  total_writes = total_writes < 64 ? 64 : total_writes;
  const std::vector<uint32_t> depths = {1, 4, 16, 64};
  const std::vector<uint32_t> qp_counts = {1, 2, 4, 8};
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, %llu x %llu KiB writes per combo\n\n", hw_threads,
              static_cast<unsigned long long>(total_writes),
              static_cast<unsigned long long>(kWriteBytes / 1024));

  struct Combo {
    bool shared;
    uint32_t submitters;
    uint32_t qps;
    uint32_t lanes;
    bool overlap = false;
  };
  std::vector<Combo> combos;
  combos.push_back({true, 1, 1, 0});
  for (const uint32_t qps : qp_counts) {
    combos.push_back({true, kMaxThreads, qps, 0});
  }
  // Execution-lane axis on the 4-QP shared topology: one lane (serial
  // execution with the handoff paid) vs four die-affine lanes.
  combos.push_back({true, kMaxThreads, 4, 1});
  combos.push_back({true, kMaxThreads, 4, 4});
  // Deliberately overlapping writes (all submitters on one QP over the SAME
  // byte range) so the lane conflict tracker's chaining cost is measured.
  combos.push_back({true, kMaxThreads, 1, 4, true});
  combos.push_back({false, kMaxThreads, 1, 0});

  std::vector<ComboResult> results;
  TextTable table({"topology", "submitters", "qps", "lanes", "qd", "MiB/s", "elapsed",
                   "writes", "failures"});
  double shared_qd1 = 0.0;
  double shared_qd16 = 0.0;
  double shared_qd64 = 0.0;
  double shared_4t_qp1_qd16 = 0.0;
  double shared_4t_qp4_qd16 = 0.0;
  double shared_4t_qp4_qd64 = 0.0;
  double shared_lane1_qd16 = 0.0;
  double shared_lane4_qd16 = 0.0;
  uint64_t overlap_conflict_waits = 0;       // QD 16, both runs of the pair.
  uint64_t overlap_kept_conflict_waits = 0;  // The kept run of every QD.
  for (const Combo& combo : combos) {
    for (const uint32_t qd : depths) {
      // Best of two runs per combo: one scheduler hiccup in a 0.2s window
      // otherwise dominates the row.
      ComboResult r = combo.shared
                          ? RunShared(combo.submitters, combo.qps, combo.lanes, qd, total_writes,
                                      combo.overlap)
                          : RunPerShard(combo.submitters, qd, total_writes);
      const ComboResult again =
          combo.shared ? RunShared(combo.submitters, combo.qps, combo.lanes, qd, total_writes,
                                   combo.overlap)
                       : RunPerShard(combo.submitters, qd, total_writes);
      // Conflict waits accumulate in BOTH runs of the pair; the QD 16 check
      // sums them so a lucky low-contention winner cannot zero it.
      const uint64_t pair_conflict_waits = r.conflict_waits + again.conflict_waits;
      if (again.failures == 0 && again.mib_per_sec > r.mib_per_sec) {
        r = again;
      }
      if (combo.shared && combo.submitters == 1 && qd == 1) {
        shared_qd1 = r.mib_per_sec;
      }
      if (combo.shared && combo.submitters == 1 && qd == 16) {
        shared_qd16 = r.mib_per_sec;
      }
      if (combo.shared && combo.submitters == 1 && qd == 64) {
        shared_qd64 = r.mib_per_sec;
      }
      if (combo.shared && combo.submitters == kMaxThreads && qd == 16 && combo.lanes == 0) {
        if (combo.qps == 1) {
          shared_4t_qp1_qd16 = r.mib_per_sec;
        } else if (combo.qps == 4) {
          shared_4t_qp4_qd16 = r.mib_per_sec;
        }
      }
      if (combo.shared && combo.submitters == kMaxThreads && qd == 64 && combo.lanes == 0 &&
          combo.qps == 4 && !combo.overlap) {
        shared_4t_qp4_qd64 = r.mib_per_sec;
      }
      if (combo.overlap) {
        overlap_kept_conflict_waits += r.conflict_waits;
        if (qd == 16) {
          overlap_conflict_waits += pair_conflict_waits;
        }
      }
      if (combo.shared && combo.submitters == kMaxThreads && combo.qps == 4 && qd == 16) {
        if (combo.lanes == 1) {
          shared_lane1_qd16 = r.mib_per_sec;
        } else if (combo.lanes == 4) {
          shared_lane4_qd16 = r.mib_per_sec;
        }
      }
      table.AddRow({r.topology, std::to_string(r.submitters), std::to_string(r.qps),
                    std::to_string(r.lanes), std::to_string(r.qd),
                    FormatDouble(r.mib_per_sec, 1), FormatDouble(r.elapsed_s, 2) + "s",
                    std::to_string(r.writes), std::to_string(r.failures)});
      results.push_back(r);
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  // Cache-tier axis: sharded async Gets at cache-QD 1 vs 8 (best of two).
  const uint64_t cache_ops = total_writes * 8;  // Lookups are much lighter than region writes.
  std::vector<CacheQdResult> cache_rows;
  TextTable cache_table({"api", "cache-qd", "threads", "shards", "kops", "elapsed", "hit"});
  for (const uint32_t cache_qd : {1u, 8u}) {
    CacheQdResult r = RunCacheQd(cache_qd, cache_ops);
    const CacheQdResult again = RunCacheQd(cache_qd, cache_ops);
    if (again.kops > r.kops) {
      r = again;
    }
    cache_table.AddRow({"async", std::to_string(r.cache_qd), std::to_string(r.threads),
                        std::to_string(r.shards), FormatDouble(r.kops, 1),
                        FormatDouble(r.elapsed_s, 2) + "s", FormatDouble(r.hit_ratio, 3)});
    cache_rows.push_back(r);
  }
  std::printf("%s\n", cache_table.ToString().c_str());

  for (const ComboResult& r : results) {
    if (r.failures != 0) {
      std::printf("SHAPE CHECK: FAIL (%llu write failures in %s qps=%u lanes=%u qd=%u)\n",
                  static_cast<unsigned long long>(r.failures), r.topology.c_str(), r.qps,
                  r.lanes, r.qd);
      return 1;
    }
  }
  // Overlapping same-QP writes must exercise the conflict tracker: queue
  // depth alone guarantees colliding requests are in flight together, so
  // this holds on any core count (no hardware gate).
  const bool pair_conflicts_ok = overlap_conflict_waits > 0;
  PrintShapeCheck(pair_conflicts_ok, "overlapping writes hit the conflict tracker, got " +
                                         std::to_string(overlap_conflict_waits) +
                                         " conflict waits at shared-overlap/QD16");
  const bool kept_conflicts_ok = overlap_kept_conflict_waits > 0;
  PrintShapeCheck(kept_conflicts_ok, "kept shared-overlap runs hit the conflict tracker, got " +
                                         std::to_string(overlap_kept_conflict_waits) +
                                         " conflict waits over QD 1/4/16/64");
  const bool conflicts_ok = pair_conflicts_ok && kept_conflicts_ok;
  const double ratio = shared_qd1 > 0.0 ? shared_qd16 / shared_qd1 : 0.0;
  const double qp_ratio =
      shared_4t_qp1_qd16 > 0.0 ? shared_4t_qp4_qd16 / shared_4t_qp1_qd16 : 0.0;
  const double lane_ratio =
      shared_lane1_qd16 > 0.0 ? shared_lane4_qd16 / shared_lane1_qd16 : 0.0;
  if (hw_threads >= 2) {
    const bool qd_ok = shared_qd16 > shared_qd1;
    PrintShapeCheck(qd_ok, "shared device QD16 > QD1, got " + FormatDouble(ratio, 2) + "x");
    // The congestion window must hold QD 64 at (or above) the QD 16 plateau
    // instead of the historical ~2x collapse; 0.95 floor absorbs noise.
    const bool qd64_ok = shared_qd64 >= shared_qd16 * 0.95 &&
                         shared_4t_qp4_qd64 >= shared_4t_qp4_qd16 * 0.95;
    PrintShapeCheck(qd64_ok,
                    "QD64 >= 0.95x QD16 under the congestion window (1t " +
                        FormatDouble(shared_qd16 > 0 ? shared_qd64 / shared_qd16 : 0.0, 2) +
                        "x, 4t/4qp " +
                        FormatDouble(
                            shared_4t_qp4_qd16 > 0 ? shared_4t_qp4_qd64 / shared_4t_qp4_qd16 : 0.0,
                            2) +
                        "x)");
    // Multi-QP must never cost throughput against the single shared ring.
    // Execution is serialized by the one arbiter either way, so the expected
    // win is submission-lock contention only; allow a 10% noise floor.
    const bool qp_ok = shared_4t_qp4_qd16 >= shared_4t_qp1_qd16 * 0.90;
    PrintShapeCheck(qp_ok, "shared device 4 QPs >= 1 QP at 4t/QD16 (noise floor 0.90x), got " +
                               FormatDouble(qp_ratio, 2) + "x");
    // Lane scaling needs one core per lane on top of the submitters; only
    // demand the 1.2x win where the hardware can express it.
    bool lanes_ok = true;
    if (hw_threads >= 4) {
      lanes_ok = shared_lane4_qd16 >= shared_lane1_qd16 * 1.2;
      PrintShapeCheck(lanes_ok, "shared device 4 lanes >= 1.2x 1 lane at 4t/4qp/QD16, got " +
                                    FormatDouble(lane_ratio, 2) + "x");
    } else {
      std::printf("SHAPE CHECK: SKIP (lane scaling needs >=4 cores, have %u; measured "
                  "4lane/1lane %sx)\n\n",
                  hw_threads, FormatDouble(lane_ratio, 2).c_str());
    }
    // Cache-tier queue depth: pipelining 8 async cache ops per worker must
    // beat depth-1 async (full completion round trip per op) by >= 1.2x.
    // Needs cores for the submitters + dispatcher + poller to overlap.
    bool cache_qd_ok = true;
    const double cache_ratio =
        cache_rows[0].kops > 0.0 ? cache_rows[1].kops / cache_rows[0].kops : 0.0;
    if (hw_threads >= 4) {
      cache_qd_ok = cache_rows[1].kops >= cache_rows[0].kops * 1.2;
      PrintShapeCheck(cache_qd_ok, "sharded async Gets at cache-QD 8 >= 1.2x cache-QD 1, got " +
                                       FormatDouble(cache_ratio, 2) + "x");
    } else {
      std::printf("SHAPE CHECK: SKIP (cache-QD scaling needs >=4 cores, have %u; measured "
                  "QD8/QD1 %sx)\n\n",
                  hw_threads, FormatDouble(cache_ratio, 2).c_str());
    }
    return conflicts_ok && qd_ok && qd64_ok && qp_ok && lanes_ok && cache_qd_ok ? 0 : 1;
  }
  std::printf("SHAPE CHECK: SKIP (only %u hardware thread(s); overlap needs >=2 cores; "
              "measured QD16/QD1 %sx, 4QP/1QP %sx, 4lane/1lane %sx)\n\n",
              hw_threads, FormatDouble(ratio, 2).c_str(), FormatDouble(qp_ratio, 2).c_str(),
              FormatDouble(lane_ratio, 2).c_str());
  return conflicts_ok ? 0 : 1;
}
