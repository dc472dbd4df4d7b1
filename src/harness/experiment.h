// Experiment harness: maps the paper's CacheBench deployments onto the
// simulated stack and collects the metrics the evaluation section reports.
//
// A run builds one DeviceStack, gives each tenant a page-aligned byte range
// of its device, stands up a HybridCache per tenant (sharing the stack's
// placement-handle allocator, as the upstreamed CacheLib change does),
// replays a synthetic trace through a virtual clock, and samples interval
// DLWA from the FDP statistics log the way the paper samples `nvme get-log`
// every ten minutes.
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/hybrid_cache.h"
#include "src/harness/device_stack.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ssd/ssd.h"
#include "src/workload/workload.h"

namespace fdpcache {

struct ExperimentConfig {
  // LOC region size of every tenant's cache, and the default lane stripe.
  static constexpr uint64_t kLocRegionSize = 512 * 1024;
  // NAND geometry of the scaled PM9D3: 8 dies of 2 planes, 32 pages per block.
  static constexpr uint32_t kPagesPerBlock = 32;
  static constexpr uint32_t kPlanesPerDie = 2;
  static constexpr uint32_t kNumDies = 8;

  // --- Backend ----------------------------------------------------------------
  DeviceBackend backend = DeviceBackend::kSim;
  // Backing path for kFile/kUring: a regular file (created/grown as needed)
  // or an existing block device (never truncated). Empty = a temp file under
  // /tmp holding every tenant's partition, removed when the runner dies.
  std::string device_path;
  // Ask for O_DIRECT on kFile/kUring (downgraded automatically where the
  // filesystem refuses, e.g. tmpfs).
  bool device_direct_io = false;

  // --- Device (scaled PM9D3: 8 II RUHs, 1 RG) -------------------------------
  // 2 MiB reclaim units so the device has ~256 RUs: the RU-count:device
  // ratio matters (open-RU stranding must be small relative to OP, as it is
  // on the paper's 313-RU device), not the absolute RU size.
  uint32_t num_superblocks = 256;  // 256 x 2 MiB = 512 MiB physical.
  double device_op_fraction = 0.10;
  // FDP on: device honours placement directives and CacheLib segregates
  // SOC/LOC. FDP off: both disabled (the paper's Non-FDP baseline).
  bool fdp = true;
  RuhType ruh_type = RuhType::kInitiallyIsolated;
  bool static_wear_leveling = false;

  // --- Deployment -----------------------------------------------------------
  // Fraction of logical capacity used to cache, in (0, 1]. Tenant t owns
  // bytes [t * P, (t + 1) * P) of the one device, where P is the share
  // logical * utilization / num_tenants rounded up to whole pages.
  double utilization = 0.5;
  double soc_fraction = 0.04;      // SOC share of the flash cache (paper: 4%).
  // DRAM cache size; 0 derives the paper's default ratio (42 GB : 930 GB).
  uint64_t ram_bytes = 0;
  uint32_t num_tenants = 1;
  bool loc_trim_on_evict = false;

  // --- Workload ---------------------------------------------------------------
  KvWorkloadConfig workload = KvWorkloadConfig::MetaKvCache();
  // 0 auto-sizes the key space so the cacheable footprint is ~2x the flash
  // cache (working set exceeds cache, producing churn like the traces).
  uint64_t num_keys_override = 0;

  // --- Device pipeline --------------------------------------------------------
  // Target device queue depth for each tenant's flash writes. 1 (default)
  // keeps the legacy fully synchronous path — every device write blocks, so
  // results are bit-identical to the pre-async harness. >1 enables batched
  // submission: up to `queue_depth` LOC region seals and SOC bucket rewrites
  // ride the device queue pairs in flight at once and completions are reaped
  // opportunistically, with a flush barrier before statistics are collected.
  uint32_t queue_depth = 1;
  // Queue pairs of the one device every tenant shares. Each placement stream
  // rides its own SQ: tenant t's SOC submits on QP (2t % queue_pairs), its
  // LOC on QP ((2t+1) % queue_pairs). The split shows up in
  // MetricsReport::device_queue_pairs at any queue depth; actual pipelining
  // needs queue_depth > 1.
  uint32_t queue_pairs = 1;
  // Parallel execution lanes behind the device's arbiter
  // (IoQueueConfig::exec_lanes; fdpbench --lanes). 0 keeps the inline
  // dispatcher path — bit-identical to the pre-lane harness at any queue
  // depth. >0 executes disjoint requests concurrently on lane worker
  // threads (overlapping same-QP requests still retire in submission
  // order), which makes wall-clock-side effects like thread interleaving
  // nondeterministic while the virtual-time metrics stay deterministic per
  // seed only at lanes=0.
  uint32_t exec_lanes = 0;
  // Die-affine routing stripe (fdpbench --stripe). 0 = kLocRegionSize is
  // used, so consecutive LOC regions fan out across lanes.
  uint64_t lane_stripe_bytes = 0;
  // Cache-tier queue depth (fdpbench --cache-qd). 1 (default) issues every
  // operation through the blocking Set/Get/Remove API — bit-identical to the
  // pre-async harness. >1 issues through LookupAsync/InsertAsync/RemoveAsync
  // with up to this many cache operations outstanding per tenant (flash
  // lookups ride the device queues instead of blocking the op loop), with
  // completion barriers at the warm-up boundary and before collection.
  // Same-key ordering is preserved by the cache's pending-key table, so
  // --verify remains meaningful. Wall-clock interleaving with the device
  // dispatcher makes >1 runs nondeterministic run-to-run, like --qd > 1.
  uint32_t cache_queue_depth = 1;

  // --- Background GC ----------------------------------------------------------
  // Device background GC engine (fdpbench --gc). kOff keeps the FTL's lazy
  // foreground GC as the only collection path — bit-identical to earlier
  // harness builds. kNaive runs fixed-rate background collection; kFeedback
  // adds host-QD throttling, cold-die RU placement, and erase suspend.
  GcMode gc_mode = GcMode::kOff;

  // --- Run --------------------------------------------------------------------
  uint64_t total_ops = 2'000'000;
  // Steady-state churn mode (fdpbench --overwrite-passes): when > 0 the
  // measured phase ignores total_ops and instead replays the trace until the
  // host has written this many multiples of the device's LOGICAL capacity —
  // ≥ 2 passes guarantees every RU has been rewritten and GC is in steady
  // state, the paper's DLWA measurement regime. max_steady_ops caps the run
  // if the workload cannot generate enough write traffic.
  double overwrite_passes = 0.0;
  uint64_t max_steady_ops = 60'000'000;
  // Warm-up runs until the host has written this many multiples of the flash
  // cache size, then statistics reset (steady-state measurement).
  double warmup_cache_writes = 1.0;
  uint64_t max_warmup_ops = 30'000'000;
  uint32_t dlwa_samples = 24;
  bool verify_values = false;  // End-to-end payload verification (slower).
  uint64_t seed = 42;

  // --- Observability ----------------------------------------------------------
  // Per-request tracing of the measured phase (fdpbench --trace). Stage spans
  // use the wall clock only, so every virtual-time metric is identical with
  // tracing on or off. trace_path empty = collect spans and report the
  // breakdown without writing a chrome://tracing JSON.
  bool trace_enabled = false;
  uint32_t trace_sample = 1;  // Trace 1 in N requests (fdpbench --trace-sample).
  std::string trace_path;
  // Prometheus exposition (fdpbench --metrics-out / --metrics-every): a
  // snapshot file (empty = fdpbench_metrics.prom), or a unix-domain socket
  // when prefixed "unix:". Either setting publishes the whole report after
  // the closing barrier; a nonzero interval adds a snapshot once per interval
  // of the measured phase (checked every 256 ops).
  uint32_t metrics_interval_ms = 0;
  std::string metrics_path;
};

struct MetricsReport {
  // DLWA (paper's primary metric).
  double final_dlwa = 1.0;
  std::vector<double> interval_dlwa;
  double alwa = 1.0;

  // Cache metrics.
  double hit_ratio = 0.0;
  double nvm_hit_ratio = 0.0;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t ram_hits = 0;
  uint64_t nvm_lookups = 0;
  uint64_t nvm_hits = 0;
  uint64_t misses = 0;

  // Performance.
  double throughput_kops = 0.0;
  uint64_t p50_read_ns = 0;
  uint64_t p99_read_ns = 0;
  uint64_t p999_read_ns = 0;
  uint64_t p50_write_ns = 0;
  uint64_t p99_write_ns = 0;
  uint64_t p999_write_ns = 0;

  // Device.
  uint64_t gc_events = 0;            // Media-relocated events.
  uint64_t gc_relocated_pages = 0;
  uint64_t clean_ru_erases = 0;
  uint64_t host_bytes_written = 0;
  double op_energy_uj = 0.0;
  double total_energy_uj = 0.0;
  double wear_max_pe = 0.0;

  // Background GC engine (all zero when gc_mode == kOff).
  uint64_t gc_bg_ticks = 0;
  uint64_t gc_bg_migrated_pages = 0;
  uint64_t gc_bg_erases = 0;
  uint64_t gc_bg_deferred_ticks = 0;   // Ticks skipped by host-load feedback.
  uint64_t gc_bg_abandoned = 0;        // Victims lost mid-migration.
  uint64_t erase_suspensions = 0;      // Host reads that preempted an erase.
  uint64_t host_stall_ns = 0;          // Host die-queueing delay (incl. behind GC).
  uint64_t gc_die_ns = 0;              // Die time consumed by GC traffic.
  // Per-RUH DLWA from the device's provenance accounting (index = RUH);
  // empty when the device reports no per-RUH traffic.
  std::vector<double> per_ruh_dlwa;
  // Device-capacity overwrite multiples the measured phase achieved
  // (meaningful in steady-state mode; ~0 in op-count mode).
  double overwrite_passes_done = 0.0;
  uint64_t device_page_bytes = 0;

  // Write-stream composition (SOC share of flash-cache device write bytes).
  double soc_write_share = 0.0;

  // Per-queue-pair device stats (queue-depth histograms, per-QP latency).
  // Index = queue pair.
  std::vector<QueuePairStats> device_queue_pairs;

  // Per-execution-lane device stats. Empty when exec_lanes == 0.
  std::vector<LaneStats> device_lanes;

  // Per-die busy time from the device's DieScheduler (index = die), for
  // cross-checking lane utilization against the dies it mirrors.
  std::vector<uint64_t> per_die_busy_ns;

  // In-flight async cache ops per tenant, sampled at the end of the measured
  // phase BEFORE the collection barrier drains them — shows the cache-tier
  // queue depth the run actually sustained. All zeros at cache_queue_depth 1.
  std::vector<uint64_t> pending_cache_ops;

  // For the live view, as of collection: async cache ops and device requests
  // in flight, and epoch-reclaim limbo depth (nodes awaiting a safe epoch)
  // and readers pinning one. The final report follows the closing barrier.
  uint64_t pending_ops = 0;
  uint64_t epoch_limbo_nodes = 0;
  uint64_t epoch_active_readers = 0;
  uint64_t device_in_flight = 0;

  // Flush/reap barriers that reported failure (a failed LOC seal or SOC
  // rewrite surfaced at a warm-up or collection barrier). The affected items
  // degraded to misses; nonzero values mean the run hit device write errors.
  uint64_t flush_failures = 0;

  // Run bookkeeping.
  uint64_t elapsed_virtual_ns = 0;
  uint64_t ops_executed = 0;
  uint64_t verify_failures = 0;
  uint64_t cache_bytes = 0;          // Flash cache share per tenant (unrounded).
  uint64_t ram_bytes = 0;
  uint64_t device_physical_bytes = 0;

  // Per-stage latency attribution of the measured phase's sampled requests
  // (trace_enabled runs only; `traced` false otherwise).
  bool traced = false;
  obs::TraceBreakdown trace;
  // Prometheus snapshot files written, the final one included (0 when
  // disabled or on a socket).
  uint64_t metrics_snapshots = 0;
};

class ExperimentRunner {
 public:
  // Throws std::runtime_error when the deployment cannot be provisioned: no
  // tenants, a utilization outside (0, 1], a soc_fraction outside [0, 1], a
  // device_op_fraction outside [0, 1), or tenant partitions that do not fit
  // the device (e.g. fdpbench --tenants=2 --superblocks=64), on every
  // backend; or when metrics_path cannot be published to, or trace_path
  // cannot be opened for writing.
  explicit ExperimentRunner(const ExperimentConfig& config);
  ~ExperimentRunner();

  // Runs warm-up then the measured phase; returns Collect()'s report taken
  // after the closing barrier. Throws std::runtime_error when the trace JSON
  // or a metrics snapshot cannot be written.
  MetricsReport Run();

  // Sim backend only; never call on kFile/kUring.
  SimulatedSsd& ssd() { return *stack_->ssd(); }
  // The one device every tenant partitions.
  Device& device() { return stack_->device(); }

 private:
  struct Tenant {
    std::unique_ptr<HybridCache> cache;
    std::unique_ptr<KvTraceGenerator> generator;
    std::unordered_map<uint64_t, uint32_t> versions;
    uint64_t verify_failures = 0;
  };

  void ExecuteOp(Tenant& tenant, const Op& op);
  // The cache_queue_depth > 1 issue path: async ops with a per-tenant window.
  void ExecuteOpAsync(Tenant& tenant, const Op& op);
  // Drains tenant write pipelines (and, at cache_queue_depth > 1, the async
  // cache ops first) without sealing the open LOC region, so qd>1 byte
  // accounting stays comparable to the qd=1 baseline; returns false if any
  // reap reported a failed flash write.
  bool Barrier();
  void MaybeBackpressure();

  // Host bytes the workload has pushed to flash so far: the FDP statistics
  // log on kSim, the tenants' SOC + LOC device bytes on kFile/kUring (plain
  // counters, so the per-op warm-up check copies no histograms). Drives the
  // warm-up and overwrite-pass progress loops on every backend.
  uint64_t HostBytesWritten() const;

  // Virtual time on the simulator; wall time against real hardware, where the
  // virtual clock only ticks the modeled host CPU cost.
  TimeNs Now() const;

  // The report as of now: run_ plus one read of every stats struct of the
  // stack (caches, engines, device, queue pairs, lanes and SSD). Run() calls
  // it on the op-loop thread, so it reads the caches between operations,
  // never concurrently with one: for each live snapshot and once after the
  // closing barrier for the final report.
  MetricsReport Collect() const;

  ExperimentConfig config_;
  std::unique_ptr<DeviceStack> stack_;
  // Declared after stack_: the caches die before the device they write
  // through.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  // Set when metrics_path is set or metrics_interval_ms > 0; built by the
  // constructor, so a bad metrics_path fails before any run time is spent.
  std::unique_ptr<obs::MetricsPublisher> publisher_;
  // trace_path, opened by the constructor for the same reason; Run() writes
  // and closes it.
  std::FILE* trace_file_ = nullptr;
  // The figures Run() produces itself, which Collect() starts from: ops
  // executed, interval DLWA samples, pending ops before the closing barrier,
  // flush failures and the trace breakdown.
  MetricsReport run_;
  TimeNs measure_start_ = 0;
  uint64_t cache_bytes_per_tenant_ = 0;
  uint64_t ram_bytes_ = 0;
  // Usable capacity the experiment is sized against: the simulated SSD's
  // logical capacity, which kFile/kUring are sized against too, so
  // utilization sweeps mean the same thing on every backend.
  uint64_t logical_bytes_ = 0;
};

}  // namespace fdpcache

#endif  // SRC_HARNESS_EXPERIMENT_H_
