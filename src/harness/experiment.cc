#include "src/harness/experiment.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "src/common/epoch_reclaim.h"
#include "src/harness/report.h"

namespace fdpcache {

namespace {

// Modelled host costs in virtual time: CPU per op, the backend fetch on a
// cache miss, and how far the device may run ahead of the host before the
// host waits (backpressure).
constexpr TimeNs kHostCpuNsPerOp = 1500;
constexpr TimeNs kBackendFetchNs = 10'000;
constexpr TimeNs kDeviceBacklogWindowNs = 4'000'000;

SsdConfig MakeSsdConfig(const ExperimentConfig& config) {
  SsdConfig ssd;
  ssd.geometry.pages_per_block = ExperimentConfig::kPagesPerBlock;
  ssd.geometry.planes_per_die = ExperimentConfig::kPlanesPerDie;
  ssd.geometry.num_dies = ExperimentConfig::kNumDies;
  ssd.geometry.num_superblocks = config.num_superblocks;
  ssd.fdp = FdpConfig::Uniform(8, config.ruh_type);
  ssd.op_fraction = config.device_op_fraction;
  ssd.fdp_enabled = config.fdp;
  ssd.static_wear_leveling = config.static_wear_leveling;
  ssd.gc.mode = config.gc_mode;
  return ssd;
}

// Average cacheable item footprint under the size mixture, for key-space
// auto-sizing.
double AvgItemBytes(const KvWorkloadConfig& w) {
  const double small_avg = 0.5 * (w.small_value_min + w.small_value_max);
  const double large_avg = 0.5 * (w.large_value_min + w.large_value_max);
  return w.small_key_fraction * small_avg + (1.0 - w.small_key_fraction) * large_avg + 17.0;
}

}  // namespace

ExperimentRunner::ExperimentRunner(const ExperimentConfig& config) : config_(config) {
  // Negated so that a NaN fails each check. A SOC share above 1 would wrap
  // the LOC's size; overprovisioning of 1 or more leaves no logical capacity.
  std::ostringstream msg;
  if (config_.num_tenants == 0 || !(config_.utilization > 0.0 && config_.utilization <= 1.0)) {
    msg << "cannot provision " << config_.num_tenants << " tenant(s) at utilization "
        << config_.utilization << "; need at least one tenant and a utilization in (0, 1]";
  } else if (!(config_.soc_fraction >= 0.0 && config_.soc_fraction <= 1.0)) {
    msg << "soc_fraction " << config_.soc_fraction << " is outside [0, 1]";
  } else if (!(config_.device_op_fraction >= 0.0 && config_.device_op_fraction < 1.0)) {
    msg << "device_op_fraction " << config_.device_op_fraction << " is outside [0, 1)";
  }
  if (!msg.str().empty()) {
    throw std::runtime_error("ExperimentRunner: " + msg.str());
  }
  DeviceStackConfig stack;
  stack.backend = config_.backend;
  stack.ssd = MakeSsdConfig(config_);
  stack.queue.num_queue_pairs = config_.queue_pairs == 0 ? 1 : config_.queue_pairs;
  stack.queue.exec_lanes = config_.exec_lanes;
  stack.queue.lane_stripe_bytes = config_.lane_stripe_bytes != 0
                                      ? config_.lane_stripe_bytes
                                      : ExperimentConfig::kLocRegionSize;
  stack.path = config_.device_path;
  stack.direct_io = config_.device_direct_io;

  logical_bytes_ = LogicalCapacityBytes(stack.ssd);
  cache_bytes_per_tenant_ = static_cast<uint64_t>(
      static_cast<double>(logical_bytes_) * config_.utilization / config_.num_tenants);
  // The stack rounds each tenant's partition up to whole pages and throws
  // when the partitions do not fit.
  stack.partitions = config_.num_tenants;
  stack.partition_bytes = cache_bytes_per_tenant_;
  stack_ = std::make_unique<DeviceStack>(stack);
  const uint64_t partition_bytes = stack_->partition_bytes();

  // Paper default DRAM:NVM ratio is 42 GB : 930 GB (~4.5%).
  ram_bytes_ = config_.ram_bytes != 0
                   ? config_.ram_bytes
                   : static_cast<uint64_t>(static_cast<double>(cache_bytes_per_tenant_) * 0.045);

  KvWorkloadConfig workload = config_.workload;
  if (config_.num_keys_override != 0) {
    workload.num_keys = config_.num_keys_override;
  } else {
    // Key space is sized from the *device*, independent of utilization, so
    // utilization sweeps vary cache size against a fixed working set — the
    // paper's Figure 6 methodology (same trace, different cache sizes).
    const double working_set_bytes =
        0.9 * static_cast<double>(logical_bytes_) / config_.num_tenants;
    workload.num_keys = std::max<uint64_t>(
        10'000, static_cast<uint64_t>(working_set_bytes / AvgItemBytes(workload)));
  }

  const uint32_t queue_depth = config_.queue_depth == 0 ? 1 : config_.queue_depth;
  const uint32_t queue_pairs = stack.queue.num_queue_pairs;
  for (uint32_t t = 0; t < config_.num_tenants; ++t) {
    auto tenant = std::make_unique<Tenant>();
    HybridCacheConfig cache_config;
    cache_config.ram_bytes = ram_bytes_;
    // The small-item threshold and LOC eviction policy keep
    // NavyCacheConfig's defaults.
    cache_config.navy.soc_fraction = config_.soc_fraction;
    cache_config.navy.loc_region_size = ExperimentConfig::kLocRegionSize;
    cache_config.navy.loc_trim_on_evict = config_.loc_trim_on_evict;
    cache_config.navy.base_offset = t * partition_bytes;
    cache_config.navy.size_bytes = partition_bytes;
    // Each placement stream rides its own queue pair when enough are
    // configured: tenant t's SOC on QP 2t, its LOC on QP 2t+1 (mod qps) —
    // so even a single-tenant run exercises multiple SQs at --qps >= 2.
    cache_config.navy.queue_pair = (2 * t) % queue_pairs;
    cache_config.navy.loc_queue_pair = (2 * t + 1) % queue_pairs;
    if (queue_depth > 1 || config_.cache_queue_depth > 1) {
      // Async path: batch region seals / bucket rewrites in flight; the
      // engines reap completions opportunistically and Run() adds flush
      // barriers before statistics are read. Cache-tier queue depth implies
      // at least that much write pipelining, so async inserts submit their
      // rewrites instead of blocking under the op window.
      const uint32_t depth = std::max(queue_depth, config_.cache_queue_depth);
      cache_config.navy.loc_inflight_regions = depth;
      cache_config.navy.soc_inflight_writes = depth;
    }
    tenant->cache =
        std::make_unique<HybridCache>(&stack_->device(), cache_config, &stack_->allocator());

    KvWorkloadConfig tenant_workload = workload;
    tenant_workload.seed = config_.seed + 1000003ull * t;
    tenant->generator = std::make_unique<KvTraceGenerator>(tenant_workload);
    tenants_.push_back(std::move(tenant));
  }
  if (!config_.metrics_path.empty() || config_.metrics_interval_ms > 0) {
    publisher_ = std::make_unique<obs::MetricsPublisher>(
        config_.metrics_path.empty() ? "fdpbench_metrics.prom" : config_.metrics_path);
  }
  // Opened now rather than probed: the path may name a device node, which
  // must be neither created nor unlinked.
  if (config_.trace_enabled && !config_.trace_path.empty()) {
    trace_file_ = std::fopen(config_.trace_path.c_str(), "w");
    if (trace_file_ == nullptr) {
      throw std::runtime_error("trace output " + config_.trace_path + ": cannot open: " +
                               std::strerror(errno));
    }
  }
}

ExperimentRunner::~ExperimentRunner() {
  if (trace_file_ != nullptr) {
    std::fclose(trace_file_);
  }
}

TimeNs ExperimentRunner::Now() const {
  return stack_->ssd() != nullptr ? stack_->clock().now() : obs::NowNs();
}

uint64_t ExperimentRunner::HostBytesWritten() const {
  if (const SimulatedSsd* ssd = stack_->ssd()) {
    return ssd->GetFdpStatisticsLog().host_bytes_written;
  }
  // The engines issue every device write, and count it once it succeeds.
  uint64_t bytes = 0;
  for (const auto& tenant : tenants_) {
    const NavyStats navy = tenant->cache->navy().stats();
    bytes += navy.soc.bytes_written + navy.loc.bytes_written;
  }
  return bytes;
}

bool ExperimentRunner::Barrier() {
  bool ok = true;
  if (config_.cache_queue_depth > 1) {
    // Complete parked async cache ops first; their callbacks (including
    // miss-path fills) may enqueue more flash writes, which the reap below
    // then retires.
    for (auto& tenant : tenants_) {
      tenant->cache->DrainAsync();
    }
  }
  if (config_.queue_depth > 1 || config_.cache_queue_depth > 1) {
    for (auto& tenant : tenants_) {
      ok = tenant->cache->navy().ReapPending() && ok;
    }
    stack_->device().Drain();
  }
  return ok;
}

void ExperimentRunner::MaybeBackpressure() {
  const SimulatedSsd* ssd = stack_->ssd();
  if (ssd == nullptr) {
    return;  // File backends: real I/O applies its own backpressure.
  }
  VirtualClock& clock = stack_->clock();
  const TimeNs horizon = ssd->MaxDieBusyUntil();
  if (horizon > clock.now() + kDeviceBacklogWindowNs) {
    clock.AdvanceTo(horizon - kDeviceBacklogWindowNs);
  }
}

void ExperimentRunner::ExecuteOpAsync(Tenant& tenant, const Op& op) {
  stack_->clock().Advance(kHostCpuNsPerOp);
  const std::string key = KeyString(op.key_id);
  HybridCache* cache = tenant.cache.get();
  switch (op.type) {
    case OpType::kSet: {
      const uint32_t version = ++tenant.versions[op.key_id];
      cache->InsertAsync(key, ValuePayload(op.key_id, version, op.value_size),
                         AsyncCallback{});
      break;
    }
    case OpType::kGet: {
      // Capture the expected version at issue time: the pending-key table
      // linearizes this lookup before any Set of the same key issued later,
      // so the value it returns matches the version the map held now.
      uint32_t expected = 1;
      if (config_.verify_values) {
        const auto it = tenant.versions.find(op.key_id);
        expected = it == tenant.versions.end() ? 1 : it->second;
      }
      Tenant* tenant_ptr = &tenant;
      const Op issued = op;
      cache->LookupAsync(key, [this, tenant_ptr, issued, expected](AsyncResult r) {
        if (r.hit()) {
          if (config_.verify_values &&
              r.value != ValuePayload(issued.key_id, expected, issued.value_size)) {
            ++tenant_ptr->verify_failures;
          }
          return;
        }
        // Cache miss: fetch from the backend and fill (CacheBench get path).
        // The fill uses the version map as of NOW, so it linearizes
        // consistently after any Set that raced this lookup.
        stack_->clock().Advance(kBackendFetchNs);
        uint32_t& version = tenant_ptr->versions[issued.key_id];
        if (version == 0) {
          version = 1;
        }
        tenant_ptr->cache->InsertAsync(
            KeyString(issued.key_id), ValuePayload(issued.key_id, version, issued.value_size),
            AsyncCallback{});
      });
      break;
    }
    case OpType::kDelete: {
      cache->RemoveAsync(key, AsyncCallback{});
      tenant.versions.erase(op.key_id);
      break;
    }
  }
  // Sliding window: pump completions until the tenant is back under the
  // cache-tier queue-depth budget (blocking pumps park on the device, so
  // this is where the op loop genuinely waits for flash).
  while (tenant.cache->pending_async_ops() >= config_.cache_queue_depth) {
    const size_t before = tenant.cache->pending_async_ops();
    tenant.cache->PumpAsync(/*blocking=*/true);
    if (tenant.cache->pending_async_ops() >= before) {
      break;  // Nothing parked to wait on; never spin.
    }
  }
  MaybeBackpressure();
}

void ExperimentRunner::ExecuteOp(Tenant& tenant, const Op& op) {
  if (config_.cache_queue_depth > 1) {
    ExecuteOpAsync(tenant, op);
    return;
  }
  stack_->clock().Advance(kHostCpuNsPerOp);
  const std::string key = KeyString(op.key_id);
  switch (op.type) {
    case OpType::kSet: {
      const uint32_t version = ++tenant.versions[op.key_id];
      tenant.cache->Set(key, ValuePayload(op.key_id, version, op.value_size));
      break;
    }
    case OpType::kGet: {
      std::string value;
      if (tenant.cache->Get(key, &value)) {
        if (config_.verify_values) {
          const auto it = tenant.versions.find(op.key_id);
          const uint32_t version = it == tenant.versions.end() ? 1 : it->second;
          if (value != ValuePayload(op.key_id, version, op.value_size)) {
            ++tenant.verify_failures;
          }
        }
      } else {
        // Cache miss: fetch from the backend and fill (CacheBench get path).
        stack_->clock().Advance(kBackendFetchNs);
        uint32_t& version = tenant.versions[op.key_id];
        if (version == 0) {
          version = 1;
        }
        tenant.cache->Set(key, ValuePayload(op.key_id, version, op.value_size));
      }
      break;
    }
    case OpType::kDelete: {
      tenant.cache->Remove(key);
      tenant.versions.erase(op.key_id);
      break;
    }
  }
  MaybeBackpressure();
}

MetricsReport ExperimentRunner::Run() {
  SimulatedSsd* ssd = stack_->ssd();
  // One round: the next op of each tenant, in tenant order.
  const auto run_round = [this] {
    for (auto& tenant : tenants_) {
      ExecuteOp(*tenant, *tenant->generator->Next());
    }
    return tenants_.size();
  };

  // --- Warm-up: fill the flash cache, then reset statistics -----------------
  const uint64_t warmup_bytes = static_cast<uint64_t>(
      config_.warmup_cache_writes *
      static_cast<double>(cache_bytes_per_tenant_ * config_.num_tenants));
  uint64_t warmup_ops = 0;
  while (HostBytesWritten() < warmup_bytes && warmup_ops < config_.max_warmup_ops) {
    warmup_ops += run_round();
  }
  // At queue_depth > 1 the engines may still hold in-flight warm-up writes;
  // retire them before the reset so the measured phase starts quiescent.
  // ReapPending (not Flush) keeps the open LOC region's fill state intact,
  // so the async run enters measurement from the same cache state a
  // synchronous run would — only the pending device writes land. At
  // queue_depth == 1 nothing is in flight and this is skipped entirely.
  run_ = MetricsReport{};
  if (!Barrier()) {
    ++run_.flush_failures;
  }
  if (ssd != nullptr) {
    ssd->ftl().ResetStats();
    ssd->ResetGcStats();
  }
  for (auto& tenant : tenants_) {
    tenant->cache->ResetStats();
    tenant->verify_failures = 0;
  }
  stack_->device().ResetStats();
  // Observability covers only the measured phase: tracing and the live
  // snapshots start after the warm-up reset so stage spans and time series
  // describe steady state. Both read the wall clock only — the virtual
  // clock (and with it every virtual-time metric) is untouched.
  if (config_.trace_enabled) {
    obs::TraceController::Instance().Clear();
    obs::TraceController::Instance().Enable(config_.trace_sample);
  }
  const auto metrics_interval = std::chrono::milliseconds(config_.metrics_interval_ms);
  auto next_snapshot = std::chrono::steady_clock::now() + metrics_interval;
  measure_start_ = Now();

  // --- Measured phase with interval DLWA sampling ---------------------------
  FdpStatistics last_sample =
      ssd != nullptr ? ssd->GetFdpStatisticsLog() : FdpStatistics{};
  uint64_t& executed = run_.ops_executed;
  // Live exposition: every 256 ops, publish a snapshot if an interval has
  // passed on the steady clock.
  const auto maybe_publish = [&] {
    if (config_.metrics_interval_ms == 0 || executed % 256 >= tenants_.size()) {
      return;
    }
    const auto wall_now = std::chrono::steady_clock::now();
    if (wall_now >= next_snapshot) {
      publisher_->Publish(obs::RenderPrometheus(ReportSamples(Collect())));
      next_snapshot = wall_now + metrics_interval;
    }
  };
  if (config_.overwrite_passes > 0) {
    // Steady-state churn: run until the host has overwritten the device's
    // logical capacity `overwrite_passes` times (paper's DLWA regime — every
    // RU rewritten, GC continuously active). Progress is polled from the FDP
    // statistics log on a coarse stride; DLWA samples fall on equal
    // host-byte intervals instead of op counts.
    const uint64_t target_bytes = static_cast<uint64_t>(
        config_.overwrite_passes * static_cast<double>(logical_bytes_));
    const uint64_t check_every = 512 * tenants_.size();
    const uint64_t sample_stride =
        std::max<uint64_t>(1, target_bytes / std::max(1u, config_.dlwa_samples));
    uint64_t next_sample_bytes = sample_stride;
    uint64_t written = 0;
    while (written < target_bytes && executed < config_.max_steady_ops) {
      executed += run_round();
      maybe_publish();
      if (executed % check_every < tenants_.size()) {
        written = HostBytesWritten();
        if (ssd != nullptr && written >= next_sample_bytes) {
          const FdpStatistics now_stats = ssd->GetFdpStatisticsLog();
          if (now_stats.host_bytes_written > last_sample.host_bytes_written) {
            run_.interval_dlwa.push_back(FdpStatistics::IntervalDlwa(last_sample, now_stats));
            last_sample = now_stats;
            next_sample_bytes += sample_stride;
          }
        }
      }
    }
  } else {
    const uint64_t sample_interval =
        std::max<uint64_t>(1, config_.total_ops / std::max(1u, config_.dlwa_samples));
    while (executed < config_.total_ops) {
      executed += run_round();
      maybe_publish();
      if (ssd != nullptr && executed % sample_interval < tenants_.size()) {
        const FdpStatistics now_stats = ssd->GetFdpStatisticsLog();
        if (now_stats.host_bytes_written > last_sample.host_bytes_written) {
          run_.interval_dlwa.push_back(FdpStatistics::IntervalDlwa(last_sample, now_stats));
          last_sample = now_stats;
        }
      }
    }
  }

  // Sample the sustained cache-tier queue depth before the barrier drains it.
  for (auto& tenant : tenants_) {
    run_.pending_cache_ops.push_back(tenant->cache->pending_async_ops());
  }

  // Reap the async pipeline before reading any statistic, so host/device
  // byte counts, latency histograms, and FTL state cover every submitted
  // write. Drain-only (no seal): the open region's unwritten tail stays
  // unwritten, exactly as it would in a synchronous run, keeping qd>1 byte
  // accounting comparable to the qd=1 baseline. No-op in synchronous mode.
  if (!Barrier()) {
    ++run_.flush_failures;
  }

  // Tracing stays live through the barrier above so completion-delivery tails
  // of sampled requests are captured; disable before reading the rings.
  if (config_.trace_enabled) {
    obs::TraceController& tc = obs::TraceController::Instance();
    tc.Disable();
    std::vector<obs::TraceEvent> events = tc.Collect();
    obs::SynthesizeCompletionDelivery(&events);
    if (trace_file_ != nullptr) {
      const bool written = obs::WriteChromeTrace(events, trace_file_);
      const bool closed = std::fclose(trace_file_) == 0;
      trace_file_ = nullptr;
      if (!written || !closed) {
        throw std::runtime_error("trace output " + config_.trace_path + ": cannot write: " +
                                 std::strerror(errno));
      }
    }
    run_.trace = obs::BuildTraceBreakdown(events);
    run_.trace.dropped = tc.DroppedEvents();
    run_.traced = true;
  }

  MetricsReport report = Collect();
  if (publisher_ != nullptr) {
    // The final snapshot covers the whole measured phase.
    publisher_->Publish(obs::RenderPrometheus(ReportSamples(report)));
    report.metrics_snapshots = publisher_->snapshots_written();
  }
  return report;
}

MetricsReport ExperimentRunner::Collect() const {
  MetricsReport report = run_;
  const SimulatedSsd* ssd = stack_->ssd();
  const Device& device = stack_->device();
  const TimeNs elapsed = Now() - measure_start_;
  report.elapsed_virtual_ns = elapsed;
  report.throughput_kops = elapsed == 0 ? 0.0
                                        : static_cast<double>(report.ops_executed) /
                                              (static_cast<double>(elapsed) / 1e9) / 1e3;

  HybridCacheStats cache_stats;
  uint64_t item_bytes = 0;
  uint64_t dev_bytes = 0;
  uint64_t soc_dev_bytes = 0;
  for (const auto& tenant : tenants_) {
    cache_stats.Merge(tenant->cache->stats());
    const NavyStats navy = tenant->cache->navy().stats();
    item_bytes += navy.soc.item_bytes_written + navy.loc.item_bytes_written;
    dev_bytes += navy.soc.bytes_written + navy.loc.bytes_written;
    soc_dev_bytes += navy.soc.bytes_written;
    report.verify_failures += tenant->verify_failures;
    report.pending_ops += tenant->cache->pending_async_ops();
    report.epoch_limbo_nodes += tenant->cache->ram().deferred_nodes();
  }
  report.gets = cache_stats.gets;
  report.sets = cache_stats.sets;
  report.ram_hits = cache_stats.ram_hits;
  report.nvm_lookups = cache_stats.nvm_lookups;
  report.nvm_hits = cache_stats.nvm_hits;
  report.misses = cache_stats.misses;
  report.hit_ratio = cache_stats.HitRatio();
  report.nvm_hit_ratio = cache_stats.NvmHitRatio();
  report.alwa =
      item_bytes == 0 ? 1.0 : static_cast<double>(dev_bytes) / static_cast<double>(item_bytes);
  report.soc_write_share =
      dev_bytes == 0 ? 0.0 : static_cast<double>(soc_dev_bytes) / static_cast<double>(dev_bytes);
  report.epoch_active_readers = EpochRegistry::Instance().ActiveReaders();

  report.device_queue_pairs = device.PerQueuePairStats();
  report.device_lanes = device.PerLaneStats();
  report.device_in_flight = device.InFlight();
  report.device_page_bytes = device.page_size();
  // Device::stats() is this sum; merging the copy keeps one read of the QPs.
  DeviceStats device_stats;
  for (const QueuePairStats& qp : report.device_queue_pairs) {
    device_stats.Merge(qp);
  }
  const Histogram& reads = device_stats.read_latency_ns;
  const Histogram& writes = device_stats.write_latency_ns;
  report.p50_read_ns = reads.Percentile(50);
  report.p99_read_ns = reads.Percentile(99);
  report.p999_read_ns = reads.Percentile(99.9);
  report.p50_write_ns = writes.Percentile(50);
  report.p99_write_ns = writes.Percentile(99);
  report.p999_write_ns = writes.Percentile(99.9);

  // A plain file rewrites in place: device bytes == host bytes, DLWA 1.
  report.host_bytes_written = dev_bytes;
  report.device_physical_bytes =
      ssd != nullptr ? ssd->physical_capacity_bytes() : device.size_bytes();
  if (ssd != nullptr) {
    const SsdTelemetry telemetry = ssd->Telemetry(elapsed);
    report.final_dlwa = telemetry.dlwa;
    report.host_bytes_written = telemetry.fdp_stats.host_bytes_written;
    report.gc_events = telemetry.gc_events;
    report.per_die_busy_ns = telemetry.per_die_busy_ns;
    report.gc_relocated_pages = telemetry.gc_relocated_pages;
    report.clean_ru_erases = telemetry.clean_ru_erases;
    report.op_energy_uj = telemetry.op_energy_uj;
    report.total_energy_uj = telemetry.total_energy_uj;
    report.wear_max_pe = telemetry.max_pe_cycles;
    report.gc_bg_ticks = telemetry.gc_unit.ticks;
    report.gc_bg_migrated_pages = telemetry.gc_unit.migrated_pages;
    report.gc_bg_erases = telemetry.gc_unit.erases;
    report.gc_bg_deferred_ticks = telemetry.gc_unit.deferred_ticks;
    report.gc_bg_abandoned = telemetry.gc_unit.victims_abandoned;
    report.erase_suspensions = telemetry.erase_suspensions;
    report.host_stall_ns = telemetry.host_stall_ns;
    report.gc_die_ns = telemetry.gc_die_ns;
    for (const RuhIoStats& ruh : telemetry.ruh_io) {
      report.per_ruh_dlwa.push_back(ruh.Dlwa());
    }
  }
  report.overwrite_passes_done = static_cast<double>(report.host_bytes_written) /
                                 static_cast<double>(logical_bytes_);
  report.cache_bytes = cache_bytes_per_tenant_;
  report.ram_bytes = ram_bytes_;
  return report;
}

}  // namespace fdpcache
