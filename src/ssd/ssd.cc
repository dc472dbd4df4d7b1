#include "src/ssd/ssd.h"

#include <algorithm>
#include <cstring>

#include "src/obs/trace.h"

namespace fdpcache {

namespace {

FtlConfig MakeFtlConfig(const SsdConfig& config) {
  FtlConfig ftl;
  ftl.geometry = config.geometry;
  ftl.endurance = config.endurance;
  ftl.fdp = config.fdp;
  ftl.op_fraction = config.op_fraction;
  ftl.fdp_enabled = config.fdp_enabled;
  ftl.static_wear_leveling = config.static_wear_leveling;
  ftl.wear_delta_threshold = config.wear_delta_threshold;
  return ftl;
}

NvmeStatus ToNvmeStatus(FtlStatus status) {
  switch (status) {
    case FtlStatus::kOk:
      return NvmeStatus::kSuccess;
    case FtlStatus::kLbaOutOfRange:
      return NvmeStatus::kLbaOutOfRange;
    case FtlStatus::kInvalidPlacementId:
      return NvmeStatus::kInvalidField;
    case FtlStatus::kDeviceFull:
      return NvmeStatus::kCapacityExceeded;
    case FtlStatus::kInternalError:
      return NvmeStatus::kInternalError;
  }
  return NvmeStatus::kInternalError;
}

}  // namespace

SimulatedSsd::SimulatedSsd(const SsdConfig& config)
    : config_(config),
      ftl_(std::make_unique<Ftl>(MakeFtlConfig(config), this)),
      dies_(config.geometry.num_dies),
      data_(ftl_->logical_pages(), config.geometry.page_size_bytes),
      gc_unit_(std::make_unique<GcUnit>(ftl_.get(), config.gc)) {}

std::optional<uint32_t> SimulatedSsd::CreateNamespace(uint64_t size_bytes) {
  fdp::MutexLock lock(&mu_);
  const uint64_t pages = CeilDiv(size_bytes, config_.geometry.page_size_bytes);
  if (pages == 0 || allocated_pages_ + pages > ftl_->logical_pages()) {
    return std::nullopt;
  }
  NamespaceInfo info;
  info.nsid = static_cast<uint32_t>(namespaces_.size()) + 1;
  info.base_lpn = allocated_pages_;
  info.size_pages = pages;
  namespaces_.push_back(info);
  allocated_pages_ += pages;
  return info.nsid;
}

uint64_t SimulatedSsd::UnallocatedBytes() const {
  fdp::MutexLock lock(&mu_);
  return (ftl_->logical_pages() - allocated_pages_) * config_.geometry.page_size_bytes;
}

std::optional<uint64_t> SimulatedSsd::Translate(uint32_t nsid, uint64_t slba,
                                                uint64_t nlb) const {
  if (nsid == 0 || nsid > namespaces_.size()) {
    return std::nullopt;
  }
  const NamespaceInfo& ns = namespaces_[nsid - 1];
  if (slba + nlb > ns.size_pages) {
    return std::nullopt;
  }
  return ns.base_lpn + slba;
}

NvmeCompletion SimulatedSsd::Write(uint32_t nsid, uint64_t slba, uint32_t nlb,
                                   const void* data, DirectiveType dtype, uint16_t dspec,
                                   TimeNs now) {
  NvmeCompletion completion;
  completion.submitted_at = now;
  completion.completed_at = now;
  const uint64_t page_size = config_.geometry.page_size_bytes;
  const auto* bytes = static_cast<const uint8_t*>(data);
  // Phase 1 (under the lock): translation, FTL mapping, die timing, and
  // frame resolution. Phase 2 (outside): the payload memcpys, so concurrent
  // executors overlap data movement instead of convoying on mu_. On a
  // partial failure the successfully mapped prefix still gets its bytes,
  // matching the historical in-lock behaviour.
  std::vector<DataStore::Frame> frames;
  {
    fdp::MutexLock lock(&mu_);
    const std::optional<uint64_t> base = Translate(nsid, slba, nlb);
    if (!base.has_value()) {
      completion.status = nsid == 0 || nsid > namespaces_.size() ? NvmeStatus::kInvalidNamespace
                                                                 : NvmeStatus::kLbaOutOfRange;
      return completion;
    }
    op_now_ = now;
    host_op_completion_ = now;
    if (bytes != nullptr) {
      frames.reserve(nlb);
    }
    for (uint32_t i = 0; i < nlb; ++i) {
      const uint64_t lpn = *base + i;
      const FtlStatus st = ftl_->WritePage(lpn, dtype, dspec);
      if (st != FtlStatus::kOk) {
        completion.status = ToNvmeStatus(st);
        break;
      }
      if (bytes != nullptr) {
        frames.push_back(data_.WriteFrame(lpn));
      }
    }
    if (completion.ok()) {
      completion.completed_at = host_op_completion_ + config_.timing.transfer_page_ns * nlb;
    }
    TickGcLocked();
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    std::memcpy(frames[i].get(), bytes + i * page_size, page_size);
  }
  return completion;
}

NvmeCompletion SimulatedSsd::Read(uint32_t nsid, uint64_t slba, uint32_t nlb, void* out,
                                  TimeNs now) {
  NvmeCompletion completion;
  completion.submitted_at = now;
  completion.completed_at = now;
  const uint64_t page_size = config_.geometry.page_size_bytes;
  auto* bytes = static_cast<uint8_t*>(out);
  // Same two-phase split as Write: frame pointers are resolved under the
  // lock (a TRIM racing us detaches the frame but the shared_ptr keeps the
  // bytes alive), the copies run outside it.
  std::vector<DataStore::Frame> frames;
  {
    fdp::MutexLock lock(&mu_);
    const std::optional<uint64_t> base = Translate(nsid, slba, nlb);
    if (!base.has_value()) {
      completion.status = nsid == 0 || nsid > namespaces_.size() ? NvmeStatus::kInvalidNamespace
                                                                 : NvmeStatus::kLbaOutOfRange;
      return completion;
    }
    op_now_ = now;
    host_op_completion_ = now;
    if (bytes != nullptr) {
      frames.reserve(nlb);
    }
    for (uint32_t i = 0; i < nlb; ++i) {
      const uint64_t lpn = *base + i;
      ftl_->ReadPage(lpn);  // Unmapped pages read back as zeroes below.
      if (bytes != nullptr) {
        frames.push_back(data_.ReadFrame(lpn));
      }
    }
    completion.completed_at = host_op_completion_ + config_.timing.transfer_page_ns * nlb;
    TickGcLocked();
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    if (frames[i]) {
      std::memcpy(bytes + i * page_size, frames[i].get(), page_size);
    } else {
      std::memset(bytes + i * page_size, 0, page_size);
    }
  }
  return completion;
}

NvmeCompletion SimulatedSsd::Deallocate(uint32_t nsid, uint64_t slba, uint64_t nlb,
                                        TimeNs now) {
  fdp::MutexLock lock(&mu_);
  NvmeCompletion completion;
  completion.submitted_at = now;
  // Deallocate is a metadata operation; it completes "immediately" in the
  // simulator (a fixed small controller cost).
  completion.completed_at = now + 2 * kMicrosecond;
  const std::optional<uint64_t> base = Translate(nsid, slba, nlb);
  if (!base.has_value()) {
    completion.status = nsid == 0 || nsid > namespaces_.size() ? NvmeStatus::kInvalidNamespace
                                                               : NvmeStatus::kLbaOutOfRange;
    return completion;
  }
  op_now_ = now;
  host_op_completion_ = now;
  for (uint64_t i = 0; i < nlb; ++i) {
    const uint64_t lpn = *base + i;
    ftl_->TrimPage(lpn);
    data_.Trim(lpn);
  }
  TickGcLocked();
  return completion;
}

FdpCapabilities SimulatedSsd::IdentifyFdp() const {
  fdp::MutexLock lock(&mu_);
  FdpCapabilities caps;
  caps.fdp_supported = true;
  caps.fdp_enabled = ftl_->fdp_enabled();
  caps.num_ruhs = config_.fdp.num_ruhs();
  caps.num_reclaim_groups = config_.fdp.num_reclaim_groups;
  caps.ru_size_bytes = config_.geometry.SuperblockBytes();
  caps.ruh_type = config_.fdp.ruhs.empty() ? RuhType::kInitiallyIsolated
                                           : config_.fdp.ruhs.front().type;
  return caps;
}

bool SimulatedSsd::SetFdpEnabled(bool enabled) {
  fdp::MutexLock lock(&mu_);
  if (ftl_->mapped_pages() != 0) {
    return false;  // Real devices require reformat; we require an empty FTL.
  }
  ftl_->set_fdp_enabled(enabled);
  return true;
}

void SimulatedSsd::TrimAll(bool reset_stats) {
  fdp::MutexLock lock(&mu_);
  for (const NamespaceInfo& ns : namespaces_) {
    for (uint64_t i = 0; i < ns.size_pages; ++i) {
      ftl_->TrimPage(ns.base_lpn + i);
      data_.Trim(ns.base_lpn + i);
    }
  }
  if (reset_stats) {
    ftl_->ResetStats();
  }
}

SsdTelemetry SimulatedSsd::Telemetry(TimeNs elapsed) const {
  fdp::MutexLock lock(&mu_);
  SsdTelemetry t;
  t.nand = ftl_->media().counts();
  t.ftl = ftl_->counters();
  t.fdp_stats = ftl_->stats();
  t.gc_events = ftl_->event_log().TotalOf(FdpEventType::kMediaRelocated);
  t.gc_relocated_pages = ftl_->event_log().relocated_pages_total();
  t.clean_ru_erases = ftl_->counters().clean_ru_erases;
  t.op_energy_uj = ftl_->media().op_energy_uj(config_.energy);
  t.total_energy_uj =
      t.op_energy_uj + config_.energy.idle_power_w * (static_cast<double>(elapsed) / 1e3);
  t.per_die_busy_ns = dies_.per_die_busy_ns();
  t.max_pe_cycles = ftl_->media().max_erase_count();
  t.dlwa = ftl_->stats().Dlwa();
  t.gc_unit = gc_unit_->stats();
  t.erase_suspensions = dies_.erase_suspensions();
  t.host_stall_ns = host_stall_ns_;
  t.gc_die_ns = gc_die_ns_;
  t.ruh_io = ftl_->ruh_io_stats();
  t.unattributed_media_bytes = ftl_->unattributed_media_bytes();
  return t;
}

void SimulatedSsd::OnPageRead(uint64_t ppn, bool is_gc) {
  // Reached from the FTL through the listener interface; the command path
  // that invoked the FTL holds mu_ (runtime-checked, since the analysis
  // cannot follow the virtual call).
  mu_.AssertHeld();
  const uint32_t die = ftl_->PpnDie(ppn);
  const TimeNs duration = config_.timing.read_page_ns;
  TimeNs done;
  if (!is_gc && gc_unit_->mode() == GcMode::kFeedback) {
    bool suspended = false;
    done = dies_.ScheduleSuspendableRead(die, op_now_, duration, &suspended);
  } else {
    done = dies_.Schedule(die, op_now_, duration);
  }
  if (!is_gc) {
    host_op_completion_ = std::max(host_op_completion_, done);
    host_stall_ns_ += (done - duration) - op_now_;
  } else {
    gc_die_ns_ += duration;
  }
}

void SimulatedSsd::OnPageProgram(uint64_t ppn, bool is_gc) {
  mu_.AssertHeld();  // See OnPageRead.
  const uint32_t die = ftl_->PpnDie(ppn);
  const TimeNs done = dies_.Schedule(die, op_now_, config_.timing.program_page_ns);
  if (!is_gc) {
    host_op_completion_ = std::max(host_op_completion_, done);
    host_stall_ns_ += (done - config_.timing.program_page_ns) - op_now_;
  } else {
    gc_die_ns_ += config_.timing.program_page_ns;
  }
}

void SimulatedSsd::OnSuperblockErase(uint32_t /*superblock*/) {
  mu_.AssertHeld();  // See OnPageRead.
  // All planes of each die erase in parallel: one erase interval per die.
  // Erases are suspendable — a foreground read arriving while one is in
  // flight may preempt it (feedback GC mode only; see OnPageRead).
  for (uint32_t die = 0; die < config_.geometry.num_dies; ++die) {
    dies_.ScheduleErase(die, op_now_, config_.timing.erase_block_ns);
    gc_die_ns_ += config_.timing.erase_block_ns;
  }
}

uint32_t SimulatedSsd::OnRuOpen(uint32_t /*superblock*/, bool /*gc_destination*/) {
  mu_.AssertHeld();  // See OnPageRead.
  // Feedback placement: phase each fresh RU's stripe onto the coldest die so
  // appends drain toward idle dies instead of piling behind busy ones.
  if (gc_unit_->mode() == GcMode::kFeedback) {
    return dies_.ColdestDie();
  }
  return 0;
}

void SimulatedSsd::TickGcLocked() {
  if (!gc_unit_->enabled()) {
    return;
  }
  const uint64_t trace_start = obs::TracingEnabled() ? obs::NowNs() : 0;
  const uint32_t pages = gc_unit_->Tick(host_load_hint_.load(std::memory_order_relaxed));
  // GC ticks belong to no request: trace_id 0 spans show up on the gc_tick
  // timeline row of the exported trace. Only ticks that migrated pages are
  // recorded — an idle tick is a few loads, not a span worth a ring slot.
  if (trace_start != 0 && pages > 0) {
    obs::RecordSpan(0, obs::TraceStage::kGcTick, trace_start, obs::NowNs());
  }
}

uint32_t SimulatedSsd::RunGcTick(TimeNs now) {
  fdp::MutexLock lock(&mu_);
  if (!gc_unit_->enabled()) {
    return 0;
  }
  op_now_ = now;
  host_op_completion_ = now;
  const uint64_t trace_start = obs::TracingEnabled() ? obs::NowNs() : 0;
  const uint32_t pages = gc_unit_->Tick(host_load_hint_.load(std::memory_order_relaxed));
  if (trace_start != 0 && pages > 0) {
    obs::RecordSpan(0, obs::TraceStage::kGcTick, trace_start, obs::NowNs());
  }
  return pages;
}

void SimulatedSsd::ResetGcStats() {
  fdp::MutexLock lock(&mu_);
  gc_unit_->ResetStats();
  host_stall_ns_ = 0;
  gc_die_ns_ = 0;
}

}  // namespace fdpcache
