#include "src/ftl/ftl.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace fdpcache {

Ftl::Ftl(const FtlConfig& config, FtlEventListener* listener)
    : config_(config),
      listener_(listener),
      media_(config.geometry, config.endurance),
      logical_pages_(LogicalPages(config.geometry, config.op_fraction)),
      map_(logical_pages_, kUnmapped),
      rus_(config.geometry.num_superblocks),
      host_open_ru_(config.fdp.num_ruhs(), -1),
      gc_open_ru_(1 + config.fdp.num_ruhs(), -1),
      origin_(config.geometry.TotalPages(), -1),
      ruh_stats_(config.fdp.num_ruhs()) {
  free_rus_.reserve(config.geometry.num_superblocks);
  // LIFO pool: lowest-numbered RUs get used first, which makes unit tests
  // deterministic and easy to reason about.
  for (uint32_t ru = config.geometry.num_superblocks; ru-- > 0;) {
    free_rus_.push_back(ru);
  }
}

uint64_t Ftl::LogicalPages(const NandGeometry& geometry, double op_fraction) {
  return static_cast<uint64_t>(
      std::floor(static_cast<double>(geometry.TotalPages()) * (1.0 - op_fraction)));
}

FtlStatus Ftl::ResolveRuh(DirectiveType dtype, uint16_t dspec, uint32_t* ruh_out) {
  if (!config_.fdp_enabled || dtype != DirectiveType::kDataPlacement) {
    *ruh_out = 0;
    return FtlStatus::kOk;
  }
  const PlacementId pid = DecodeDspec(dspec);
  if (!config_.fdp.IsValidPid(pid)) {
    event_log_.Append(
        FdpEvent{FdpEventType::kInvalidPlacementId, pid, 0, 0, 0});
    return FtlStatus::kInvalidPlacementId;
  }
  *ruh_out = pid.ruh_index;
  return FtlStatus::kOk;
}

FtlStatus Ftl::WritePage(uint64_t lpn, DirectiveType dtype, uint16_t dspec) {
  if (lpn >= logical_pages_) {
    return FtlStatus::kLbaOutOfRange;
  }
  uint32_t ruh = 0;
  const FtlStatus resolve = ResolveRuh(dtype, dspec, &ruh);
  if (resolve != FtlStatus::kOk) {
    return resolve;
  }
  // Program the new copy first: a failed allocation must leave the old data
  // intact, and GC triggered by this append may itself move the old copy.
  const std::optional<uint64_t> ppn = AppendToHostStream(ruh, lpn);
  if (!ppn.has_value()) {
    return FtlStatus::kDeviceFull;
  }
  if (map_[lpn] != kUnmapped) {
    InvalidatePpn(map_[lpn]);  // Note: GC may have relocated it; map_ is current.
  } else {
    ++mapped_pages_;
  }
  map_[lpn] = *ppn;
  const uint64_t page_bytes = config_.geometry.page_size_bytes;
  stats_.host_bytes_written += page_bytes;
  stats_.media_bytes_written += page_bytes;
  ruh_stats_[ruh].host_bytes_written += page_bytes;
  ruh_stats_[ruh].media_bytes_written += page_bytes;
  ++counters_.host_pages_written;
  return FtlStatus::kOk;
}

std::optional<uint64_t> Ftl::ReadPage(uint64_t lpn) {
  if (lpn >= logical_pages_ || map_[lpn] == kUnmapped) {
    return std::nullopt;
  }
  const uint64_t ppn = map_[lpn];
  media_.ReadPage(ppn);
  if (listener_ != nullptr) {
    listener_->OnPageRead(ppn, /*is_gc=*/false);
  }
  return ppn;
}

std::optional<uint64_t> Ftl::LookupPage(uint64_t lpn) const {
  if (lpn >= logical_pages_ || map_[lpn] == kUnmapped) {
    return std::nullopt;
  }
  return map_[lpn];
}

FtlStatus Ftl::TrimPage(uint64_t lpn) {
  if (lpn >= logical_pages_) {
    return FtlStatus::kLbaOutOfRange;
  }
  if (map_[lpn] != kUnmapped) {
    InvalidatePpn(map_[lpn]);
    map_[lpn] = kUnmapped;
    --mapped_pages_;
    ++counters_.trimmed_pages;
  }
  return FtlStatus::kOk;
}

void Ftl::InvalidatePpn(uint64_t ppn) {
  media_.InvalidatePage(ppn);
  ReclaimUnitInfo& ru = rus_[config_.geometry.SuperblockOfPpn(ppn)];
  --ru.valid_pages;
}

std::optional<uint32_t> Ftl::OpenRu(int32_t owner, bool gc_destination) {
  // Host allocations run GC first when the pool would drop to the reserve,
  // and must never consume the reserve itself: GC destinations need it.
  // GC-internal allocations may dip into the reserve (transiently to zero;
  // each victim reclaim returns at least one RU).
  if (!in_gc_) {
    if (free_rus_.size() <= kGcFreeRuWatermark) {
      MaybeRunGc();
    }
    if (free_rus_.size() <= kGcFreeRuWatermark) {
      return std::nullopt;
    }
  }
  if (free_rus_.empty()) {
    return std::nullopt;
  }
  const uint32_t ru = free_rus_.back();
  free_rus_.pop_back();
  ReclaimUnitInfo& info = rus_[ru];
  info.state = RuState::kOpen;
  info.write_ptr = 0;
  info.valid_pages = 0;
  info.owner = owner;
  info.is_gc_destination = gc_destination;
  info.open_seq = ++open_seq_;
  info.die_phase =
      listener_ == nullptr
          ? 0
          : listener_->OnRuOpen(ru, gc_destination) % config_.geometry.num_dies;
  return ru;
}

std::optional<uint64_t> Ftl::AppendToRu(uint32_t ru, uint64_t lpn, bool is_gc) {
  ReclaimUnitInfo& info = rus_[ru];
  const uint64_t ppn = config_.geometry.PpnOf(ru, info.write_ptr);
  const MediaStatus st = media_.ProgramPage(ppn, lpn);
  if (st != MediaStatus::kOk) {
    return std::nullopt;
  }
  if (listener_ != nullptr) {
    listener_->OnPageProgram(ppn, is_gc);
  }
  ++info.write_ptr;
  ++info.valid_pages;
  return ppn;
}

std::optional<uint64_t> Ftl::AppendToHostStream(uint32_t ruh, uint64_t lpn) {
  int32_t ru = host_open_ru_[ruh];
  if (ru < 0) {
    const auto opened = OpenRu(static_cast<int32_t>(ruh), /*gc_destination=*/false);
    if (!opened.has_value()) {
      return std::nullopt;
    }
    ru = static_cast<int32_t>(*opened);
    host_open_ru_[ruh] = ru;
  }
  // When GC shares the host context (conventional mode), relocations flow
  // through here: charge them as GC work and preserve data provenance.
  const std::optional<uint64_t> ppn = AppendToRu(static_cast<uint32_t>(ru), lpn, in_gc_);
  if (!ppn.has_value()) {
    return std::nullopt;
  }
  origin_[*ppn] = in_gc_ ? relocating_origin_ : static_cast<int16_t>(ruh);
  if (rus_[ru].write_ptr == config_.geometry.PagesPerSuperblock()) {
    rus_[ru].state = RuState::kClosed;
    host_open_ru_[ruh] = -1;
    event_log_.Append(FdpEvent{FdpEventType::kRuSwitched,
                               PlacementId{0, static_cast<uint16_t>(ruh)},
                               static_cast<uint32_t>(ru), 0, 0});
  }
  return ppn;
}

int32_t Ftl::GcStreamFor(int32_t victim_owner) const {
  if (victim_owner >= 0 &&
      config_.fdp.ruhs[static_cast<size_t>(victim_owner)].type ==
          RuhType::kPersistentlyIsolated) {
    return 1 + victim_owner;
  }
  return 0;  // Mixed stream: initially isolated data may intermix under GC.
}

std::optional<uint64_t> Ftl::AppendToGcStream(int32_t victim_owner, uint64_t lpn) {
  const int32_t stream = GcStreamFor(victim_owner);
  int32_t ru = gc_open_ru_[static_cast<size_t>(stream)];
  if (ru < 0) {
    const int32_t owner = stream == 0 ? kMixedGcOwner : stream - 1;
    const auto opened = OpenRu(owner, /*gc_destination=*/true);
    if (!opened.has_value()) {
      return std::nullopt;
    }
    ru = static_cast<int32_t>(*opened);
    gc_open_ru_[static_cast<size_t>(stream)] = ru;
  }
  const std::optional<uint64_t> ppn = AppendToRu(static_cast<uint32_t>(ru), lpn, /*is_gc=*/true);
  if (!ppn.has_value()) {
    return std::nullopt;
  }
  origin_[*ppn] = relocating_origin_;
  if (rus_[ru].write_ptr == config_.geometry.PagesPerSuperblock()) {
    rus_[ru].state = RuState::kClosed;
    gc_open_ru_[static_cast<size_t>(stream)] = -1;
  }
  return ppn;
}

std::optional<uint32_t> Ftl::PickGcVictim() const {
  std::optional<uint32_t> best;
  uint32_t best_valid = ~0u;
  uint64_t best_seq = ~0ull;
  for (uint32_t ru = 0; ru < rus_.size(); ++ru) {
    const ReclaimUnitInfo& info = rus_[ru];
    if (info.state != RuState::kClosed) {
      continue;
    }
    // Prefer fewer valid pages; break ties toward the oldest RU so cold data
    // does not linger forever.
    if (info.valid_pages < best_valid ||
        (info.valid_pages == best_valid && info.open_seq < best_seq)) {
      best = ru;
      best_valid = info.valid_pages;
      best_seq = info.open_seq;
    }
  }
  // A fully valid victim frees nothing; reclaiming it would loop forever.
  if (best.has_value() && best_valid >= config_.geometry.PagesPerSuperblock()) {
    return std::nullopt;
  }
  return best;
}

uint32_t Ftl::MigrateVictimPages(uint32_t victim, uint32_t* offset, uint32_t max_pages,
                                 bool* out_of_space) {
  ReclaimUnitInfo& info = rus_[victim];
  const int32_t victim_owner = info.owner;
  // Relocations must be able to dip into the free reserve for their
  // destination and must not re-trigger GC; foreground callers already hold
  // in_gc_, background callers (the GcUnit) get it here.
  const bool was_in_gc = in_gc_;
  in_gc_ = true;
  *out_of_space = false;
  uint32_t moved = 0;
  while (*offset < info.write_ptr && moved < max_pages) {
    const uint64_t ppn = config_.geometry.PpnOf(victim, *offset);
    if (media_.page_state(ppn) != PageState::kValid) {
      ++*offset;
      continue;
    }
    const uint64_t lpn = media_.page_lpn(ppn);
    media_.ReadPage(ppn);
    if (listener_ != nullptr) {
      listener_->OnPageRead(ppn, /*is_gc=*/true);
    }
    relocating_origin_ = origin_[ppn];
    const std::optional<uint64_t> new_ppn = AppendToGcStream(victim_owner, lpn);
    relocating_origin_ = -1;
    if (!new_ppn.has_value()) {
      *out_of_space = true;  // Out of space mid-relocation: configuration error.
      break;
    }
    media_.InvalidatePage(ppn);
    --info.valid_pages;
    map_[lpn] = *new_ppn;
    stats_.media_bytes_written += config_.geometry.page_size_bytes;
    // Relocation bandwidth is charged to the moved data's ORIGIN handle, so
    // per-RUH DLWA shows which streams cause background rewriting.
    const int16_t moved_origin = origin_[*new_ppn];
    if (moved_origin >= 0 && static_cast<size_t>(moved_origin) < ruh_stats_.size()) {
      ruh_stats_[static_cast<size_t>(moved_origin)].media_bytes_written +=
          config_.geometry.page_size_bytes;
    } else {
      unattributed_media_bytes_ += config_.geometry.page_size_bytes;
    }
    ++moved;
    ++*offset;
  }
  in_gc_ = was_in_gc;
  return moved;
}

bool Ftl::FinishVictimReclaim(uint32_t victim, uint64_t relocated) {
  ReclaimUnitInfo& info = rus_[victim];
  if (info.state != RuState::kClosed || info.valid_pages != 0) {
    return false;
  }
  media_.EraseSuperblock(victim);
  std::fill_n(origin_.begin() + static_cast<int64_t>(config_.geometry.PpnOf(victim, 0)),
              config_.geometry.PagesPerSuperblock(), static_cast<int16_t>(-1));
  if (listener_ != nullptr) {
    listener_->OnSuperblockErase(victim);
  }
  stats_.media_bytes_erased += config_.geometry.SuperblockBytes();
  info.state = RuState::kFree;
  info.write_ptr = 0;
  info.valid_pages = 0;
  info.is_gc_destination = false;
  free_rus_.push_back(victim);

  ++counters_.gc_reclaims;
  counters_.gc_relocated_pages += relocated;
  if (relocated > 0) {
    ++counters_.gc_reclaims_with_move;
    event_log_.Append(FdpEvent{FdpEventType::kMediaRelocated, PlacementId{},
                               victim, relocated, 0});
  } else {
    ++counters_.clean_ru_erases;
    event_log_.Append(
        FdpEvent{FdpEventType::kRuErasedClean, PlacementId{}, victim,
                 config_.geometry.PagesPerSuperblock(), 0});
  }
  return true;
}

bool Ftl::ReclaimRu(uint32_t victim) {
  // One full-budget migration step covers the whole RU (invalid pages cost
  // no budget), preserving the historical atomic-reclaim behaviour.
  uint32_t offset = 0;
  bool out_of_space = false;
  const uint32_t relocated = MigrateVictimPages(
      victim, &offset, config_.geometry.PagesPerSuperblock(), &out_of_space);
  if (out_of_space) {
    return false;
  }
  return FinishVictimReclaim(victim, relocated);
}

void Ftl::MaybeRunGc() {
  if (in_gc_) {
    return;
  }
  in_gc_ = true;
  while (free_rus_.size() <= kGcFreeRuWatermark) {
    const std::optional<uint32_t> victim = PickGcVictim();
    if (!victim.has_value()) {
      break;
    }
    if (!ReclaimRu(*victim)) {
      break;
    }
  }
  in_gc_ = false;
  if (config_.static_wear_leveling) {
    MaybeWearLevel();
  }
}

uint32_t Ftl::SuperblockEraseCount(uint32_t ru) const {
  return media_.block_erase_count(config_.geometry.GlobalBlockId(ru, 0));
}

void Ftl::MaybeWearLevel() {
  if (in_gc_ || free_rus_.size() <= kGcFreeRuWatermark) {
    return;
  }
  // Coldest closed RU (least worn) vs the overall most-worn superblock.
  std::optional<uint32_t> coldest;
  uint32_t coldest_erases = ~0u;
  uint32_t max_erases = 0;
  for (uint32_t ru = 0; ru < rus_.size(); ++ru) {
    const uint32_t erases = SuperblockEraseCount(ru);
    max_erases = std::max(max_erases, erases);
    if (rus_[ru].state == RuState::kClosed && erases < coldest_erases) {
      coldest = ru;
      coldest_erases = erases;
    }
  }
  if (!coldest.has_value() || max_erases - coldest_erases < config_.wear_delta_threshold) {
    return;
  }
  // Migrate the cold RU's live data forward (it lands on a fresher free RU
  // via the normal GC streams) and release the young block for hot traffic.
  in_gc_ = true;
  const bool ok = ReclaimRu(*coldest);
  in_gc_ = false;
  if (ok) {
    ++counters_.wear_level_moves;
  }
}

void Ftl::ResetStats() {
  stats_ = FdpStatistics{};
  counters_ = FtlCounters{};
  ruh_stats_.assign(ruh_stats_.size(), RuhIoStats{});
  unattributed_media_bytes_ = 0;
  event_log_.Reset();
}

uint32_t Ftl::RuOriginMixCount(uint32_t ru) const {
  const ReclaimUnitInfo& info = rus_[ru];
  bool seen[256] = {};
  uint32_t distinct = 0;
  for (uint32_t offset = 0; offset < info.write_ptr; ++offset) {
    const int16_t origin = origin_[config_.geometry.PpnOf(ru, offset)];
    if (origin >= 0 && !seen[origin]) {
      seen[origin] = true;
      ++distinct;
    }
  }
  return distinct;
}

std::string Ftl::CheckInvariants() const {
  std::ostringstream err;
  const NandGeometry& g = config_.geometry;
  // 1. Every mapped LPN points at a valid page carrying the right back-ref.
  uint64_t mapped = 0;
  for (uint64_t lpn = 0; lpn < map_.size(); ++lpn) {
    const uint64_t ppn = map_[lpn];
    if (ppn == kUnmapped) {
      continue;
    }
    ++mapped;
    if (media_.page_state(ppn) != PageState::kValid) {
      err << "lpn " << lpn << " maps to non-valid ppn " << ppn << "; ";
    } else if (media_.page_lpn(ppn) != lpn) {
      err << "ppn " << ppn << " back-ref " << media_.page_lpn(ppn) << " != lpn " << lpn << "; ";
    }
  }
  if (mapped != mapped_pages_) {
    err << "mapped count " << mapped << " != tracked " << mapped_pages_ << "; ";
  }
  // 2. Per-RU valid counters match media state; free RUs are truly free.
  uint64_t total_valid = 0;
  for (uint32_t ru = 0; ru < rus_.size(); ++ru) {
    uint32_t valid = 0;
    for (uint32_t offset = 0; offset < g.PagesPerSuperblock(); ++offset) {
      const PageState st = media_.page_state(g.PpnOf(ru, offset));
      if (st == PageState::kValid) {
        ++valid;
      }
      if (rus_[ru].state == RuState::kFree && st != PageState::kFree) {
        err << "free ru " << ru << " holds programmed page; ";
        break;
      }
      if (offset >= rus_[ru].write_ptr && st != PageState::kFree) {
        err << "ru " << ru << " page beyond write_ptr programmed; ";
        break;
      }
    }
    if (valid != rus_[ru].valid_pages) {
      err << "ru " << ru << " valid " << valid << " != tracked " << rus_[ru].valid_pages << "; ";
    }
    total_valid += valid;
  }
  // 3. Valid pages on media == mapped LPNs.
  if (total_valid != mapped_pages_) {
    err << "media valid " << total_valid << " != mapped " << mapped_pages_ << "; ";
  }
  // 4. Free pool consistency.
  for (const uint32_t ru : free_rus_) {
    if (rus_[ru].state != RuState::kFree) {
      err << "free pool entry " << ru << " not free; ";
    }
  }
  // 5. Persistently isolated RUs contain only their owner's data, proven via
  // page provenance (origin survives GC relocation).
  for (uint32_t ru = 0; ru < rus_.size(); ++ru) {
    const ReclaimUnitInfo& info = rus_[ru];
    if (info.state == RuState::kFree || info.owner < 0) {
      continue;
    }
    const auto& ruh = config_.fdp.ruhs[static_cast<size_t>(info.owner)];
    if (ruh.type != RuhType::kPersistentlyIsolated) {
      continue;
    }
    for (uint32_t offset = 0; offset < info.write_ptr; ++offset) {
      const int16_t origin = origin_[g.PpnOf(ru, offset)];
      if (origin != info.owner) {
        err << "persistently isolated ru " << ru << " (owner " << info.owner
            << ") holds page with origin " << origin << "; ";
        break;
      }
    }
  }
  // 6. DLWA can never dip below 1.
  if (stats_.media_bytes_written < stats_.host_bytes_written) {
    err << "MBMW < HBMW; ";
  }
  return err.str();
}

}  // namespace fdpcache
