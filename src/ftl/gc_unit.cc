#include "src/ftl/gc_unit.h"

#include <algorithm>

namespace fdpcache {

GcUnit::GcUnit(Ftl* ftl, const GcConfig& config) : ftl_(ftl), config_(config) {}

bool GcUnit::ShouldRun() const {
  if (has_victim_) {
    return true;  // Finish what we started; an open cursor strands an RU.
  }
  return ftl_->free_ru_count() <= config_.soft_free_ru_watermark;
}

uint32_t GcUnit::BudgetFor(uint32_t host_load) const {
  if (config_.mode != GcMode::kFeedback) {
    return kGcMaxPagesPerTick;
  }
  // Inverse-proportional throttle: budget = max / (1 + load), floored. A busy
  // host sees GC shrink to a trickle; an idle host lets GC catch up at full
  // rate.
  return std::max(kGcMinPagesPerTick, kGcMaxPagesPerTick / (1u + host_load));
}

bool GcUnit::VictimStillValid() const {
  const ReclaimUnitInfo& info = ftl_->ru_info(victim_);
  return info.state == RuState::kClosed && info.open_seq == victim_open_seq_;
}

uint32_t GcUnit::Tick(uint32_t host_load) {
  ++stats_.ticks;
  if (!enabled() || !ShouldRun()) {
    return 0;
  }

  const bool critical = ftl_->free_ru_count() <= config_.critical_free_rus;
  if (config_.mode == GcMode::kFeedback && !critical &&
      host_load >= kGcHostLoadDeferThreshold) {
    ++stats_.deferred_ticks;
    return 0;
  }

  // (Re)validate the cursor: foreground GC may have reclaimed our victim (or
  // the RU may have been recycled and reopened) between ticks.
  if (has_victim_ && !VictimStillValid()) {
    has_victim_ = false;
    ++stats_.victims_abandoned;
  }
  if (!has_victim_) {
    const std::optional<uint32_t> victim = ftl_->PickGcVictim();
    if (!victim.has_value()) {
      return 0;
    }
    has_victim_ = true;
    victim_ = *victim;
    offset_ = 0;
    relocated_ = 0;
    victim_open_seq_ = ftl_->ru_info(victim_).open_seq;
  }

  const uint32_t budget = BudgetFor(host_load);
  bool out_of_space = false;
  const uint32_t moved =
      ftl_->MigrateVictimPages(victim_, &offset_, budget, &out_of_space);
  relocated_ += moved;
  stats_.migrated_pages += moved;
  if (moved > 0) {
    ++stats_.active_ticks;
  }
  if (out_of_space) {
    // No GC destination could be allocated. Abandon the cursor; the
    // foreground lazy path (which can always consume the reserve) backstops.
    has_victim_ = false;
    ++stats_.victims_abandoned;
    return moved;
  }

  if (offset_ >= ftl_->ru_info(victim_).write_ptr) {
    if (ftl_->FinishVictimReclaim(victim_, relocated_)) {
      ++stats_.erases;
    } else {
      ++stats_.victims_abandoned;
    }
    has_victim_ = false;
  }
  return moved;
}

}  // namespace fdpcache
