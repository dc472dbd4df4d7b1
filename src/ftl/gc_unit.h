// Background garbage-collection / wear-leveling unit.
//
// The FTL's built-in GC is lazy: it reclaims a whole victim atomically, inside
// the host allocation that drained the free pool, so every migration byte is
// serialized in front of exactly one host write. Real controllers instead run
// GC as a background engine that (a) starts before the pool is empty, (b)
// migrates a few pages at a time so relocation traffic interleaves with
// foreground commands on the die timeline, and (c) modulates its aggressiveness
// off host load. This unit models that engine (cf. the paper's steady-state
// DLWA methodology and MQSIM's GC_and_WL_Unit; see PAPERS.md for the ZNS-cache
// work on GC-vs-foreground interference).
//
// The unit drives the bare Ftl through its incremental-reclaim primitives
// (PickGcVictim / MigrateVictimPages / FinishVictimReclaim) and owns no locks:
// the embedding device (SimulatedSsd) calls Tick() under its own mutex with
// virtual time already established, so NAND listener callbacks fired by the
// migration land on the die scheduler exactly like foreground traffic.
#ifndef SRC_FTL_GC_UNIT_H_
#define SRC_FTL_GC_UNIT_H_

#include <cstdint>

#include "src/ftl/ftl.h"

namespace fdpcache {

enum class GcMode : uint8_t {
  kOff,       // No background GC; the FTL's lazy foreground GC is the only GC.
  kNaive,     // Fixed-rate background GC: ignores host load, full budget.
  kFeedback,  // Load-aware: defers/throttles off host QD, places new RUs on
              // cold dies, and lets foreground reads suspend erases.
};

// Migration budget per tick. Feedback mode scales the budget down toward
// kGcMinPagesPerTick as host load rises; naive mode always spends the max.
constexpr uint32_t kGcMaxPagesPerTick = 8;
constexpr uint32_t kGcMinPagesPerTick = 1;
// Feedback only: defer the whole tick (no migration) when the host has at
// least this many commands in flight — unless the pool is critically low.
constexpr uint32_t kGcHostLoadDeferThreshold = 4;

struct GcConfig {
  GcMode mode = GcMode::kOff;

  // Engage when the free-RU pool drops to this many (foreground lazy GC still
  // backstops at kGcFreeRuWatermark). Must be > the foreground watermark to
  // be useful.
  uint32_t soft_free_ru_watermark = 4;

  // Never defer below this many free RUs; survival beats politeness.
  uint32_t critical_free_rus = 2;
};

struct GcUnitStats {
  uint64_t ticks = 0;            // Tick() calls.
  uint64_t active_ticks = 0;     // ... that migrated at least one page.
  uint64_t deferred_ticks = 0;   // ... skipped because of host load.
  uint64_t migrated_pages = 0;
  uint64_t erases = 0;           // Victims fully reclaimed.
  uint64_t victims_abandoned = 0;  // Victim invalidated/reused mid-migration.
};

class GcUnit {
 public:
  GcUnit(Ftl* ftl, const GcConfig& config);

  // Runs one background step: possibly picks a victim, migrates up to the
  // (load-adjusted) page budget, and erases the victim once fully migrated.
  // `host_load` is the embedding device's current in-flight host command
  // count (0 when unknown). Returns pages migrated this tick.
  uint32_t Tick(uint32_t host_load);

  bool enabled() const { return config_.mode != GcMode::kOff; }
  GcMode mode() const { return config_.mode; }
  const GcConfig& config() const { return config_; }
  const GcUnitStats& stats() const { return stats_; }
  void ResetStats() { stats_ = GcUnitStats{}; }

 private:
  // Pool is low enough to work, or a half-migrated victim needs finishing.
  bool ShouldRun() const;
  // Load-adjusted page budget for this tick.
  uint32_t BudgetFor(uint32_t host_load) const;
  // True if the remembered victim is still the closed RU we started on.
  bool VictimStillValid() const;

  Ftl* ftl_;  // Not owned.
  GcConfig config_;
  GcUnitStats stats_;

  // Incremental migration cursor across ticks.
  bool has_victim_ = false;
  uint32_t victim_ = 0;
  uint32_t offset_ = 0;          // Next append offset to examine.
  uint64_t victim_open_seq_ = 0;  // Guards against the RU being recycled.
  uint64_t relocated_ = 0;        // Pages moved out of the current victim.
};

}  // namespace fdpcache

#endif  // SRC_FTL_GC_UNIT_H_
