// Flash translation layer with FDP data placement.
//
// Responsibilities (paper §2.1, §3.2):
//  * page-level logical-to-physical mapping over the NAND media;
//  * append-only programming into superblock-sized reclaim units (RUs);
//  * one open RU per reclaim unit handle (RUH) so hosts can segregate data;
//  * greedy garbage collection honouring initially/persistently isolated RUH
//    semantics, with device overprovisioning as the only spare space;
//  * TRIM/deallocate;
//  * FDP statistics (HBMW/MBMW/MBE) and the FDP event log.
//
// The FTL is the "device controller" of the simulator: hosts never see PPNs
// or RUs directly, exactly as the FDP proposal prescribes.
#ifndef SRC_FTL_FTL_H_
#define SRC_FTL_FTL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/fdp/events.h"
#include "src/fdp/stats.h"
#include "src/fdp/types.h"
#include "src/ftl/listener.h"
#include "src/nand/media.h"

namespace fdpcache {

enum class FtlStatus : uint8_t {
  kOk,
  kLbaOutOfRange,
  kInvalidPlacementId,
  kDeviceFull,      // GC could not reclaim space (logical capacity exhausted).
  kInternalError,   // Invariant violation; the simulator aborts the operation.
};

// Free RUs reserved for GC destinations. GC engages lazily, when a host
// allocation would drop the free pool to this reserve — engaging any earlier
// would reclaim RUs before their data has had time to invalidate and would
// waste overprovisioning (victims would still be mostly valid).
constexpr uint32_t kGcFreeRuWatermark = 1;

struct FtlConfig {
  NandGeometry geometry;
  NandEnduranceParams endurance;
  FdpConfig fdp = FdpConfig::Pm9d3Like();
  // Device overprovisioning: advertised capacity = physical * (1 - op).
  // The paper's devices expose 7-20% OP; 7% is the conservative default.
  double op_fraction = 0.07;
  // When false the device behaves like a conventional SSD: placement
  // directives are ignored and everything goes through RUH 0 (paper §6.1
  // uses exactly this to realise the Non-FDP baseline). GC relocations still
  // go to a dedicated destination RU, like the paper's device.
  bool fdp_enabled = true;

  // Static wear leveling: when the erase-count spread across superblocks
  // exceeds the threshold, the coldest closed RU (fully valid data parked by
  // GC, e.g. relocated LOC survivors) is migrated onto the most-worn free RU
  // so cold data stops pinning young blocks. Relocations count toward MBMW —
  // wear leveling is itself a source of device write amplification.
  bool static_wear_leveling = false;
  uint32_t wear_delta_threshold = 40;
};

// Lifecycle state of a reclaim unit.
enum class RuState : uint8_t { kFree, kOpen, kClosed };

// Owner tag for data placed in an RU: an RUH index for host streams, or
// kMixedGcOwner for the shared GC destination of initially isolated handles.
constexpr int32_t kMixedGcOwner = -1;

struct ReclaimUnitInfo {
  RuState state = RuState::kFree;
  uint32_t write_ptr = 0;     // Next append offset within the RU.
  uint32_t valid_pages = 0;   // Live pages (maintained incrementally).
  int32_t owner = kMixedGcOwner;
  bool is_gc_destination = false;
  uint64_t open_seq = 0;      // Monotonic sequence of when the RU was opened.
  // Die rotation phase assigned at open (FtlEventListener::OnRuOpen): append
  // offset o lands on die (DieOfOffset(o) + die_phase) % num_dies. 0 unless
  // the device routes fresh RUs to cold dies.
  uint32_t die_phase = 0;
};

// Per-RUH media traffic, attributed by page provenance: host writes land on
// the RUH the directive named; GC relocations are charged to the ORIGIN RUH
// of the moved data (origin survives relocation), so each handle's DLWA
// reflects how much background rewriting its data causes under churn.
struct RuhIoStats {
  uint64_t host_bytes_written = 0;
  uint64_t media_bytes_written = 0;  // Host writes + relocations of this RUH's data.

  double Dlwa() const {
    return host_bytes_written == 0
               ? 1.0
               : static_cast<double>(media_bytes_written) /
                     static_cast<double>(host_bytes_written);
  }
};

struct FtlCounters {
  uint64_t gc_reclaims = 0;          // RUs reclaimed by GC.
  uint64_t gc_reclaims_with_move = 0;  // ... of which required relocation.
  uint64_t gc_relocated_pages = 0;
  uint64_t clean_ru_erases = 0;      // RUs that were fully invalid at reclaim.
  uint64_t host_pages_written = 0;
  uint64_t trimmed_pages = 0;
  uint64_t wear_level_moves = 0;     // Cold RUs migrated by static wear leveling.
};

class Ftl {
 public:
  explicit Ftl(const FtlConfig& config, FtlEventListener* listener = nullptr);

  // Logical pages a device of this geometry exposes once `op_fraction` of its
  // pages is held back as overprovisioning: floor(TotalPages * (1 - OP)).
  static uint64_t LogicalPages(const NandGeometry& geometry, double op_fraction);

  // --- Host data path -------------------------------------------------------

  // Writes one logical page with a placement directive. `dtype` other than
  // kDataPlacement (or FDP disabled) routes to the default RUH 0.
  FtlStatus WritePage(uint64_t lpn, DirectiveType dtype, uint16_t dspec);

  // Resolves a logical page for reading; counts a media read when mapped.
  // Returns the PPN, or nullopt for unmapped (deallocated) pages, which read
  // back as zeroes at the device layer.
  std::optional<uint64_t> ReadPage(uint64_t lpn);

  // Pure mapping lookup: like ReadPage but counts nothing and fires no
  // listener callback. For quiescent inspection (tests peeking at placement
  // through the raw ftl() accessor, which bypasses the device lock).
  std::optional<uint64_t> LookupPage(uint64_t lpn) const;

  // Deallocates one logical page (NVMe DSM / TRIM).
  FtlStatus TrimPage(uint64_t lpn);

  // --- Introspection --------------------------------------------------------

  const FtlConfig& config() const { return config_; }
  uint64_t logical_pages() const { return logical_pages_; }
  uint64_t logical_bytes() const { return logical_pages_ * config_.geometry.page_size_bytes; }
  uint64_t mapped_pages() const { return mapped_pages_; }
  size_t free_ru_count() const { return free_rus_.size(); }
  const ReclaimUnitInfo& ru_info(uint32_t ru) const { return rus_[ru]; }
  const NandMedia& media() const { return media_; }

  const FdpStatistics& stats() const { return stats_; }
  const FtlCounters& counters() const { return counters_; }
  FdpEventLog& event_log() { return event_log_; }
  const FdpEventLog& event_log() const { return event_log_; }

  void set_fdp_enabled(bool enabled) { config_.fdp_enabled = enabled; }
  bool fdp_enabled() const { return config_.fdp_enabled; }

  // Resets statistic counters without touching media state (the harness does
  // this after warm-up so steady-state DLWA is measured, like the paper).
  void ResetStats();

  // Verifies internal consistency; returns an error description or empty
  // string when all invariants hold. Used heavily by the property tests.
  std::string CheckInvariants() const;

  // --- Provenance -----------------------------------------------------------
  // The simulator tracks, for every programmed physical page, which host RUH
  // originally wrote its data (preserved across GC relocation). This lets
  // tests prove isolation properties and lets benches quantify SOC/LOC
  // intermixing on media (the mechanism of paper Figure 3).

  // Host RUH that originally wrote the data at `ppn`, or -1 if free.
  int16_t page_origin(uint64_t ppn) const { return origin_[ppn]; }

  // Number of distinct host-RUH origins among programmed pages of an RU.
  uint32_t RuOriginMixCount(uint32_t ru) const;

  // Die servicing `ppn`, including the owning RU's die rotation phase. The
  // device layer charges die time through this instead of the raw geometric
  // mapping so cold-die RU placement actually shifts load.
  uint32_t PpnDie(uint64_t ppn) const {
    return (config_.geometry.DieOfPpn(ppn) +
            rus_[config_.geometry.SuperblockOfPpn(ppn)].die_phase) %
           config_.geometry.num_dies;
  }

  // Per-RUH media traffic (index = RUH). Sums reconcile exactly with the FDP
  // statistics log: sum(host_bytes_written) == stats().host_bytes_written and
  // sum(media_bytes_written) + unattributed_media_bytes() ==
  // stats().media_bytes_written (relocations of pre-provenance data — origin
  // -1 — land in the unattributed bucket).
  const std::vector<RuhIoStats>& ruh_io_stats() const { return ruh_stats_; }
  uint64_t unattributed_media_bytes() const { return unattributed_media_bytes_; }

  // --- Incremental reclaim (background GC support) --------------------------
  // The GcUnit (src/ftl/gc_unit.h) drives victim reclaim in small steps so
  // migration work interleaves with foreground traffic on the die timeline
  // instead of happening atomically inside one host allocation.

  // Picks the closed RU with the fewest valid pages (greedy victim; ties
  // break toward the oldest open_seq). Returns nullopt if no RU would free
  // space. Shared by foreground GC and the background GcUnit.
  std::optional<uint32_t> PickGcVictim() const;

  // Relocates up to `max_pages` VALID pages of closed RU `victim`, starting
  // at append offset *offset and advancing it past every examined page
  // (invalid pages cost no budget). Returns the number of pages moved; sets
  // *out_of_space when a GC destination could not be allocated (the caller
  // must stop). Offsets at or past write_ptr mean the scan is complete.
  uint32_t MigrateVictimPages(uint32_t victim, uint32_t* offset, uint32_t max_pages,
                              bool* out_of_space);

  // Erases a fully migrated victim (valid_pages == 0) and returns it to the
  // free pool, with the same counters and FDP events as an atomic reclaim;
  // `relocated` is the total page count its migration moved. Returns false
  // if the victim is not reclaimable in its current state.
  bool FinishVictimReclaim(uint32_t victim, uint64_t relocated);

 private:
  static constexpr uint64_t kUnmapped = ~0ull;

  // Resolves the effective RUH for a write command.
  FtlStatus ResolveRuh(DirectiveType dtype, uint16_t dspec, uint32_t* ruh_out);

  // Pops a free RU and opens it for the given owner. Runs GC first if the
  // pool is empty. Returns the RU id or nullopt when the device is full.
  std::optional<uint32_t> OpenRu(int32_t owner, bool gc_destination);

  // Appends `lpn` into the open RU of stream `ruh` (host path) or into the GC
  // destination for `victim_owner` (GC path). Returns the new PPN.
  std::optional<uint64_t> AppendToHostStream(uint32_t ruh, uint64_t lpn);
  std::optional<uint64_t> AppendToGcStream(int32_t victim_owner, uint64_t lpn);
  std::optional<uint64_t> AppendToRu(uint32_t ru, uint64_t lpn, bool is_gc);

  void InvalidatePpn(uint64_t ppn);
  void MaybeRunGc();
  // Atomic reclaim (foreground GC): migrates every valid page then erases.
  // Returns false when the device ran out of space mid-relocation
  // (configuration error). Built on the incremental primitives above.
  bool ReclaimRu(uint32_t victim);
  // Static wear leveling pass; runs opportunistically after GC.
  void MaybeWearLevel();
  // Erase count of a superblock (all its blocks wear together).
  uint32_t SuperblockEraseCount(uint32_t ru) const;

  // Which GC stream a victim's data belongs to: persistently isolated RUHs
  // map to their own stream; everything else shares the mixed stream.
  int32_t GcStreamFor(int32_t victim_owner) const;

  FtlConfig config_;
  FtlEventListener* listener_;  // Not owned; may be null.
  NandMedia media_;

  uint64_t logical_pages_;
  std::vector<uint64_t> map_;          // LPN -> PPN.
  std::vector<ReclaimUnitInfo> rus_;   // Indexed by superblock id.
  std::vector<uint32_t> free_rus_;     // LIFO pool of free RUs.
  std::vector<int32_t> host_open_ru_;  // Per RUH; -1 when none.
  // GC destination per stream: index 0 = mixed stream, 1 + ruh = persistent.
  std::vector<int32_t> gc_open_ru_;

  std::vector<int16_t> origin_;        // Per-PPN host-RUH provenance.

  std::vector<RuhIoStats> ruh_stats_;  // Index = RUH; see ruh_io_stats().
  uint64_t unattributed_media_bytes_ = 0;

  uint64_t mapped_pages_ = 0;
  uint64_t open_seq_ = 0;
  bool in_gc_ = false;
  int16_t relocating_origin_ = -1;     // Origin carried across a GC move.

  FdpStatistics stats_;
  FtlCounters counters_;
  FdpEventLog event_log_;
};

}  // namespace fdpcache

#endif  // SRC_FTL_FTL_H_
