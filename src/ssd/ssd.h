// SimulatedSsd: the complete FDP-capable device.
//
// Composes the NAND media, the FTL, a die-level latency scheduler, an energy
// meter, and a byte store behind an NVMe-flavoured API: namespaces, 4 KiB
// LBAs, write commands with placement directives, DSM deallocate, and log
// pages (FDP statistics / FDP events). This is the stand-in for the paper's
// Samsung PM9D3 FDP SSD.
//
// The command paths (Write/Read/Deallocate, admin, telemetry) are guarded by
// an internal mutex, so multiple device queues (or submitter threads) can
// drive one SimulatedSsd concurrently. Control-plane work (translation, FTL
// mapping, die timing) executes atomically in lock order; the payload
// memcpys of Write/Read run OUTSIDE the lock against shared-ownership
// DataStore frames, so parallel executors (the device's execution lanes)
// genuinely overlap data movement. Commands touching the same page
// concurrently therefore race on the payload alone — the per-LBA ordering a
// real NVMe device also refuses to define across queues; within a queue
// pair the host-side conflict tracker orders overlapping requests. Raw
// subsystem accessors (ftl(), namespaces()) bypass the lock and are for
// construction-time setup and quiescent inspection only.
#ifndef SRC_SSD_SSD_H_
#define SRC_SSD_SSD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/fdp/events.h"
#include "src/fdp/stats.h"
#include "src/fdp/types.h"
#include "src/ftl/ftl.h"
#include "src/ftl/gc_unit.h"
#include "src/nand/params.h"
#include "src/nvme/types.h"
#include "src/ssd/data_store.h"
#include "src/ssd/die_scheduler.h"

namespace fdpcache {

struct SsdConfig {
  NandGeometry geometry;
  FdpConfig fdp = FdpConfig::Pm9d3Like();
  double op_fraction = 0.07;
  bool fdp_enabled = true;
  bool static_wear_leveling = false;
  uint32_t wear_delta_threshold = 40;
  NandTimingParams timing;
  NandEnergyParams energy;
  NandEnduranceParams endurance;
  // Background GC engine (off by default — the FTL's lazy foreground GC then
  // remains the only collection path, bit-identical to earlier builds).
  GcConfig gc;
};

// Point-in-time device telemetry for the harness and benches.
struct SsdTelemetry {
  NandOpCounts nand;
  FtlCounters ftl;
  FdpStatistics fdp_stats;
  uint64_t gc_events = 0;            // Media-relocated events (paper Fig. 10b).
  uint64_t gc_relocated_pages = 0;
  uint64_t clean_ru_erases = 0;
  double op_energy_uj = 0.0;         // NAND operation energy.
  double total_energy_uj = 0.0;      // Including idle power over elapsed time.
  // Per-die accumulated busy time; lets reports cross-check execution-lane
  // utilization against the dies the lanes are meant to mirror.
  std::vector<TimeNs> per_die_busy_ns;
  uint32_t max_pe_cycles = 0;
  double dlwa = 1.0;
  // Background GC engine state (zeroed when SsdConfig::gc.mode == kOff).
  GcUnitStats gc_unit;
  uint64_t erase_suspensions = 0;  // Host reads that preempted an erase.
  TimeNs host_stall_ns = 0;        // Host die-queueing delay (start - arrival).
  TimeNs gc_die_ns = 0;            // Die time consumed by GC reads/programs/erases.
  // Per-RUH media accounting (index = RUH); see Ftl::ruh_io_stats().
  std::vector<RuhIoStats> ruh_io;
  uint64_t unattributed_media_bytes = 0;
};

class SimulatedSsd final : public FtlEventListener {
 public:
  explicit SimulatedSsd(const SsdConfig& config);

  // --- Namespace management -------------------------------------------------

  // Creates a namespace of `size_bytes` (rounded up to whole pages) carved
  // from the remaining advertised capacity. Returns the nsid or nullopt.
  std::optional<uint32_t> CreateNamespace(uint64_t size_bytes);
  const std::vector<NamespaceInfo>& namespaces() const { return namespaces_; }

  // Remaining advertised capacity not yet claimed by a namespace.
  uint64_t UnallocatedBytes() const;
  uint64_t logical_capacity_bytes() const { return ftl_->logical_bytes(); }
  uint64_t physical_capacity_bytes() const { return config_.geometry.PhysicalBytes(); }
  uint64_t page_size() const { return config_.geometry.page_size_bytes; }

  // --- I/O path (all sizes in 4 KiB logical blocks) --------------------------

  // `data` must hold nlb * page_size bytes, or be null for a placement-only
  // write (the pages are mapped but keep no payload).
  NvmeCompletion Write(uint32_t nsid, uint64_t slba, uint32_t nlb, const void* data,
                       DirectiveType dtype, uint16_t dspec, TimeNs now);
  NvmeCompletion Read(uint32_t nsid, uint64_t slba, uint32_t nlb, void* out, TimeNs now);
  NvmeCompletion Deallocate(uint32_t nsid, uint64_t slba, uint64_t nlb, TimeNs now);

  // --- Admin path -------------------------------------------------------------

  FdpCapabilities IdentifyFdp() const;
  FdpStatistics GetFdpStatisticsLog() const {
    fdp::MutexLock lock(&mu_);
    return ftl_->stats();
  }
  std::vector<FdpEvent> DrainFdpEventsLog() {
    fdp::MutexLock lock(&mu_);
    return ftl_->event_log().Drain();
  }

  // Toggles the FDP configuration, like `nvme set-feature` in the paper's
  // methodology. Only honoured while the device is empty.
  bool SetFdpEnabled(bool enabled);

  // Deallocates every LBA of every namespace (the paper's pre-experiment
  // whole-device TRIM) and optionally clears statistics.
  void TrimAll(bool reset_stats);

  SsdTelemetry Telemetry(TimeNs elapsed) const;

  // Furthest-out die completion; the harness uses it for backpressure.
  TimeNs MaxDieBusyUntil() const {
    fdp::MutexLock lock(&mu_);
    return dies_.MaxBusyUntil();
  }

  Ftl& ftl() { return *ftl_; }
  const Ftl& ftl() const { return *ftl_; }
  const SsdConfig& config() const { return config_; }

  // --- Background GC ----------------------------------------------------------

  // Host-load feedback for the GC throttle: the device layer publishes its
  // current in-flight command count here (a plain atomic store; no lock).
  void SetHostLoadHint(uint32_t in_flight) {
    host_load_hint_.store(in_flight, std::memory_order_relaxed);
  }

  // Runs one explicit background GC step at virtual time `now`. The I/O path
  // also ticks the engine after every command, so this is only needed to let
  // GC make progress on an idle device (and by tests).
  uint32_t RunGcTick(TimeNs now);

  const GcUnit* gc_unit() const { return gc_unit_.get(); }

  // Clears background-GC accounting (engine stats, stall/die-time meters)
  // without touching media state; the harness calls this after warm-up.
  void ResetGcStats();

  // --- FtlEventListener -------------------------------------------------------
  void OnPageRead(uint64_t ppn, bool is_gc) override;
  void OnPageProgram(uint64_t ppn, bool is_gc) override;
  void OnSuperblockErase(uint32_t superblock) override;
  uint32_t OnRuOpen(uint32_t superblock, bool gc_destination) override;

 private:
  // Translates (nsid, slba) to a device LPN; nullopt on invalid input.
  std::optional<uint64_t> Translate(uint32_t nsid, uint64_t slba, uint64_t nlb) const
      REQUIRES(mu_);

  // One background GC step with mu_ held and op_now_ established. The I/O
  // path invokes this after each command so GC traffic lands on the die
  // timeline right behind the foreground op that triggered it.
  void TickGcLocked() REQUIRES(mu_);

  // Serializes the command, admin, and telemetry paths across submitters.
  // Near-leaf: only the trace buffer may be acquired beneath it (the
  // listener callbacks record spans).
  mutable fdp::Mutex mu_{lock_rank::Make(lock_rank::kSsd), "ssd"};

  SsdConfig config_;
  // ftl_/namespaces_/gc_unit_ are mutated under mu_ on the command paths but
  // stay unannotated: the raw accessors (ftl(), namespaces(), gc_unit())
  // intentionally bypass the lock for construction-time setup and quiescent
  // inspection (see class comment).
  std::unique_ptr<Ftl> ftl_;
  DieScheduler dies_ GUARDED_BY(mu_);
  DataStore data_ GUARDED_BY(mu_);
  std::unique_ptr<GcUnit> gc_unit_;
  std::vector<NamespaceInfo> namespaces_;
  uint64_t allocated_pages_ GUARDED_BY(mu_) = 0;

  // Host-QD feedback published by the queue layer (read by the GC throttle).
  std::atomic<uint32_t> host_load_hint_{0};

  // Background-interference meters.
  TimeNs host_stall_ns_ GUARDED_BY(mu_) = 0;
  TimeNs gc_die_ns_ GUARDED_BY(mu_) = 0;

  // Per-command scratch used by the listener callbacks (the FTL invokes them
  // through the FtlEventListener interface while the caller holds mu_; each
  // override re-establishes that fact with mu_.AssertHeld()).
  TimeNs op_now_ GUARDED_BY(mu_) = 0;
  TimeNs host_op_completion_ GUARDED_BY(mu_) = 0;
};

}  // namespace fdpcache

#endif  // SRC_SSD_SSD_H_
