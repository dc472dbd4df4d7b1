// Large Object Cache: a log-structured, region-based flash cache
// (CacheLib's BlockCache; paper §2.3).
//
// Items are appended into an in-RAM open region; full regions are sealed and
// written to the device sequentially. Eviction recycles whole regions in seal
// order (FIFO), which makes the device-visible write pattern purely
// sequential — the stream the paper leaves at DLWA ~ 1.
//
// With `inflight_regions > 0` the seal is asynchronous: the sealed region's
// buffer moves into an in-flight ring and its device write is Submit()ted
// without waiting; lookups of items in a still-in-flight region are served
// from the ring buffer, and the write is reaped (retired) when the ring
// fills, on Flush(), or opportunistically at the next seal. A failed region
// write drops that region's index entries — degraded to misses, never wrong
// data.
#ifndef SRC_NAVY_LOC_H_
#define SRC_NAVY_LOC_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/navy/device.h"

namespace fdpcache {

struct LocConfig {
  uint64_t base_offset = 0;
  uint64_t size_bytes = 0;            // Must be a multiple of region_size.
  uint64_t region_size = 2 * 1024 * 1024;
  PlacementHandle placement = kNoPlacement;
  // Issue a TRIM for a region when it is evicted (the paper's shelved
  // RU-aware eviction exploration, §5.5 lesson 1; off by default).
  bool trim_on_evict = false;
  // Maximum sealed regions whose device writes may be outstanding at once.
  // 0 = synchronous seals (legacy behaviour: SealAndRotate blocks on the
  // device write).
  uint32_t inflight_regions = 0;
  // Device queue pair carrying every request this engine issues. All of one
  // LOC's I/O must share a queue pair: region rewrites after eviction (and
  // trim_on_evict trims) rely on per-QP FIFO ordering.
  uint32_t queue_pair = 0;
};

struct LocStats {
  uint64_t inserts = 0;
  uint64_t insert_failures = 0;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t removes = 0;
  uint64_t regions_sealed = 0;
  uint64_t regions_evicted = 0;
  uint64_t items_evicted = 0;      // Index entries dropped with their region.
  uint64_t bytes_written = 0;      // Device bytes (whole regions).
  uint64_t item_bytes_written = 0;
  uint64_t corrupt_items = 0;
  uint64_t inflight_buffer_hits = 0;  // Lookups served from a sealed region's in-flight buffer.
  uint64_t regions_write_failed = 0;  // Async region writes that failed (items dropped).

  double Alwa() const {
    return item_bytes_written == 0
               ? 1.0
               : static_cast<double>(bytes_written) / static_cast<double>(item_bytes_written);
  }
};

class LargeObjectCache {
 public:
  LargeObjectCache(Device* device, const LocConfig& config);
  // Retires any in-flight region writes (`device` must still be alive).
  ~LargeObjectCache();

  // Inserts an item (key+value must fit one region).
  bool Insert(std::string_view key, std::string_view value);

  std::optional<std::string> Lookup(std::string_view key);

  // --- Split-step lookup (async cache tier) ----------------------------------
  // LookupStart resolves everything that never touches the device: the index
  // probe, and items served from RAM (the open region's buffer or a sealed
  // region's in-flight write buffer). kNeedsRead hands back the page-aligned
  // device read covering the item; the caller performs it (Submit + park, or
  // a blocking Read) and calls LookupFinish with the buffer. Finish
  // revalidates the index entry — the region may have been evicted, resealed,
  // or the item reinserted elsewhere while the read was parked — and returns
  // kRetry when the entry moved, in which case the caller restarts from
  // LookupStart. The blocking Lookup drives exactly these steps.
  struct ReadPlan {
    enum class Kind : uint8_t { kMiss, kReady, kNeedsRead };
    Kind kind = Kind::kMiss;
    std::string value;        // kReady.
    uint64_t offset = 0;      // kNeedsRead: aligned device offset.
    uint64_t size = 0;        // kNeedsRead: aligned read size.
    uint64_t buffer_skip = 0; // kNeedsRead: item start within the buffer.
    // Entry identity captured at Start, revalidated at Finish.
    uint32_t region = 0;
    uint32_t item_offset = 0;
    uint32_t item_length = 0;
    uint64_t region_seal_seq = 0;
  };
  enum class FinishStatus : uint8_t { kHit, kMiss, kRetry };

  // `count_lookup` is false on a kRetry restart so one logical lookup is
  // counted once in the stats.
  ReadPlan LookupStart(std::string_view key, bool count_lookup = true);
  FinishStatus LookupFinish(std::string_view key, const ReadPlan& plan, const uint8_t* buffer,
                            bool io_ok, std::string* value);

  // Drops the index entry; the flash copy becomes dead space in its region.
  bool Remove(std::string_view key);

  // Seals the open region early (writing it out zero-padded) and retires
  // every in-flight region write. Mostly for tests and orderly shutdown.
  bool Flush();

  // Retires every in-flight region write WITHOUT sealing the open region —
  // the measurement barrier: pending device writes land, but the open
  // region's fill state (and therefore bytes_written / DLWA accounting)
  // stays exactly as a synchronous-mode run would leave it. Returns false
  // if any retired write had failed (its items degraded to misses).
  bool RetireInFlight();

  // Sealed regions whose device write has not been retired yet.
  uint32_t InFlightRegions() const { return static_cast<uint32_t>(inflight_.size()); }

  const LocStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LocStats{}; }
  uint64_t IndexMemoryBytes() const;

  // --- Persistence (CacheLib-style warm restart) ----------------------------
  // Serializes the in-RAM index and region metadata into a blob the host
  // stores wherever it likes (a metadata file / namespace). Seals the open
  // region first so everything referenced is on the device.
  bool SerializeState(std::string* out);
  // Restores a previously serialized state onto a fresh instance over the
  // same device contents. Returns false on format mismatch.
  bool RestoreState(const std::string& blob);

 private:
  struct ItemLoc {
    uint32_t region = 0;
    uint32_t offset = 0;     // Byte offset within the region.
    uint32_t length = 0;     // Serialized length (header + key + value).
  };

  struct RegionInfo {
    uint64_t seal_seq = 0;          // FIFO order; 0 = never sealed.
    std::vector<std::string> keys;  // Keys written into this region.
    bool sealed = false;
  };

  static constexpr uint32_t kItemMagic = 0x434f4c49;  // "ILOC"
  static constexpr uint64_t kItemHeaderBytes = 10;    // magic + key/value sizes.

  // Serialized item size.
  static uint64_t ItemBytes(std::string_view key, std::string_view value) {
    return kItemHeaderBytes + key.size() + value.size();
  }

  uint64_t RegionBase(uint32_t region) const {
    return config_.base_offset + static_cast<uint64_t>(region) * config_.region_size;
  }

  // A sealed region whose device write is still outstanding; `buffer` backs
  // the submitted IoRequest and serves lookups until the write is retired.
  struct InFlightRegion {
    uint32_t region = 0;
    CompletionToken token = kInvalidToken;
    std::vector<uint8_t> buffer;
  };

  // Seals the open region to the device and rotates to a fresh one,
  // evicting if no free region remains. Returns false on device error
  // (synchronous mode only; asynchronous seals surface errors at retire).
  bool SealAndRotate();
  uint32_t PickEvictionVictim();
  void EvictRegion(uint32_t region);

  // Reaps the oldest in-flight write (waiting for it when `blocking`).
  // Returns whether an entry was retired; a failed write drops the region's
  // index entries and reports the region in `*failed_region` (set to
  // kNoFailure otherwise).
  static constexpr uint32_t kNoFailure = ~0u;
  bool RetireOldest(bool blocking, uint32_t* failed_region);
  // Non-blocking sweep of already-completed writes; failed regions go back
  // to the free list.
  void ReapCompleted();
  // Blocking retire until `region` has no outstanding write.
  void RetireRegion(uint32_t region);
  // Retires everything; returns false if any write failed.
  bool DrainInFlight();
  const InFlightRegion* FindInFlight(uint32_t region) const;
  // Drops every index entry of `region` and marks it unsealed: for a region
  // whose write failed, and for one being evicted.
  void DropRegionContents(uint32_t region);

  std::vector<uint8_t> AcquireBuffer();
  void ReleaseBuffer(std::vector<uint8_t> buffer);

  Device* device_;
  LocConfig config_;
  uint32_t num_regions_;
  std::unordered_map<std::string, ItemLoc> index_;
  std::vector<RegionInfo> regions_;
  std::vector<uint32_t> free_regions_;

  uint32_t open_region_ = 0;
  uint64_t open_offset_ = 0;
  std::vector<uint8_t> open_buffer_;
  uint64_t seal_seq_ = 0;

  std::deque<InFlightRegion> inflight_;
  std::vector<std::vector<uint8_t>> buffer_pool_;

  LocStats stats_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_LOC_H_
