// NavyCache: the flash-cache engine pair (paper Figure 1/Figure 4).
//
// Routes small items to the set-associative SOC and large items to the
// log-structured LOC, allocating each engine its own placement handle so the
// two streams land in different reclaim units on FDP devices. With FDP off
// (or an FDP-less device) both engines get the default handle and behaviour
// matches stock CacheLib.
#ifndef SRC_NAVY_NAVY_CACHE_H_
#define SRC_NAVY_NAVY_CACHE_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "src/navy/admission.h"
#include "src/navy/async_result.h"
#include "src/navy/device.h"
#include "src/navy/loc.h"
#include "src/navy/placement.h"
#include "src/navy/soc.h"

namespace fdpcache {

struct NavyConfig {
  // Items at or below this size go to the SOC (key + value bytes).
  uint64_t small_item_max_bytes = 2048;
  // Fraction of the device space given to the SOC (paper default: 4%).
  double soc_fraction = 0.04;
  uint64_t loc_region_size = 2 * 1024 * 1024;
  bool loc_trim_on_evict = false;
  // Asynchronous flash-write pipelining (0 = synchronous, the conservative
  // default): how many sealed LOC regions / SOC bucket rewrites may be in
  // flight on the device at once. The concurrent backend enables both.
  uint32_t loc_inflight_regions = 0;
  uint32_t soc_inflight_writes = 0;
  // Use FDP placement handles when the device offers them (the paper's
  // upstreamed CacheLib change; disable for the Non-FDP baseline).
  bool use_placement_handles = true;
  // Device queue pair the engines submit on (wrapped modulo the device's
  // queue-pair count). ShardedSimBackend maps shard index -> queue pair so
  // each shard rides its own SQ/CQ, like per-core NVMe queues.
  uint32_t queue_pair = 0;
  // Optional separate queue pair for the LOC (default: same as queue_pair).
  // The two engines address disjoint byte ranges, so splitting their streams
  // across SQs is safe — ExperimentRunner uses this to give each placement
  // stream its own queue, mirroring the per-stream RUH segregation.
  std::optional<uint32_t> loc_queue_pair;
  // Byte range of the device used by this engine pair.
  uint64_t base_offset = 0;
  uint64_t size_bytes = 0;  // 0 = whole device.
};

struct NavyStats {
  SocStats soc;
  LocStats loc;
  uint64_t admission_rejects = 0;

  double Alwa() const {
    const uint64_t item =
        soc.item_bytes_written + loc.item_bytes_written;
    const uint64_t dev = soc.bytes_written + loc.bytes_written;
    return item == 0 ? 1.0 : static_cast<double>(dev) / static_cast<double>(item);
  }
};

class NavyCache {
 public:
  // `device` and `admission` (optional) must outlive the cache. Placement
  // handles are drawn from `allocator` when provided and the config enables
  // them (one for SOC, one for LOC), implementing paper §5.3.
  NavyCache(Device* device, const NavyConfig& config,
            PlacementHandleAllocator* allocator = nullptr,
            AdmissionPolicy* admission = nullptr);
  // Completes any still-parked async operations (callbacks fire).
  ~NavyCache();

  bool Insert(std::string_view key, std::string_view value);
  std::optional<std::string> Lookup(std::string_view key);
  bool Remove(std::string_view key);

  // --- Asynchronous API -------------------------------------------------------
  // The callback-driven counterpart of Insert/Lookup/Remove: the DRAM-side
  // state (index, bloom filters, in-flight write buffers) is consulted
  // immediately; when the answer needs a flash read the request is
  // Submit()ted, the operation parks on its CompletionToken, and the call
  // returns — the callback fires from a later PumpAsync()/DrainAsync() once
  // the read retires. Operations that resolve without device I/O fire their
  // callback inline, before the call returns.
  //
  // Synchronization is the caller's, exactly like the blocking API: all
  // calls (including the pumps) must be externally serialized against each
  // other. Same-key ordering across async ops is NOT provided here — that is
  // the cache tier's pending-key table (HybridCache) — but overlapping
  // read-modify-write cycles of one SOC bucket are serialized internally, so
  // concurrent inserts/removes into one bucket never lose updates.
  void LookupAsync(std::string_view key, AsyncCallback cb);
  void InsertAsync(std::string_view key, std::string_view value, AsyncCallback cb);
  void RemoveAsync(std::string_view key, AsyncCallback cb);

  // Steps every parked operation whose flash read has completed (their
  // callbacks fire from inside the call). Returns the number completed.
  size_t PumpAsync();
  // Blocks until the oldest parked operation's read retires, steps it, then
  // sweeps any other completions. No-op when nothing is parked.
  void PumpAsyncBlocking();
  // Runs the pump to quiescence: returns once no operation is parked or
  // queued (including ones enqueued by callbacks during the drain).
  void DrainAsync();
  // Parked + queued async operations (each counted from submission until its
  // callback has fired).
  size_t pending_async_ops() const { return pending_async_; }

  // Seals the open LOC region and retires every in-flight flash write from
  // both engines — the barrier before shutdown or direct device inspection.
  // Returns false if a seal or an async write failed (state stays
  // consistent; the affected items degrade to misses).
  bool Flush();

  // Retires every in-flight flash write WITHOUT sealing the open LOC region
  // — the measurement barrier ExperimentRunner uses at sampling boundaries:
  // pending writes land, but the open region's fill state (and so DLWA /
  // byte accounting) stays exactly where a synchronous run would be.
  bool ReapPending();

  bool IsSmall(std::string_view key, std::string_view value) const {
    return key.size() + value.size() <= config_.small_item_max_bytes;
  }

  NavyStats stats() const;
  void ResetStats();

  // --- Persistence (warm restart over the same device contents) ------------
  // Seals in-flight LOC data and serializes recovery state. The SOC needs no
  // state (its on-flash format is self-describing).
  bool Persist(std::string* state);
  // Recovers a fresh instance: restores the LOC index and rescans the SOC to
  // rebuild its bloom filters. Returns false on state mismatch.
  bool Recover(const std::string& state);
  const SmallObjectCache& soc() const { return *soc_; }
  const LargeObjectCache& loc() const { return *loc_; }
  LargeObjectCache& mutable_loc() { return *loc_; }
  PlacementHandle soc_handle() const { return soc_handle_; }
  PlacementHandle loc_handle() const { return loc_handle_; }
  uint64_t soc_size_bytes() const { return soc_size_; }
  uint64_t loc_size_bytes() const { return loc_size_; }

 private:
  // One in-flight async operation: the stage names which flash read it is
  // parked on; `buffer` backs the submitted IoRequest.
  struct AsyncOp {
    enum class Stage : uint8_t {
      kSocLookupRead,  // SOC bucket read for a lookup.
      kLocLookupRead,  // LOC region read for a lookup.
      kSocInsertRead,  // SOC bucket read for an insert's read-modify-write.
      kSocRemoveRead,  // SOC bucket read for a remove's read-modify-write.
    };
    Stage stage = Stage::kSocLookupRead;
    std::string key;
    std::string value;  // Insert payload.
    AsyncCallback cb;
    CompletionToken token = kInvalidToken;
    std::vector<uint8_t> buffer;
    uint64_t bucket_id = 0;                 // SOC stages.
    SmallObjectCache::ReadPlan soc_plan;    // kSocLookupRead.
    LargeObjectCache::ReadPlan loc_plan;    // kLocLookupRead.
    bool loc_removed = false;               // kSocRemoveRead: LOC half's result.
  };

  void FinishOp(std::unique_ptr<AsyncOp> op, AsyncResult result);
  void ParkOp(std::unique_ptr<AsyncOp> op, uint64_t offset, uint64_t size, uint32_t qp);
  // Runs/continues the SOC stage of a lookup (park, inline hit, or fall
  // through to the LOC stage); re-entered on kRetry.
  void StartSocLookup(std::unique_ptr<AsyncOp> op);
  // Runs/continues the LOC half of a lookup (may park the op or finish it).
  void StartLocLookup(std::unique_ptr<AsyncOp> op);
  // Starts a SOC read-modify-write op: claims the bucket and parks on the
  // bucket read, resolves inline from a pending write buffer, or queues
  // behind the bucket's current claimant.
  void StartSocRmw(std::unique_ptr<AsyncOp> op);
  // Steps one parked op whose device read completed.
  void StepOp(std::unique_ptr<AsyncOp> op, const IoResult& io);
  // Releases a SOC bucket claim and starts queued waiters.
  void ReleaseBucket(uint64_t bucket_id);
  // Blocks until no async RMW op holds `key`'s bucket (drives parked ops);
  // the blocking Insert/Remove path's guard against in-flight async RMWs.
  // Free when no bucket is claimed — i.e. always, for purely blocking users.
  void SettleBucketFor(std::string_view key);
  // Fires a callback and settles the pending-op count.
  void Complete(AsyncCallback cb, AsyncResult result);

  Device* device_;
  NavyConfig config_;
  AdmissionPolicy* admission_;  // May be null (always admit).
  PlacementHandle soc_handle_ = kNoPlacement;
  PlacementHandle loc_handle_ = kNoPlacement;
  uint64_t soc_size_ = 0;
  uint64_t loc_size_ = 0;
  std::unique_ptr<SmallObjectCache> soc_;
  std::unique_ptr<LargeObjectCache> loc_;
  uint64_t admission_rejects_ = 0;
  uint32_t soc_qp_ = 0;
  uint32_t loc_qp_ = 0;

  // Async engine state. parked_ holds ops waiting on a device token;
  // bucket_waiters_ holds RMW ops queued behind the bucket's claimant
  // (busy_buckets_); pending_async_ counts both until callbacks fire.
  std::deque<std::unique_ptr<AsyncOp>> parked_;
  std::unordered_map<uint64_t, std::deque<std::unique_ptr<AsyncOp>>> bucket_waiters_;
  std::unordered_set<uint64_t> busy_buckets_;
  size_t pending_async_ = 0;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_NAVY_CACHE_H_
