// HybridCache: the CacheLib-style two-tier cache (paper Figure 1).
//
// DRAM holds the hottest items; DRAM evictions spill to the Navy flash engine
// pair (subject to admission); flash hits are promoted back into DRAM. The
// public API is CacheLib-shaped: Set / Get / Remove on string keys/values,
// with the flash layer, placement handles, and FDP entirely hidden — the
// paper's "non-invasive" design requirement.
//
// Two call styles share one engine:
//
//   Blocking Set/Get/Remove — the legacy API. Flash I/O executes inline on
//   the calling thread (the device's SyncIo fast path), so behaviour and
//   performance match the pre-async cache exactly.
//
//   LookupAsync/InsertAsync/RemoveAsync — callback-based, admitted through
//   one entry (SubmitAsync). The DRAM tier, staleness table, and flash-side
//   RAM state are consulted immediately; operations that need a flash read
//   park on a device CompletionToken and their callback fires from a later
//   PumpAsync()/DrainAsync(), through one continuation (AfterFlash) that
//   re-installs the request's trace and records its flash_park span. A per-key
//   pending table serializes async operations on the same key in submission
//   order (an InsertAsync followed by a LookupAsync of the same key always
//   observes the insert), while operations on distinct keys overlap their
//   flash I/O freely. DRAM evictions triggered inside an async operation
//   spill to flash asynchronously too — they ride the same pending table as
//   first-class operations, so a lookup racing a spill waits for it instead
//   of missing.
//
// The class itself stays externally synchronized (one shard of ShardedCache,
// or a single-threaded driver): calls, pumps, and callbacks all run under
// whatever lock the owner supplies — with ONE exception: TryRamGet() is safe
// to call with no lock at all, racing the synchronized API. It rides the
// RamCache's lock-free read path, and every piece of state it touches
// (the DRAM tier, the stats counters, the pending-op gauge) is atomic.
#ifndef SRC_CACHE_HYBRID_CACHE_H_
#define SRC_CACHE_HYBRID_CACHE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "src/cache/ram_cache.h"
#include "src/navy/navy_cache.h"
#include "src/obs/trace.h"

namespace fdpcache {

struct HybridCacheConfig {
  uint64_t ram_bytes = 64 * 1024 * 1024;
  NavyConfig navy;
};

struct HybridCacheStats {
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t ram_hits = 0;
  uint64_t nvm_lookups = 0;
  uint64_t nvm_hits = 0;
  uint64_t misses = 0;

  // Counter-wise sum, for totals over shards or tenants.
  void Merge(const HybridCacheStats& other) {
    gets += other.gets;
    sets += other.sets;
    ram_hits += other.ram_hits;
    nvm_lookups += other.nvm_lookups;
    nvm_hits += other.nvm_hits;
    misses += other.misses;
  }

  // Overall cache hit ratio (paper Table 2 "Hit Ratio").
  double HitRatio() const {
    return gets == 0 ? 0.0
                     : static_cast<double>(ram_hits + nvm_hits) / static_cast<double>(gets);
  }
  // Hit ratio of the flash tier among lookups that missed DRAM (paper
  // Table 2 "NVM Hit Ratio").
  double NvmHitRatio() const {
    return nvm_lookups == 0 ? 0.0
                            : static_cast<double>(nvm_hits) / static_cast<double>(nvm_lookups);
  }
};

// Wraps `cb` so that it ends `span` when the callback is delivered. Returns
// `cb` unchanged when `span` is empty: an outer layer, or nobody, owns the
// request's trace. HybridCache and ShardedCache both begin async request
// traces with it.
AsyncCallback EndSpanOnDelivery(obs::RequestSpan span, obs::TraceOp op, AsyncCallback cb);

class HybridCache {
 public:
  // `device` backs the flash tier and must outlive the cache. `allocator`
  // and `admission` are optional collaborators (see NavyCache).
  HybridCache(Device* device, const HybridCacheConfig& config,
              PlacementHandleAllocator* allocator = nullptr,
              AdmissionPolicy* admission = nullptr);
  // Drains any still-pending async operations (callbacks fire).
  ~HybridCache();

  // Inserts or updates an item.
  void Set(std::string_view key, std::string_view value);

  // Looks up RAM, then flash. Flash hits are promoted to RAM.
  bool Get(std::string_view key, std::string* value);

  // Lock-free DRAM-tier probe: may be called with NO external lock, racing
  // the synchronized API on other threads. Returns true and fills `value`
  // on a RAM hit (counting a get + ram_hit); returns false — counting
  // NOTHING — when the item is not in RAM or when any async operation is
  // pending on this cache, in which case the caller must fall back to the
  // locked path. The pending-op gate preserves same-key async FIFO order: a
  // parked async op means a racing lookup of its key must queue behind it,
  // not short-circuit on RAM state a concurrent blocking Set repopulated.
  bool TryRamGet(std::string_view key, std::string* value);

  // Removes from both tiers.
  void Remove(std::string_view key);

  // --- Asynchronous API -------------------------------------------------------
  // Callback-based counterparts of Set/Get/Remove; see the class comment for
  // the execution model. Callbacks fire inline when no flash read is needed,
  // otherwise from PumpAsync()/DrainAsync(). Statuses: Lookup → kHit/kMiss;
  // Insert → kOk/kRejected/kError; Remove → kOk (removed) / kMiss (absent).
  void LookupAsync(std::string_view key, AsyncCallback cb);
  void InsertAsync(std::string_view key, std::string_view value, AsyncCallback cb);
  void RemoveAsync(std::string_view key, AsyncCallback cb);

  // Steps parked flash reads that have completed and runs any same-key
  // operations they unblocked; their callbacks fire from inside the call.
  // `blocking` waits for at least one parked read to retire first (no-op
  // when nothing is parked). Returns the number of operations still pending.
  size_t PumpAsync(bool blocking = false);
  // Pumps until no operation is pending — the per-shard completion barrier.
  // Operations submitted by callbacks during the drain are drained too.
  void DrainAsync();
  // Async operations accepted but not yet completed (active, parked, queued
  // behind a same-key claim, and pending eviction spills). Lock-free; safe
  // to read while other threads operate under the owner's lock.
  size_t pending_async_ops() const {
    return pending_async_.load(std::memory_order_acquire);
  }

  // --- Warm restart ---------------------------------------------------------
  // Persists flash-tier recovery state (LOC index + metadata) into `state`;
  // a new HybridCache over the same device recovers the whole flash tier
  // with Recover(). The DRAM tier starts cold, like CacheLib restarts.
  bool PersistFlashState(std::string* state) { return navy_->Persist(state); }
  bool RecoverFlashState(const std::string& state) {
    nvm_stale_.clear();
    return navy_->Recover(state);
  }

  // Snapshot of the cache counters. The counters are relaxed atomics (the
  // lock-free hit path bumps them with no lock held), so a snapshot racing
  // operations may pair counters from adjacent operations; quiescent reads
  // are exact.
  HybridCacheStats stats() const;
  void ResetStats();
  const RamCache& ram() const { return ram_; }
  NavyCache& navy() { return *navy_; }
  const NavyCache& navy() const { return *navy_; }

 private:
  struct QueuedOp {
    enum class Kind : uint8_t { kLookup, kInsert, kRemove, kSpill };
    Kind kind = Kind::kLookup;
    std::string key;
    std::string value;  // kInsert / kSpill payload.
    AsyncCallback cb;   // Null for kSpill.
    // Owning request trace (0 = untraced): ops cross pump/drain boundaries,
    // so the thread-local trace is re-installed from here when the op runs.
    uint64_t trace_id = 0;
  };

  // Sets in_async_context_ for its scope, so DRAM evictions spill through
  // the async path instead of blocking.
  class AsyncScope {
   public:
    explicit AsyncScope(HybridCache* cache) : cache_(cache) {
      prev_ = cache_->in_async_context_;
      cache_->in_async_context_ = true;
    }
    ~AsyncScope() { cache_->in_async_context_ = prev_; }

   private:
    HybridCache* cache_;
    bool prev_;
  };

  // Spill path for DRAM evictions (blocking, or async when the eviction
  // happened inside an async operation). The views point into the evicted
  // DRAM node and are valid for the call only.
  void OnRamEviction(std::string_view key, std::string_view value);

  // `key` as a std::string for nvm_stale_ / key_claims_ lookups (C++17
  // unordered containers have no heterogeneous lookup), staged in a reused
  // buffer rather than a fresh temporary. Valid until the next call.
  const std::string& KeyString(std::string_view key);

  // The one entry of LookupAsync/InsertAsync/RemoveAsync: begins the request
  // trace unless an outer layer already did, then admits the op.
  void SubmitAsync(QueuedOp::Kind kind, obs::TraceOp trace_op, std::string_view key,
                   std::string_view value, AsyncCallback cb);
  // Admits an op into the pending-key table: runs it now if the key is
  // unclaimed, queues it behind the claim otherwise.
  void EnqueueOp(QueuedOp op);
  // Runs an admitted op inside an AsyncScope, under its own trace.
  void RunOp(QueuedOp op);
  void RunLookup(QueuedOp op);
  void RunInsert(QueuedOp op);
  void RunRemove(QueuedOp op);
  // Writes the op's payload straight to flash: an insert too large for the
  // DRAM budget, or a DRAM eviction spilled inside an async op (null
  // callback). Touches no RAM state before the write, so a spill never
  // drops a value a blocking Set put back while the spill waited.
  void RunFlashInsert(QueuedOp op);
  // The one flash-completion continuation. Captures the current trace now;
  // on completion it re-installs that trace, records the flash_park span
  // (tagged `op`), and runs `then` inside an AsyncScope.
  template <typename Then>
  AsyncCallback AfterFlash(obs::TraceOp op, Then then);
  // Completes an op: releases its key claim (promoting the next same-key
  // waiter to runnable), settles the pending count, and fires the callback.
  void FinishOp(const std::string& key, AsyncCallback cb, AsyncResult result);
  // Runs ops whose key claim was released. Reentrancy-safe: nested calls
  // return immediately and the outermost loop drains everything.
  void DrainRunnable();

  RamCache ram_;
  std::unique_ptr<NavyCache> navy_;
  // Keys whose flash copy (if any) is stale because a newer version was
  // written to RAM and has not reached flash yet. CacheLib tracks the same
  // thing with in-memory NVM invalidation state; no device I/O involved.
  std::unordered_set<std::string> nvm_stale_;
  std::string key_buffer_;  // KeyString's buffer.

  // Relaxed atomics rather than plain counters: TryRamGet (and through it
  // ShardedCache's lock-free hit path) bumps gets/ram_hits with no external
  // lock held, racing locked-path updates.
  struct AtomicStats {
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> sets{0};
    std::atomic<uint64_t> ram_hits{0};
    std::atomic<uint64_t> nvm_lookups{0};
    std::atomic<uint64_t> nvm_hits{0};
    std::atomic<uint64_t> misses{0};
  };
  AtomicStats stats_;

  // Pending-key table: a key is present while an async op on it is active;
  // the deque holds same-key ops queued behind it (FIFO). Released claims
  // promote their first waiter onto runnable_.
  std::unordered_map<std::string, std::deque<QueuedOp>> key_claims_;
  std::deque<QueuedOp> runnable_;
  // Atomic so TryRamGet's gate and ShardedCache's poller can read it with
  // no shard lock; still only written under the owner's synchronization.
  std::atomic<size_t> pending_async_{0};
  bool in_async_context_ = false;
  bool draining_runnable_ = false;
};

}  // namespace fdpcache

#endif  // SRC_CACHE_HYBRID_CACHE_H_
