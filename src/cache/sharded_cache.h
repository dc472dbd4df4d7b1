// ShardedCache: a thread-safe front-end over N independent HybridCache shards.
//
// Keys are routed to shards by hash (stable across calls and processes); each
// shard is guarded by its own mutex, so operations on different shards
// proceed in parallel — and DRAM hits don't take the mutex at all: Get and
// LookupAsync first probe the shard's RAM tier through HybridCache::
// TryRamGet (RamCache's seqlock-protected lock-free read path) and acquire
// the shard lock only on a RAM miss, when the op must consult the staleness
// table / bloom filters / flash index under synchronization. Per-shard
// statistics live in relaxed atomics (inside HybridCache/RamCache), so both
// the lock-free hit path and aggregate Stats() snapshots touch no lock.
//
// Every locked shard call (the six entry points, ResetStats and the poller's
// sweep) runs through one private helper, RunLocked, which delivers the
// callbacks the call resolved only once the shard lock is released.
//
// Two call styles:
//
//   Blocking Set/Get/Remove — writers hold the shard lock for the whole
//   operation, flash I/O included (the pre-async behaviour, bit-compatible
//   with it); Get holds it only on the RAM-miss path.
//
//   LookupAsync/InsertAsync/RemoveAsync — callback-based. The shard lock is
//   held only while the DRAM tier, staleness table, and flash-side RAM
//   buffers are consulted; an operation that needs a flash read Submit()s it,
//   parks on the device CompletionToken, and RELEASES the shard lock — other
//   operations on the same shard (RAM hits included) proceed while the
//   device works. A completion poller thread, woken by the attached devices'
//   completion hooks, re-acquires the lock only to finish bookkeeping, then
//   fires the callback with no lock held (callbacks may re-enter the cache).
//   Per-shard pending-key tables keep same-key async operations in
//   submission order (see HybridCache).
//
// The shards themselves (and the devices beneath them) stay externally
// synchronized by this class. Callers provide a factory that builds one
// HybridCache per shard (see ShardedSimBackend in
// src/harness/concurrent_replay.h for the simulated version).
#ifndef SRC_CACHE_SHARDED_CACHE_H_
#define SRC_CACHE_SHARDED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/hybrid_cache.h"
#include "src/common/thread_annotations.h"

namespace fdpcache {

// Aggregated snapshot across all shards: the shards' HybridCacheStats summed,
// plus the counters only the sharded front end keeps and per-shard op counts
// for imbalance analysis. Device stats are not copied here; read them from
// the device (Device::stats(), PerQueuePairStats(), PerLaneStats()).
struct ShardedCacheStats : HybridCacheStats {
  // Remove/RemoveAsync calls (HybridCacheStats has no remove counter).
  uint64_t removes = 0;

  // Total operations (Get + Set + Remove) routed to each shard.
  std::vector<uint64_t> shard_ops;

  // In-flight async cache operations per shard (accepted, callback not yet
  // fired: active, parked on a flash read, queued behind a same-key claim,
  // or a pending eviction spill). A gauge, not a counter — it reads back as
  // 0 on a quiescent cache.
  std::vector<uint64_t> pending_ops;

  // --- Lock-free DRAM hit-path instrumentation ---------------------------
  // Shard-mutex acquisitions across all shards (every locked entry point;
  // the lock-free hit path never bumps this — a reader-only phase leaves it
  // flat, which is how the torture test asserts "no mutex on a RAM hit").
  uint64_t shard_lock_acquisitions = 0;
  // Seqlock validation retries in the DRAM tier: a reader re-walked a
  // bucket because a concurrent writer unlinked a node mid-walk.
  uint64_t ram_optimistic_retries = 0;
  // RamCache-internal writer/reaper mutex acquisitions (bucket, eviction
  // index, limbo). Also flat across a reader-only phase.
  uint64_t ram_lock_acquisitions = 0;

  uint64_t TotalPendingOps() const {
    uint64_t total = 0;
    for (const uint64_t p : pending_ops) {
      total += p;
    }
    return total;
  }
  // Hottest shard's op count over the per-shard mean; 1.0 = perfectly
  // balanced. Meaningless (returns 1.0) before any operation.
  double ShardImbalance() const;
};

class ShardedCache {
 public:
  // Builds the HybridCache for shard `shard_index`. Called once per shard at
  // construction; each shard must get its own backing device stack, since
  // nothing below this class is synchronized.
  using ShardFactory = std::function<std::unique_ptr<HybridCache>(uint32_t shard_index)>;

  ShardedCache(uint32_t num_shards, const ShardFactory& factory);
  // Drains outstanding async operations (their callbacks fire), then stops
  // the completion poller. Attached devices must still be alive.
  ~ShardedCache();

  // Stable hash routing: a pure function of (key, num_shards), num_shards
  // must be nonzero. Re-mixes the key hash with a shard seed so routing
  // stays decorrelated from the SOC's bucket choice, which also starts from
  // HashString.
  static uint32_t ShardIndexFor(std::string_view key, uint32_t num_shards);

  uint32_t ShardIndexOf(std::string_view key) const {
    return ShardIndexFor(key, static_cast<uint32_t>(shards_.size()));
  }

  // Thread-safe. Set/Remove lock exactly one shard for their full duration
  // (flash I/O included). Get serves DRAM hits lock-free and locks the
  // shard only when the RAM tier misses.
  void Set(std::string_view key, std::string_view value);
  bool Get(std::string_view key, std::string* value);
  void Remove(std::string_view key);

  // Thread-safe asynchronous API. A LookupAsync that hits DRAM (and finds
  // no pending same-key work) completes lock-free; otherwise each call
  // locks exactly one shard for the DRAM-side work only, and flash reads
  // ride the device queues with the lock released. The callback fires
  // exactly once — inline (before the call returns, lock already released)
  // when no flash read was needed, otherwise from the completion poller —
  // and always with no shard lock held, so it may call back into this
  // cache. Same-key async operations complete in submission order.
  void LookupAsync(std::string_view key, AsyncCallback cb);
  void InsertAsync(std::string_view key, std::string_view value, AsyncCallback cb);
  void RemoveAsync(std::string_view key, AsyncCallback cb);

  // Blocks until every async operation accepted before the call has
  // completed AND its callback has been delivered (a completion barrier).
  // Operations submitted concurrently with the drain may or may not be
  // covered. Does NOT flush engine write pipelines — that is Flush().
  // Must not be called from inside an async callback (it would wait for its
  // own delivery); the same holds for Flush() and the destructor.
  void Drain();

  // Registers a device whose completion hook should wake the async poller,
  // and which Flush() drains as its final barrier. The device is not owned
  // and must outlive the cache. Typically called once per backing device by
  // the backend that wires shards to devices. Its stats stay on the device.
  void AttachDevice(Device* device);

  // Completion barrier + write-pipeline flush: drains async cache ops, then
  // locks each shard in turn and flushes its flash tier (seals open LOC
  // regions, retires every in-flight async device write), then Drain()s
  // every attached device so no queue pair holds unexecuted work. Returns
  // false if any shard's flush reported a failed seal or write (state stays
  // consistent; the affected items degrade to misses). The barrier to run
  // before inspecting the device beneath a live cache (or shutting down).
  bool Flush();

  // Aggregate snapshot, read lock-free straight from the shards' relaxed
  // atomics (no lock of any kind is taken), so a snapshot racing operations
  // may pair counters from adjacent operations (e.g. transiently see a hit
  // counted before its get) — approximate by design, which is fine for
  // monitoring. Quiescent reads are exact.
  ShardedCacheStats Stats() const;

  // Locks each shard in turn and zeroes both the shard stats and the mirrors.
  void ResetStats();

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  // Unsynchronized access to a shard's cache, for tests and single-threaded
  // inspection only.
  HybridCache& shard(uint32_t index) { return *shards_[index]->cache; }
  const HybridCache& shard(uint32_t index) const { return *shards_[index]->cache; }

 private:
  using FiredCallback = std::pair<AsyncCallback, AsyncResult>;
  using FiredList = std::vector<FiredCallback>;

  // Padded to a cache line so one shard's lock/counter traffic does not
  // false-share with its neighbours'.
  struct alignas(64) Shard {
    // Outermost lock in the stack: everything below (RAM tiers, devices,
    // trace, metrics) may be acquired while a shard is held, never the
    // reverse. One shard lock is held at a time, so all shards share a rank.
    fdp::Mutex mu{lock_rank::Make(lock_rank::kShard), "shard"};

    // Callbacks resolved under the shard lock, staged here and fired by the
    // resolving thread after it unlocks (so no callback ever runs under a
    // shard lock). Declared BEFORE `cache` so it outlives it: ~HybridCache
    // drains stragglers, and their staged callbacks must land in a live
    // vector.
    FiredList fired GUARDED_BY(mu);
    // Batches taken out of `fired` that some thread is currently delivering
    // outside the lock; Drain()/Flush() wait for this to reach zero so the
    // barrier covers callback DELIVERY, not just op completion.
    uint32_t firing GUARDED_BY(mu) = 0;
    fdp::CondVar fire_cv;

    std::unique_ptr<HybridCache> cache;
    // HybridCacheStats has no remove counter. Atomic (relaxed) so Stats()
    // reads it lock-free; written only under the shard lock.
    std::atomic<uint64_t> removes{0};
    // Every shard-mutex acquisition (LockShard). The lock-free hit path
    // never touches it.
    std::atomic<uint64_t> lock_acquisitions{0};
  };

  Shard& ShardFor(std::string_view key) { return *shards_[ShardIndexOf(key)]; }

  // Acquires the shard mutex, counting the acquisition (the flat-counter
  // evidence that the DRAM hit path stays lock-free) and tracing the wait.
  // Callers pair it with an adopting fdp::MutexLock for scoped release.
  static void LockShard(Shard& shard, const char* site = __builtin_FUNCTION())
      ACQUIRE(shard.mu);

  // The one locked shard call: runs `call(*shard.cache)` under the shard
  // lock, takes the callbacks it resolved, unlocks, wakes the poller when
  // async ops remain pending and `wake_poller` is set (before delivery,
  // which runs user code), then delivers the callbacks with no lock held.
  // The poller's own sweep passes false: waking itself would spin. `site`
  // names the public entry point in lock-rank diagnostics. Returns whether
  // async ops remain pending on the shard.
  template <typename Call>
  bool RunLocked(Shard& shard, Call&& call, bool wake_poller = true,
                 const char* site = __builtin_FUNCTION());

  // The lock-free DRAM probe Get and LookupAsync try first
  // (HybridCache::TryRamGet), traced as a ram_probe span.
  static bool ProbeRam(Shard& shard, std::string_view key, std::string* value);

  // Appends one resolved callback to shard.fired. Called from the StageInto
  // lambda, which HybridCache invokes with the shard lock held — the
  // analysis cannot see through the std::function boundary, so the guard is
  // asserted at run time instead.
  static void AppendFired(Shard& shard, AsyncCallback cb, AsyncResult result)
      NO_THREAD_SAFETY_ANALYSIS;

  // Wraps a user callback so it ends `span` (see EndSpanOnDelivery) when
  // delivered, and stages into shard.fired instead of running under the
  // shard lock.
  static AsyncCallback StageInto(Shard& shard, obs::RequestSpan span, obs::TraceOp op,
                                 AsyncCallback cb);
  // Moves staged callbacks out and marks the shard as delivering a batch
  // (caller holds the shard lock; only RunLocked and DrainShard call it) ...
  static void TakeFired(Shard& shard, FiredList* out) REQUIRES(shard.mu);
  // ... and fires them outside the lock, then re-acquires it briefly to
  // mark the batch delivered (wakes barrier waiters). No-op when empty.
  static void FireTaken(Shard& shard, FiredList* fired);

  // The per-shard completion barrier shared by Drain() and Flush(): drains
  // the shard's async ops, optionally flushes its flash tier, waits out
  // callback batches other threads are still delivering, and fires the
  // final batch. Returns the flash flush's result (true when not flushing).
  bool DrainShard(Shard& shard, bool flush_navy);

  // Wakes the completion poller (a device completed I/O or an op parked).
  void NotifyPoller();
  void PollerLoop();
  // One poller round: pumps every shard with pending ops; returns whether
  // any shard still has pending ops.
  bool PumpShards();

  std::vector<std::unique_ptr<Shard>> shards_;
  // Devices registered via AttachDevice (not owned). Only appended to during
  // construction/wiring, before concurrent use begins.
  std::vector<Device*> devices_;

  // Completion poller: steps parked async ops when a device completion hook
  // (or a parking submitter) signals. The fallback timed wait covers devices
  // without hook support. Ranked just after kShard: today NotifyPoller is
  // only called with no lock held, but the rank leaves room for a hook that
  // fires under a shard lock without inverting anything below.
  fdp::Mutex poll_mu_{lock_rank::Make(lock_rank::kCachePoller), "cache_poller"};
  fdp::CondVar poll_cv_;
  uint64_t poll_signal_ GUARDED_BY(poll_mu_) = 0;
  bool poller_stop_ GUARDED_BY(poll_mu_) = false;
  // Wakeup coalescing: raised by the first NotifyPoller of a burst, cleared
  // by the poller just before it sweeps. Completions arriving while it is
  // raised skip the mutex+cv roundtrip entirely — one staging pass per CQ
  // sweep instead of one per completion.
  std::atomic<bool> poll_pending_{false};
  std::thread poller_;
};

}  // namespace fdpcache

#endif  // SRC_CACHE_SHARDED_CACHE_H_
