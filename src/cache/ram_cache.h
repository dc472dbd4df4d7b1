// Byte-budgeted LRU RAM cache (CacheLib's DRAM tier, paper Figure 1) with a
// LOCK-FREE read path.
//
// Layout: the key space is sharded-within-shard into `num_buckets` chained
// hash buckets. Each bucket holds an atomic head pointer to a singly-linked
// chain of IMMUTABLE nodes plus a seqlock-style version counter. A node is
// one heap block: its header, then the key bytes, then the value bytes (one
// allocation per item; an update replaces the node, never edits it).
//
//   Readers (Get/Contains) take NO mutex. They snapshot the bucket version,
//   walk the chain through acquire-loads, and on a miss re-validate the
//   version — an odd or changed version means a concurrent writer unlinked
//   a node mid-walk (the one case that can produce a FALSE miss), so the
//   reader retries and `optimistic_retries` advances. A hit needs no
//   validation: nodes are immutable and published with release stores, so
//   any node a reader can reach is fully constructed and its value safe to
//   copy.
//
//   Writers (Put/Remove/eviction) hold the eviction-index mutex and then
//   the bucket mutex, and bump the version to odd before any unlink and
//   back to even after. A node is therefore linked exactly while it is in
//   the eviction index, and both change under the same locks — no other
//   writer can unlink (and retire) a node between its link and its index
//   entry. Unlinking leaves the victim's `next` pointer intact, so an
//   in-flight reader parked on the victim still reaches the rest of the
//   chain.
//
//   Reclamation is deferred, RCU-style: unlinked nodes retire into a FIFO
//   limbo list tagged with the global epoch (src/common/epoch_reclaim.h),
//   and a node is freed only after every reader that could hold a reference
//   has exited — retire_epoch + 2 <= min active epoch. Tags are drawn under
//   the limbo mutex, so the FIFO is ordered by retire epoch and a sweep
//   stops at the first node still in its grace period. Reclamation is paced:
//   once kReapThreshold nodes wait, each Put frees at most kReapBatch of the
//   oldest (and at least as many as it retired), so no single write pays for
//   the whole list. ReapDeferred() is the full sweep; the owner
//   (HybridCache) rides its pending-op pump to call it.
//
// LRU is exact when calls are serialized and approximate under concurrency:
// every Put and Get-hit draws a fresh tick from a per-cache counter and
// stores it in the node's atomic stamp (the contention-free "LRU touch" —
// no list splicing, no lock). Eviction keeps a stamp-ordered index
// (`lru_by_stamp_`, guarded by `evict_mu_`) that records the stamp each
// node had when last indexed; Get never touches it. The evictor lazily
// repairs the index: it pops the minimum recorded stamp and, if the node's
// actual stamp has moved on, re-files it and tries again — so the evicted
// node provably holds the globally minimal stamp, which makes
// single-threaded behaviour byte-for-byte identical to the old list LRU.
//
// Evictions invoke a callback so the hybrid cache can spill evicted items to
// flash — the write path that makes flash caching write-intensive (paper
// §2.3: "evictions upon read from DRAM translate to writes on Flash").
// Callbacks fire after ALL internal locks are released, in eviction order,
// so they may re-enter the cache freely. They receive views of the victim
// node itself, not copies: the evicting Put owns its unlinked victims
// exclusively and retires them only after the last callback returns.
#ifndef SRC_CACHE_RAM_CACHE_H_
#define SRC_CACHE_RAM_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/thread_annotations.h"

namespace fdpcache {

struct RamCacheStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  uint64_t rejected_too_large = 0;
  // Reader retries caused by a concurrent writer invalidating an optimistic
  // chain walk (seqlock validation failure). Zero in serialized use.
  uint64_t optimistic_retries = 0;
  // Mutex acquisitions (bucket, eviction-index, and limbo locks). Only
  // writers and the reaper take locks, so this stays FLAT across a
  // reader-only phase — the property the lock-free torture test asserts.
  uint64_t lock_acquisitions = 0;
};

class RamCache {
 public:
  // Invoked once per evicted item, after the victim has been unlinked, the
  // cache's invariants restored, and all internal locks released — safe for
  // the callback to reenter this cache. The views point into the victim's
  // node and stay valid until the callback returns; copy what must outlive
  // the call.
  using EvictionCallback = std::function<void(std::string_view key, std::string_view value)>;

  // Per-item bookkeeping overhead charged against the budget, approximating
  // CacheLib's item header + hashtable bucket.
  static constexpr uint64_t kPerItemOverhead = 64;

  // Reclamation pacing: once this many retired nodes wait in limbo, each Put
  // frees up to max(kReapBatch, nodes it retired) of the oldest whose grace
  // period has passed. Purely blocking callers (no pump) still bound memory,
  // and no single write frees more than a small batch. Under steady writes
  // limbo holds about kReapThreshold nodes, so the threshold stays small.
  static constexpr size_t kReapThreshold = 64;
  static constexpr size_t kReapBatch = 8;

  explicit RamCache(uint64_t budget_bytes, size_t num_buckets = 1024);
  ~RamCache();

  RamCache(const RamCache&) = delete;
  RamCache& operator=(const RamCache&) = delete;

  void set_eviction_callback(EvictionCallback cb) { on_evict_ = std::move(cb); }

  // Inserts or updates. Evicts minimum-stamp items (invoking the callback)
  // to fit. Returns false when the item alone exceeds the budget.
  bool Put(std::string_view key, std::string_view value);

  // Lock-free: returns true and fills `value` on hit; refreshes the item's
  // access stamp (the LRU touch). Acquires no mutex on hit OR miss.
  bool Get(std::string_view key, std::string* value);

  // Lock-free membership probe (no stamp refresh, no stats).
  bool Contains(std::string_view key) const;

  bool Remove(std::string_view key);

  // Frees every retired node whose grace period has elapsed (advances the
  // global epoch first). Returns the number of nodes freed. The owner should
  // call this from its completion pump; Puts reclaim in bounded batches.
  size_t ReapDeferred();

  // Unlinked nodes awaiting their grace period.
  size_t deferred_nodes() const { return limbo_count_.load(std::memory_order_relaxed); }

  uint64_t used_bytes() const { return used_.load(std::memory_order_relaxed); }
  uint64_t budget_bytes() const { return budget_; }
  size_t size() const { return count_.load(std::memory_order_relaxed); }
  RamCacheStats stats() const;

 private:
  // One heap block per item: this header, then the key bytes, then the
  // value bytes. Key and value never change once the node is published, so
  // lock-free readers may view them with no lock.
  struct Node {
    static Node* Create(std::string_view key, std::string_view value, uint64_t stamp);
    static void Destroy(Node* node);

    std::string_view key() const { return {Bytes(), key_size}; }
    std::string_view value() const { return {Bytes() + key_size, value_size}; }

    // Last-access tick; stored relaxed by lock-free readers (LRU touch).
    std::atomic<uint64_t> stamp;
    std::atomic<Node*> next{nullptr};

    // GUARDED_BY is inexpressible here (a nested struct cannot name the
    // owning RamCache's members), so the guards stay documented as comments;
    // the functions that touch them carry REQUIRES on the owning mutex.
    // Chains unlinked nodes: an evicting Put's private victim list, then
    // the limbo FIFO (guarded by limbo_mu_).
    Node* limbo_next = nullptr;
    uint64_t retire_epoch = 0;  // Guarded by limbo_mu_.
    uint64_t lru_key = 0;       // Recorded index stamp; guarded by evict_mu_.
    const size_t key_size;
    const size_t value_size;

   private:
    Node(uint64_t initial_stamp, size_t key_bytes, size_t value_bytes)
        : stamp(initial_stamp), key_size(key_bytes), value_size(value_bytes) {}
    const char* Bytes() const { return reinterpret_cast<const char*>(this + 1); }
  };

  // Unlinked nodes chained through limbo_next, in unlink order.
  struct NodeChain {
    Node* head = nullptr;
    Node* tail = nullptr;
    size_t size = 0;

    void Push(Node* node) {
      node->limbo_next = nullptr;
      if (tail == nullptr) {
        head = node;
      } else {
        tail->limbo_next = node;
      }
      tail = node;
      ++size;
    }
  };

  struct alignas(64) Bucket {
    std::atomic<Node*> head{nullptr};
    // Seqlock: odd while a writer is unlinking. Bumped only around unlinks
    // (pure inserts can't cause a false miss, so they don't pay the bump).
    std::atomic<uint64_t> version{0};
    // Writer serialization only — readers never take it. All buckets share
    // one rank (one bucket lock held at a time, always nested under
    // evict_mu_).
    fdp::Mutex mu{lock_rank::Make(lock_rank::kRamBucket), "ram_bucket"};
  };

  static uint64_t ItemBytes(std::string_view key, std::string_view value) {
    return key.size() + value.size() + kPerItemOverhead;
  }
  static uint64_t ItemBytes(const Node* node) { return ItemBytes(node->key(), node->value()); }

  Bucket& BucketFor(std::string_view key) const;
  uint64_t NextTick() { return tick_.fetch_add(1, std::memory_order_relaxed); }
  // Pairs with every fdp::MutexLock acquisition below to keep the
  // lock_acquisitions counter honest (the lock-free torture test asserts it
  // stays flat across a reader-only phase).
  void CountLockAcquisition() const {
    stats_.lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
  }

  static Node* FindLocked(Bucket& bucket, std::string_view key, Node** pred) REQUIRES(bucket.mu);
  // Predecessor of a node known to be linked.
  static Node* PredOfLocked(Bucket& bucket, const Node* node) REQUIRES(bucket.mu);
  // Unlinks `node` (version bumped odd/even around the pointer swing),
  // leaving node->next intact for in-flight readers.
  static void UnlinkLocked(Bucket& bucket, Node* node, Node* pred) REQUIRES(bucket.mu);

  // Unlinks minimum-stamp nodes until used_ <= budget_, appending them to
  // `victims` in eviction order.
  void EvictToBudget(NodeChain* victims) REQUIRES(evict_mu_);
  // Appends a chain to the limbo FIFO, tagged with the current epoch (no-op
  // for an empty chain).
  void Retire(const NodeChain& chain);
  // Frees up to `limit` of the oldest retired nodes whose grace period has
  // elapsed (advances the global epoch first). Returns the number freed.
  size_t Reclaim(size_t limit);

  const uint64_t budget_;
  const size_t num_buckets_;  // Power of two.
  std::unique_ptr<Bucket[]> buckets_;

  std::atomic<uint64_t> used_{0};
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> tick_{1};

  // Eviction index: recorded stamp -> node, holding exactly the linked
  // nodes. Stamps are globally unique (drawn from tick_), so the key never
  // collides. Ranks BEFORE the bucket locks: every writer holds it while
  // locking a bucket.
  mutable fdp::Mutex evict_mu_{lock_rank::Make(lock_rank::kRamEvict), "ram_evict"};
  std::map<uint64_t, Node*> lru_by_stamp_ GUARDED_BY(evict_mu_);

  // FIFO of retired nodes, oldest (smallest retire_epoch) at the head.
  mutable fdp::Mutex limbo_mu_{lock_rank::Make(lock_rank::kRamLimbo), "ram_limbo"};
  Node* limbo_head_ GUARDED_BY(limbo_mu_) = nullptr;
  Node* limbo_tail_ GUARDED_BY(limbo_mu_) = nullptr;
  std::atomic<size_t> limbo_count_{0};

  EvictionCallback on_evict_;

  struct AtomicStats {
    std::atomic<uint64_t> puts{0};
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> rejected_too_large{0};
    std::atomic<uint64_t> optimistic_retries{0};
    std::atomic<uint64_t> lock_acquisitions{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace fdpcache

#endif  // SRC_CACHE_RAM_CACHE_H_
