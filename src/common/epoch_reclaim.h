// Epoch-based deferred reclamation for lock-free readers (RCU-style).
//
// The lock-free DRAM hit path (RamCache::Get) walks hash-bucket chains with
// no lock held, so a writer that unlinks a node must not free it while a
// reader may still be dereferencing it. Writers instead RETIRE nodes into a
// limbo list tagged with the global epoch, and free them only after a grace
// period: every reader announces the epoch it entered under, and a retired
// node is reclaimable once every active reader's announced epoch is at least
// two epochs past the node's retire tag (the classic 2-epoch grace rule —
// the announce may lag the epoch it read by one advance).
//
// The reader registry is process-global: slots track THREADS, not caches, so
// one announce covers every epoch-protected structure a thread reads. Limbo
// lists live with their owning structure (see RamCache), which keeps object
// lifetime local: a structure being destroyed may free its own limbo
// unconditionally, because its destruction contract already guarantees no
// concurrent readers of THAT structure.
//
// Read-side cost: one claimed thread-local slot lookup plus two atomic
// operations (a seq_cst exchange to announce, a release store to leave) —
// no shared-line RMW contention between readers on different slots (slots
// are cache-line padded).
//
// Reclaim-side cost: a grace check scans reader slots, but only up to the
// highest slot any thread has ever claimed (a high-water mark raised before
// the claiming thread's first announce), not all kMaxSlots — a handful of
// cache lines for the thread counts the harness and tests run.
#ifndef SRC_COMMON_EPOCH_RECLAIM_H_
#define SRC_COMMON_EPOCH_RECLAIM_H_

#include <atomic>
#include <cstdint>

namespace fdpcache {

class EpochRegistry {
 public:
  // Concurrent reader threads beyond this share the conservative overflow
  // path (reclamation pauses while any overflow reader is active). 256 is an
  // order of magnitude above anything the harness or tests spawn.
  static constexpr uint32_t kMaxSlots = 256;

  static EpochRegistry& Instance();

  // RAII read-side critical section. While alive, any node unlinked by a
  // concurrent writer stays allocated. Cheap enough for a per-Get guard;
  // re-entrant (nested guards on one thread just re-announce).
  class ReadGuard {
   public:
    ReadGuard();
    ~ReadGuard();
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    std::atomic<uint64_t>* slot_;  // Null when riding the overflow path.
    uint64_t prev_;                // Restored on exit (nested guards).
  };

  // The epoch a retiring writer tags its garbage with.
  uint64_t CurrentEpoch() const { return epoch_.load(std::memory_order_seq_cst); }

  // Bumps the global epoch; reclaimers call this once per sweep so active
  // readers age out of old epochs.
  void AdvanceEpoch() { epoch_.fetch_add(1, std::memory_order_seq_cst); }

  // Smallest epoch announced by any active reader, or CurrentEpoch() when no
  // reader is active. A retired node tagged `t` is safe to free once
  // t + 2 <= MinActiveEpoch(). Returns 0 (blocking all reclamation) while
  // any overflow reader is active. Scans slots below the claim high-water
  // mark only.
  uint64_t MinActiveEpoch() const;

  // Active-reader count (slots below the high-water mark plus overflow
  // readers), for tests and the metrics exporter.
  uint32_t ActiveReaders() const;

 private:
  EpochRegistry() = default;

  struct alignas(64) Slot {
    // 0 = inactive; otherwise the epoch the thread announced on entry.
    std::atomic<uint64_t> epoch{0};
    // Claimed for the lifetime of one thread; released when it exits.
    std::atomic<bool> claimed{false};
  };

  // Claims a slot for the calling thread (cached thread-locally). Returns
  // null when every slot is taken — the caller rides the overflow path.
  Slot* SlotForThisThread();

  Slot slots_[kMaxSlots];
  // One past the highest slot index any thread has claimed. Only grows: a
  // slot released by an exiting thread stays below it (and reads 0).
  std::atomic<uint32_t> slot_limit_{0};
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint32_t> overflow_readers_{0};

  friend class ReadGuard;
};

}  // namespace fdpcache

#endif  // SRC_COMMON_EPOCH_RECLAIM_H_
