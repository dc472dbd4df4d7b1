#include "src/common/epoch_reclaim.h"

namespace fdpcache {

EpochRegistry& EpochRegistry::Instance() {
  static EpochRegistry registry;
  return registry;
}

EpochRegistry::Slot* EpochRegistry::SlotForThisThread() {
  struct ThreadSlot {
    Slot* slot = nullptr;
    ~ThreadSlot() {
      if (slot != nullptr) {
        slot->epoch.store(0, std::memory_order_release);
        slot->claimed.store(false, std::memory_order_release);
      }
    }
  };
  thread_local ThreadSlot tls;
  if (tls.slot != nullptr) return tls.slot;
  EpochRegistry& reg = Instance();
  for (uint32_t i = 0; i < kMaxSlots; ++i) {
    bool expected = false;
    if (reg.slots_[i].claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      // Raise the scan limit before this thread's first announce. Both are
      // seq_cst, so a reclaimer whose limit load misses slot i advanced the
      // epoch before our announce reads it — it needs no look at slot i.
      uint32_t limit = reg.slot_limit_.load(std::memory_order_seq_cst);
      while (limit <= i && !reg.slot_limit_.compare_exchange_weak(
                               limit, i + 1, std::memory_order_seq_cst)) {
      }
      tls.slot = &reg.slots_[i];
      return tls.slot;
    }
  }
  return nullptr;
}

EpochRegistry::ReadGuard::ReadGuard() {
  EpochRegistry& reg = Instance();
  Slot* slot = reg.SlotForThisThread();
  if (slot == nullptr) {
    // Overflow: no free slot. Count ourselves; MinActiveEpoch() returns 0
    // while any overflow reader is active, pausing all reclamation.
    reg.overflow_readers_.fetch_add(1, std::memory_order_seq_cst);
    slot_ = nullptr;
    prev_ = 0;
    return;
  }
  slot_ = &slot->epoch;
  // Only this thread writes its slot, so a relaxed load sees our own value.
  prev_ = slot_->load(std::memory_order_relaxed);
  // Nested guard: keep the OUTER announce. Advancing it would let the
  // reclaimer free nodes the outer critical section may still reference.
  if (prev_ != 0) return;
  // exchange (an RMW) rather than store + fence: TSan models RMW ordering
  // but not standalone fences, and seq_cst gives the total order the grace
  // argument needs — a reclaimer that advances the epoch and then scans
  // slots either sees our announce or we already saw the newer epoch.
  slot_->exchange(reg.epoch_.load(std::memory_order_seq_cst),
                  std::memory_order_seq_cst);
}

EpochRegistry::ReadGuard::~ReadGuard() {
  if (slot_ == nullptr) {
    Instance().overflow_readers_.fetch_sub(1, std::memory_order_seq_cst);
    return;
  }
  // Nested guard: prev_ restores the outer announce unchanged. Outermost
  // guard: prev_ is 0 — store it with release so the reclaimer's acquire
  // scan observing the slot empty also sees all our reads complete.
  slot_->store(prev_, std::memory_order_release);
}

uint64_t EpochRegistry::MinActiveEpoch() const {
  if (overflow_readers_.load(std::memory_order_seq_cst) != 0) return 0;
  uint64_t min = epoch_.load(std::memory_order_seq_cst);
  const uint32_t limit = slot_limit_.load(std::memory_order_seq_cst);
  for (uint32_t i = 0; i < limit; ++i) {
    uint64_t e = slots_[i].epoch.load(std::memory_order_acquire);
    if (e != 0 && e < min) min = e;
  }
  return min;
}

uint32_t EpochRegistry::ActiveReaders() const {
  uint32_t n = overflow_readers_.load(std::memory_order_seq_cst);
  const uint32_t limit = slot_limit_.load(std::memory_order_seq_cst);
  for (uint32_t i = 0; i < limit; ++i) {
    if (slots_[i].epoch.load(std::memory_order_acquire) != 0) ++n;
  }
  return n;
}

}  // namespace fdpcache
