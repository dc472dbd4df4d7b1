#include "src/common/lock_rank.h"

#include <cstdio>
#include <cstdlib>

namespace fdpcache {
namespace lock_rank {

const std::vector<RankInfo>& DocumentedRanks() {
  // Outermost first. lock_rank_test asserts majors are unique and strictly
  // ascending, names are unique, and the table covers every fdp::Mutex
  // constructed by the library. Keep in sync with the README rank table.
  static const std::vector<RankInfo> kTable = {
      {kReplayWindow, "replay_window", "ConcurrentReplayDriver async window; callbacks hold no locks"},
      {kShard, "shard", "ShardedCache::Shard::mu; outermost data-path lock (held across SyncIo)"},
      {kCachePoller, "cache_poller", "ShardedCache::poll_mu_; never nests with the shard lock"},
      {kRamEvict, "ram_evict", "RamCache::evict_mu_; held while taking bucket locks in EvictToBudget"},
      {kRamBucket, "ram_bucket", "RamCache::Bucket::mu; one bucket at a time, under evict on eviction"},
      {kRamLimbo, "ram_limbo", "RamCache::limbo_mu_; Retire runs under the eviction lock"},
      {kLane, "lane", "ExecLaneEngine::Lane::mu; leaf, one lane lock at a time"},
      {kQueuePair, "qp", "QueuedDevice::IoQueuePair::mu; minor = QP index, one held at a time"},
      {kDevicePipeline, "device_pipeline", "QueuedDevice::mu_; dispatcher wake/idle handshake"},
      {kDeviceTracker, "device_tracker", "QueuedDevice::tracker_mu_; the one conflict tracker"},
      {kUringSubmit, "uring_submit", "UringFileDevice::submit_mu_; leaf (reaper completes unlocked)"},
      {kSsd, "ssd", "SimulatedSsd::mu_; under the shard lock on the blocking path"},
      {kTrace, "trace", "obs::TraceController::mu_; first-span ring registration under QP/shard/SSD"},
  };
  return kTable;
}

#ifndef NDEBUG

namespace {

// Held-lock stack of the calling thread. A plain vector: depth never
// exceeds a handful of locks, and release order is not always LIFO (scoped
// locks released out of construction order), so NoteRelease erases by
// identity rather than popping.
thread_local std::vector<HeldLock> g_held;

[[noreturn]] void Die(const char* what, const HeldLock& held, uint32_t rank, const char* name,
                      const char* site) {
  std::fprintf(stderr,
               "lock_rank: %s\n"
               "  acquiring: \"%s\" rank 0x%x (major 0x%x minor %u) in %s()\n"
               "  while holding: \"%s\" rank 0x%x (major 0x%x minor %u) acquired in %s()\n"
               "Fix the acquire order or the rank table (src/common/lock_rank.h, README "
               "\"Lock discipline\").\n",
               what, name, rank, MajorOf(rank), MinorOf(rank), site, held.name, held.rank,
               MajorOf(held.rank), MinorOf(held.rank), held.site);
  std::abort();
}

}  // namespace

void NoteAcquire(const void* mutex, uint32_t rank, const char* name, const char* site) {
  const HeldLock* worst = nullptr;
  for (const HeldLock& held : g_held) {
    if (held.mutex == mutex) {
      Die("same mutex acquired twice by one thread (self-deadlock)", held, rank, name, site);
    }
    // Unranked locks order against nothing; ranked locks must strictly
    // ascend, including within an indexed family (minor vs minor).
    if (rank != 0 && held.rank != 0 && held.rank >= rank) {
      if (worst == nullptr || held.rank > worst->rank) {
        worst = &held;
      }
    }
  }
  if (worst != nullptr) {
    Die("lock rank inversion", *worst, rank, name, site);
  }
  g_held.push_back(HeldLock{mutex, rank, name, site});
}

void NoteRelease(const void* mutex) {
  for (size_t i = g_held.size(); i > 0; --i) {
    if (g_held[i - 1].mutex == mutex) {
      g_held.erase(g_held.begin() + static_cast<long>(i - 1));
      return;
    }
  }
  std::fprintf(stderr, "lock_rank: releasing a mutex this thread does not hold (%p)\n", mutex);
  std::abort();
}

void CheckHeld(const void* mutex, const char* name, const char* site) {
  for (const HeldLock& held : g_held) {
    if (held.mutex == mutex) {
      return;
    }
  }
  std::fprintf(stderr,
               "lock_rank: REQUIRES violation — %s() touched state guarded by \"%s\" "
               "without holding it\n",
               site, name);
  std::abort();
}

std::vector<HeldLock> HeldLocksForTest() { return g_held; }

#endif  // !NDEBUG

}  // namespace lock_rank
}  // namespace fdpcache
