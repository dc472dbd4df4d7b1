// Debug-build lock-rank deadlock detector (PR 10).
//
// Every fdp::Mutex (src/common/thread_annotations.h) carries a documented
// rank — a position in the stack-wide total lock order. A thread-local
// held-lock stack checks strict monotonicity on every acquire: taking a
// mutex whose rank is <= the highest rank already held aborts immediately,
// naming both locks and their acquire sites. This turns "the lock hierarchy
// is documented in comments" into "any run of any test that nests two locks
// the wrong way dies on the spot" — the dynamic complement to the Clang
// Thread Safety Analysis annotations, which cannot see across virtual calls
// and type-erased callbacks; the runtime checker covers exactly those.
//
// The whole checker compiles to nothing when NDEBUG is defined: fdp::Mutex
// is then a bare std::mutex and Release `fdpbench --qd=1` CSVs stay
// byte-identical to a tree without the checker.
//
// Rank encoding: composite 32-bit value (major << 16) | minor. Majors give
// the cross-subsystem total order (outermost lock = lowest major); minors
// order indexed lock families within one major (a thread that ever held
// several queue-pair or lane locks at once would have to take them in
// ascending index order; today none does). Rank 0
// (kUnranked) opts a mutex out of ordering checks but keeps it on the held
// stack for AssertHeld() and self-deadlock detection.
//
// The full rank table with the nesting evidence for each edge lives in
// README.md ("Lock discipline"); keep the two in sync.
#ifndef SRC_COMMON_LOCK_RANK_H_
#define SRC_COMMON_LOCK_RANK_H_

#include <cstdint>
#include <vector>

namespace fdpcache {
namespace lock_rank {

// Major ranks, outermost (acquired first) to innermost (acquired last).
// Append new subsystems where their observed nesting puts them. Majors stay
// contiguous: deleting one renumbers the ones after it, which keeps their
// relative order and so every audited edge in README.md.
enum Major : uint32_t {
  kUnranked = 0x00,  // No ordering checks (tests, short-lived local locks).

  // Harness. The replay driver's async-window lock is only ever taken with
  // nothing held (completion callbacks fire outside all cache/device locks),
  // but a callback that ever ran under a device lock would be an inversion
  // worth catching, so it ranks outermost.
  kReplayWindow = 0x01,

  // Cache tier. The shard mutex is the outermost lock of the data path: the
  // blocking path holds it across HybridCache -> RamCache -> device SyncIo.
  kShard = 0x02,        // ShardedCache::Shard::mu
  kCachePoller = 0x03,  // ShardedCache::poll_mu_ (never nests with kShard)

  // RAM cache. Every writer takes the eviction-index lock first: Put and
  // Remove then hold one bucket writer lock, and EvictToBudget takes bucket
  // locks one at a time. Retire and Reclaim take the limbo lock only after
  // both are released.
  kRamEvict = 0x04,   // RamCache::evict_mu_
  kRamBucket = 0x05,  // RamCache::Bucket::mu (one bucket at a time)
  kRamLimbo = 0x06,   // RamCache::limbo_mu_

  // Execution lanes (QueuedDevice's lane pool and UringFileDevice's
  // thread-pool fallback). A leaf: Dispatch, the worker and the stats
  // snapshot each hold one lane lock at a time and take nothing under it
  // (minor = lane index, for diagnostics).
  kLane = 0x07,  // ExecLaneEngine::Lane::mu

  // Queued device. A completion records its one stats entry under its own
  // QP lock; ResetStats and the stats snapshot hold one QP lock at a time.
  kQueuePair = 0x08,       // QueuedDevice::IoQueuePair::mu, minor = QP index
  kDevicePipeline = 0x09,  // QueuedDevice::mu_ (dispatcher handshake)
  kDeviceTracker = 0x0a,   // QueuedDevice::tracker_mu_ (the conflict tracker)

  // io_uring file backend. A leaf lock: the reaper copies op state out and
  // completes requests with it released.
  kUringSubmit = 0x0b,  // UringFileDevice::submit_mu_

  // Simulated SSD. Taken during Execute with no pipeline locks held, but
  // under the shard lock on the blocking cache path.
  kSsd = 0x0c,  // SimulatedSsd::mu_

  // Observability. A thread's first RecordSpan registers its ring under the
  // trace lock — and can happen under the shard, QP, or SSD lock, so the
  // trace lock ranks after all of them: the innermost lock of the stack.
  kTrace = 0x0d,  // obs::TraceController::mu_
};

// Composite rank: majors order subsystems, minors order indexed lock
// families (QP index, lane index) within one major.
constexpr uint32_t Make(Major major, uint32_t minor = 0) {
  return (static_cast<uint32_t>(major) << 16) | (minor & 0xffffu);
}

constexpr uint32_t MajorOf(uint32_t rank) { return rank >> 16; }
constexpr uint32_t MinorOf(uint32_t rank) { return rank & 0xffffu; }

// One row of the documented rank table (the machine-readable twin of the
// README table; lock_rank_test asserts it is unique and sorted).
struct RankInfo {
  Major major;
  const char* name;     // The fdp::Mutex debug name used at construction.
  const char* comment;  // Who holds it / why it sits at this rank.
};

// Every documented major, outermost first. Indexed families (kLane,
// kQueuePair) appear once; their minors are instance indices.
const std::vector<RankInfo>& DocumentedRanks();

#ifndef NDEBUG

// One entry of the calling thread's held-lock stack.
struct HeldLock {
  const void* mutex;  // Identity (fdp::Mutex address) for AssertHeld.
  uint32_t rank;
  const char* name;
  const char* site;  // Function that acquired it (__builtin_FUNCTION()).
};

// Called by fdp::Mutex just BEFORE blocking on the underlying lock, so a
// violation aborts with a named diagnostic instead of hanging on the very
// deadlock it diagnoses. Aborts (after printing both locks, their ranks,
// and their acquire sites to stderr) when:
//  - `mutex` is already on this thread's held stack (self-deadlock), or
//  - `rank` != kUnranked and some held rank >= `rank` (order inversion).
void NoteAcquire(const void* mutex, uint32_t rank, const char* name, const char* site);

// Called by fdp::Mutex immediately before releasing. Aborts if `mutex` is
// not on this thread's held stack (release of a lock the thread never took).
void NoteRelease(const void* mutex);

// Aborts unless `mutex` is on this thread's held stack. Backs
// fdp::Mutex::AssertHeld() — the runtime shim behind REQUIRES() for call
// sites a static analyzer cannot see (lambdas, dynamic lock arrays).
void CheckHeld(const void* mutex, const char* name, const char* site);

// Snapshot of the calling thread's held stack, for tests.
std::vector<HeldLock> HeldLocksForTest();

#endif  // !NDEBUG

}  // namespace lock_rank
}  // namespace fdpcache

#endif  // SRC_COMMON_LOCK_RANK_H_
