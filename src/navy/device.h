// Navy device abstraction (paper Figure 4: the FDP-aware device layer).
//
// Cache engines address a flat byte space and tag writes with abstract
// placement handles; concrete devices translate handles to whatever the
// hardware understands (FDP placement identifiers for the simulated SSD,
// nothing for a plain file). This is the layer the paper added to CacheLib
// to keep FDP semantics out of the engines.
//
// The I/O contract is asynchronous and NVMe-shaped: callers Submit() an
// IoRequest and get back a CompletionToken, then reap the completion with
// Poll() (non-blocking) or Wait() (blocking); Drain() waits for every
// submitted request to execute. A device exposes one or more queue pairs
// (per-core SQ/CQ pairs on real NVMe); every request names the queue pair it
// rides (IoRequest::qp, 0 by default). Requests on the SAME queue pair whose
// byte ranges overlap (unless both are reads) retire in submission order, so
// overlapping write/trim sequences within a queue pair resolve exactly as
// submitted; disjoint requests on one queue pair may execute concurrently
// when the device runs parallel execution lanes (IoQueueConfig::exec_lanes,
// see src/navy/exec_lanes.h) or an asynchronous backend, and execute in
// strict per-QP FIFO order on the inline dispatcher path. Ordering ACROSS
// queue pairs is arbitration-dependent — callers that need cross-request
// ordering must keep those requests on one queue pair (exactly the guarantee
// real NVMe gives).
// The blocking Write/Read/Trim calls are a synchronous shim (Submit + Wait)
// so callers can migrate incrementally.
//
// Devices are safe for concurrent submitters; see QueuedDevice
// (src/navy/queued_device.h) for the multi-queue-pair submission/arbitration
// pipeline both concrete devices build on.
#ifndef SRC_NAVY_DEVICE_H_
#define SRC_NAVY_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/thread_annotations.h"
#include "src/nvme/types.h"

namespace fdpcache {

// Opaque placement handle. 0 means "no placement preference" (the default
// RUH); engines obtain real handles from the PlacementHandleAllocator.
using PlacementHandle = uint32_t;
constexpr PlacementHandle kNoPlacement = 0;

enum class IoOp : uint8_t { kRead, kWrite, kTrim };

// One device command. Payload buffers (`data` for writes, `out` for reads)
// are owned by the submitter and must stay alive and untouched until the
// request's completion has been reaped. `qp` selects the queue pair the
// request rides (wrapped modulo the device's queue-pair count); requests
// that must execute in submission order relative to each other have to share
// a queue pair.
struct IoRequest {
  IoOp op = IoOp::kRead;
  uint64_t offset = 0;
  uint64_t size = 0;
  const void* data = nullptr;      // kWrite payload.
  void* out = nullptr;             // kRead destination.
  PlacementHandle handle = kNoPlacement;  // kWrite only.
  uint32_t qp = 0;                 // Queue pair carrying this request.
  // Owning request trace (src/obs/trace.h); 0 = untraced. Filled by the
  // submitting layer (or from the thread's current trace at Submit/SyncIo)
  // so device-stage spans land in the right request.
  uint64_t trace_id = 0;

  static IoRequest MakeWrite(uint64_t offset, const void* data, uint64_t size,
                             PlacementHandle handle, uint32_t qp = 0) {
    IoRequest r;
    r.op = IoOp::kWrite;
    r.offset = offset;
    r.size = size;
    r.data = data;
    r.handle = handle;
    r.qp = qp;
    return r;
  }
  static IoRequest MakeRead(uint64_t offset, void* out, uint64_t size, uint32_t qp = 0) {
    IoRequest r;
    r.op = IoOp::kRead;
    r.offset = offset;
    r.size = size;
    r.out = out;
    r.qp = qp;
    return r;
  }
  static IoRequest MakeTrim(uint64_t offset, uint64_t size, uint32_t qp = 0) {
    IoRequest r;
    r.op = IoOp::kTrim;
    r.offset = offset;
    r.size = size;
    r.qp = qp;
    return r;
  }
};

// Identifies a submitted request. Tokens are unique per device and every
// token must eventually be reaped with Poll() or Wait() (like io_uring CQEs);
// Drain() alone leaves the completion parked for its reaper.
using CompletionToken = uint64_t;
constexpr CompletionToken kInvalidToken = 0;

struct IoResult {
  bool ok = false;
  // Device-model latency (virtual time for the simulated SSD, wall clock for
  // file-backed devices). Zero for rejected/invalid requests.
  uint64_t latency_ns = 0;
};

// Point-in-time stats snapshot. Counters are mirrored into atomics by the
// device as completions retire, so snapshots are safe to take from any thread
// while the async pipeline is in flight (same pattern as ShardedCacheStats:
// a racing snapshot may pair counters from adjacent completions, which is
// fine for monitoring; quiescent reads are exact).
struct DeviceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t trims = 0;
  uint64_t io_errors = 0;
  Histogram read_latency_ns;
  Histogram write_latency_ns;
};

// Per-queue-pair stats snapshot (the per-QP view of DeviceStats, plus
// queue-pair-only metrics). Counter semantics match RecordCompletion exactly,
// so summing every queue pair's counters reproduces the aggregate
// DeviceStats counters on a quiescent device.
struct QueuePairStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t trims = 0;
  uint64_t io_errors = 0;
  // Requests the arbiter has popped from this QP's submission ring (all ops,
  // including ones that later fail; excludes the inline SyncIo fast path,
  // which never enters a ring).
  uint64_t dispatched = 0;
  // Submissions that blocked on the congestion window (outstanding-bytes cap)
  // or a full SQ ring before being admitted — the backpressure that prevents
  // deep queues from convoying the backend (QD-64 collapse).
  uint64_t admission_waits = 0;
  // Requests the conflict tracker parked behind an overlapping same-QP
  // request still in flight, to preserve the per-QP ordering guarantee. The
  // tracker runs for execution lanes and asynchronous (BeginExecute)
  // backends; always zero on the inline dispatcher path, whose strict
  // per-QP FIFO needs no tracking.
  uint64_t conflict_defers = 0;
  Histogram read_latency_ns;
  Histogram write_latency_ns;
  // SQ occupancy sampled at every Submit (after the push): the queue-depth
  // distribution this QP's submitters actually achieved.
  Histogram queue_depth;

  void Merge(const QueuePairStats& other) {
    reads += other.reads;
    writes += other.writes;
    read_bytes += other.read_bytes;
    write_bytes += other.write_bytes;
    trims += other.trims;
    io_errors += other.io_errors;
    dispatched += other.dispatched;
    admission_waits += other.admission_waits;
    conflict_defers += other.conflict_defers;
    read_latency_ns.Merge(other.read_latency_ns);
    write_latency_ns.Merge(other.write_latency_ns);
    queue_depth.Merge(other.queue_depth);
  }
};

// Element-wise merge of two per-QP stat vectors (used to aggregate multiple
// devices' views into one report); the result has max(a.size, b.size) QPs.
inline std::vector<QueuePairStats> MergeQueuePairStats(std::vector<QueuePairStats> a,
                                                       const std::vector<QueuePairStats>& b) {
  if (a.size() < b.size()) {
    a.resize(b.size());
  }
  for (size_t i = 0; i < b.size(); ++i) {
    a[i].Merge(b[i]);
  }
  return a;
}

// Per-execution-lane stats snapshot (see ExecLaneEngine in
// src/navy/exec_lanes.h). Every request the arbiter pops goes through
// exactly one lane, so summing `dispatches` across lanes reproduces the sum
// of QueuePairStats::dispatched on a quiescent device with lanes enabled.
struct LaneStats {
  // Requests routed to this lane by the die-affine stripe map.
  uint64_t dispatches = 0;
  // Dispatches of requests the conflict tracker had parked behind an earlier
  // overlapping request on the same queue pair before they reached this
  // lane. Summed over lanes it equals the sum of
  // QueuePairStats::conflict_defers on a quiescent device.
  uint64_t conflict_waits = 0;
  // Device-model execution time this lane accumulated (the sum of its
  // requests' IoResult::latency_ns) — cross-checkable against
  // SsdTelemetry's per-die busy time.
  uint64_t busy_ns = 0;
  // Lane-queue occupancy sampled at every dispatch (after the push).
  Histogram queue_depth;

  void Merge(const LaneStats& other) {
    dispatches += other.dispatches;
    conflict_waits += other.conflict_waits;
    busy_ns += other.busy_ns;
    queue_depth.Merge(other.queue_depth);
  }
};

// Element-wise merge of two per-lane stat vectors, mirroring
// MergeQueuePairStats.
inline std::vector<LaneStats> MergeLaneStats(std::vector<LaneStats> a,
                                             const std::vector<LaneStats>& b) {
  if (a.size() < b.size()) {
    a.resize(b.size());
  }
  for (size_t i = 0; i < b.size(); ++i) {
    a[i].Merge(b[i]);
  }
  return a;
}

class Device {
 public:
  virtual ~Device() = default;

  // --- Asynchronous contract ------------------------------------------------
  // Submit never blocks on device work, but applies backpressure (blocks
  // briefly) when the submission ring is full. Offsets and sizes must be
  // multiples of page_size(); invalid requests still complete (with ok=false)
  // and must be reaped like any other.
  virtual CompletionToken Submit(const IoRequest& request) = 0;

  // Non-blocking reap: returns the result if `token` has completed and
  // consumes it; nullopt while still in flight. A token can be reaped once.
  virtual std::optional<IoResult> Poll(CompletionToken token) = 0;

  // Blocking reap of one token.
  virtual IoResult Wait(CompletionToken token) = 0;

  // Blocks until every submitted request has executed. Does not consume
  // completions — each token still has to be reaped by its owner.
  virtual void Drain() = 0;

  // Queue-depth accounting: requests submitted but not yet executed.
  virtual uint32_t InFlight() const = 0;

  // --- Synchronous shim -------------------------------------------------------
  // Semantically Submit + Wait; implementations may bypass the queue when
  // the pipeline is idle (see QueuedDevice::SyncIo) so single-threaded
  // callers keep direct-call performance. Callers that leave `qp` at 0 ride
  // queue pair 0 (the legacy single-queue behaviour).
  bool Write(uint64_t offset, const void* data, uint64_t size, PlacementHandle handle,
             uint32_t qp = 0) {
    return SyncIo(IoRequest::MakeWrite(offset, data, size, handle, qp)).ok;
  }
  bool Read(uint64_t offset, void* out, uint64_t size, uint32_t qp = 0) {
    return SyncIo(IoRequest::MakeRead(offset, out, size, qp)).ok;
  }
  bool Trim(uint64_t offset, uint64_t size, uint32_t qp = 0) {
    return SyncIo(IoRequest::MakeTrim(offset, size, qp)).ok;
  }

  // One blocking request, start to finish.
  virtual IoResult SyncIo(const IoRequest& request) { return Wait(Submit(request)); }

  virtual uint64_t size_bytes() const = 0;
  virtual uint64_t page_size() const = 0;

  // FDP discovery (paper §5.3: the allocator auto-discovers the topology).
  virtual FdpCapabilities QueryFdp() const { return FdpCapabilities{}; }

  // Number of distinct placement handles this device can honour (excluding
  // the default). 0 for devices without data placement.
  virtual uint32_t NumPlacementHandles() const { return 0; }

  // Queue-pair topology: how many independent SQ/CQ pairs this device
  // exposes. IoRequest::qp is wrapped modulo this count.
  virtual uint32_t num_queue_pairs() const { return 1; }

  // Per-queue-pair stats snapshot (empty for devices without a queued
  // pipeline). On a quiescent device the per-QP counters sum to the
  // aggregate DeviceStats counters.
  virtual std::vector<QueuePairStats> PerQueuePairStats() const { return {}; }

  // Per-execution-lane stats snapshot (empty for devices without execution
  // lanes, including queued devices running the inline dispatcher path).
  virtual std::vector<LaneStats> PerLaneStats() const { return {}; }

  // Registers a hook invoked after every asynchronously submitted request's
  // completion has been published (i.e. once the token is reapable). The
  // cache tier's completion poller uses it to wake its pump instead of
  // busy-polling tokens. The hook runs on the device's completion thread
  // (dispatcher, lane worker or backend reaper) and must be cheap and
  // non-blocking — in particular it must not Submit() or Wait() on this
  // device. The inline SyncIo fast path never fires it (there is no parked
  // token to pump). Thread-safe; pass an empty function to clear. Last
  // setter wins.
  void SetCompletionHook(std::function<void()> hook) {
    auto next = hook ? std::make_shared<const std::function<void()>>(std::move(hook))
                     : std::shared_ptr<const std::function<void()>>();
    std::atomic_store(&completion_hook_, std::move(next));
  }

  // Lock-free counter snapshot plus mutex-guarded latency histograms; safe to
  // call concurrently with in-flight I/O.
  DeviceStats stats() const {
    DeviceStats out;
    out.reads = reads_.load(std::memory_order_relaxed);
    out.writes = writes_.load(std::memory_order_relaxed);
    out.read_bytes = read_bytes_.load(std::memory_order_relaxed);
    out.write_bytes = write_bytes_.load(std::memory_order_relaxed);
    out.trims = trims_.load(std::memory_order_relaxed);
    out.io_errors = io_errors_.load(std::memory_order_relaxed);
    fdp::MutexLock lock(&latency_mu_);
    out.read_latency_ns = read_latency_ns_;
    out.write_latency_ns = write_latency_ns_;
    return out;
  }

  // Safe to call while I/O is in flight: completions racing the reset land in
  // whichever epoch their counter store hits, never in torn state. Queued
  // implementations also clear their per-queue-pair stats.
  virtual void ResetStats() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    read_bytes_.store(0, std::memory_order_relaxed);
    write_bytes_.store(0, std::memory_order_relaxed);
    trims_.store(0, std::memory_order_relaxed);
    io_errors_.store(0, std::memory_order_relaxed);
    fdp::MutexLock lock(&latency_mu_);
    read_latency_ns_.Clear();
    write_latency_ns_.Clear();
  }

 protected:
  // Fires the registered completion hook, if any. Implementations call this
  // after publishing an async completion (never from the SyncIo fast path).
  void FireCompletionHook() const {
    const auto hook = std::atomic_load(&completion_hook_);
    if (hook != nullptr) {
      (*hook)();
    }
  }

  // Folds one executed request into the stats. Called by implementations as
  // each completion retires (from the queue worker, possibly concurrent with
  // snapshot readers).
  void RecordCompletion(const IoRequest& request, const IoResult& result) {
    if (!result.ok) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    switch (request.op) {
      case IoOp::kRead:
        reads_.fetch_add(1, std::memory_order_relaxed);
        read_bytes_.fetch_add(request.size, std::memory_order_relaxed);
        {
          fdp::MutexLock lock(&latency_mu_);
          read_latency_ns_.Record(result.latency_ns);
        }
        break;
      case IoOp::kWrite:
        writes_.fetch_add(1, std::memory_order_relaxed);
        write_bytes_.fetch_add(request.size, std::memory_order_relaxed);
        {
          fdp::MutexLock lock(&latency_mu_);
          write_latency_ns_.Record(result.latency_ns);
        }
        break;
      case IoOp::kTrim:
        trims_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

 private:
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> trims_{0};
  std::atomic<uint64_t> io_errors_{0};
  // Aggregate latency histograms. Nests inside the owning QP lock: queued
  // completions record per-QP and aggregate stats as one unit under qp.mu
  // (the PR 9 reset-race fix), so this ranks after kQueuePair.
  mutable fdp::Mutex latency_mu_{lock_rank::Make(lock_rank::kDeviceStats), "device_stats"};
  Histogram read_latency_ns_ GUARDED_BY(latency_mu_);
  Histogram write_latency_ns_ GUARDED_BY(latency_mu_);
  std::shared_ptr<const std::function<void()>> completion_hook_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_DEVICE_H_
