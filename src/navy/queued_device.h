// QueuedDevice: the multi-queue-pair submission/completion pipeline both
// concrete devices build on.
//
// Models an NVMe controller's queue-pair structure in host software: the
// device owns N independent IoQueuePairs (each its own mutex-guarded SQ ring
// and completion table), Submit() routes a request to the queue pair named
// by IoRequest::qp (wrapped modulo N) and applies backpressure when that
// ring is full or the queue pair's congestion window (kQpWindowBytes) is
// spent, and ONE dispatcher thread arbitrates across the SQs round-robin,
// one request per non-empty queue pair per turn (NVMe RR). A popped request
// goes to one of three executors:
//
//   inline (exec_lanes == 0, no async backend): the dispatcher executes it
//   against the blocking backend (ExecuteWrite/Read/Trim, supplied by the
//   derived device). Strict per-QP FIFO, no threads, no tracking; the
//   single-executor pipeline of PR 3, bit-compatible with it.
//
//   the lane pool (exec_lanes > 0): an ExecLaneEngine
//   (src/navy/exec_lanes.h) of N worker threads with die-affine routing by
//   offset stripe, so independent byte ranges execute concurrently.
//
//   the backend's own BeginExecute (SupportsAsyncExecute(), exec_lanes ==
//   0): a real kernel queue such as io_uring starts the request and
//   completes it later from its own thread.
//
// The last two share ONE conflict tracker (Track/Retire): a per-QP list of
// requests in flight plus a FIFO of parked ones. A request that overlaps a
// same-QP request still in flight (or parked ahead of it) parks until that
// one retires, so overlapping same-QP requests retire in submission order
// while disjoint requests run in parallel.
//
// Completions land in the owning QP's table keyed by token; tokens encode
// their queue pair, so Poll()/Wait() work from any thread on any token
// (cross-QP reaping is fine). Each completion is recorded once, in its
// queue pair's QueuePairStats under that queue pair's lock; Device::stats()
// sums them, and ResetStats() clears one queue pair at a time.
//
// Ordering: overlapping requests on the SAME queue pair retire in submission
// order (full per-QP FIFO on the inline path); ordering across queue pairs
// is up to the arbiter. Concurrent submitters therefore still get a device
// that behaves like one NVMe SSD — which is what lets every ShardedCache
// shard share ONE simulated FDP device on its own queue pair and genuinely
// interleave placement streams on the same NAND geometry, with the backend
// parallelism of the NAND dies those streams land on.
#ifndef SRC_NAVY_QUEUED_DEVICE_H_
#define SRC_NAVY_QUEUED_DEVICE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/navy/device.h"
#include "src/navy/exec_lanes.h"

namespace fdpcache {

struct IoQueueConfig {
  // Per-queue-pair submission ring capacity; Submit() blocks (backpressure)
  // when the target QP has this many requests queued and not yet picked up
  // by the dispatcher.
  uint32_t sq_depth = 256;
  // Independent SQ/CQ pairs. 1 reproduces the single-queue PR 2 pipeline.
  uint32_t num_queue_pairs = 1;
  // Parallel execution lanes behind the arbiter (see ExecLaneEngine,
  // src/navy/exec_lanes.h). 0 = the dispatcher executes every popped request
  // inline (the PR 3 single-executor pipeline, bit-compatible); N > 0 routes
  // each popped request the conflict tracker clears to one of N lane worker
  // threads by offset stripe. Takes precedence over a backend's
  // BeginExecute.
  uint32_t exec_lanes = 0;
  // Die-affine stripe size for lane routing: lane = (offset /
  // lane_stripe_bytes) % exec_lanes. Pick the device's natural write unit
  // (region/RU size) so consecutive regions fan out across lanes the way
  // they fan out across dies. 0 falls back to the 256 KiB default.
  uint64_t lane_stripe_bytes = 256 * 1024;
};

// Congestion window: cap on the bytes a queue pair may have outstanding
// (queued or executing, counted from admission to completion). Submit()
// holds excess requests at the door instead of letting a deep SQ convoy the
// backend — the fix for the measured QD-64 throughput collapse, where 64
// queued 256 KiB writes per submitter serialized into one giant backlog and
// p99 exploded without any throughput gain over QD 16. A request larger
// than the whole window is still admitted once the QP is empty (no
// starvation).
constexpr uint64_t kQpWindowBytes = 4 * 1024 * 1024;

class QueuedDevice : public Device {
 public:
  explicit QueuedDevice(const IoQueueConfig& queue_config = IoQueueConfig{});
  ~QueuedDevice() override;

  QueuedDevice(const QueuedDevice&) = delete;
  QueuedDevice& operator=(const QueuedDevice&) = delete;

  CompletionToken Submit(const IoRequest& request) override;
  std::optional<IoResult> Poll(CompletionToken token) override;
  // Blocking reap. A token that is neither in flight nor parked (never
  // submitted, already reaped, kInvalidToken, or naming a queue pair this
  // device does not have) returns ok=false immediately instead of blocking
  // forever. Any thread may wait on any token regardless of which QP it was
  // submitted to.
  IoResult Wait(CompletionToken token) override;
  // Blocks until every submitted request on every queue pair has executed.
  void Drain() override;
  uint32_t InFlight() const override;

  // Synchronous I/O fast path: when the whole pipeline is idle the calling
  // thread executes the request inline — no tokens, no dispatcher handoff —
  // which keeps single-threaded callers of the Write/Read/Trim shim at
  // direct-call cost. Requests submitted by other threads while an inline
  // execution is in progress may run concurrently against the backend (the
  // backends are thread-safe); same-caller ordering is unaffected.
  IoResult SyncIo(const IoRequest& request) override;

  uint32_t num_queue_pairs() const override {
    return static_cast<uint32_t>(qps_.size());
  }
  std::vector<QueuePairStats> PerQueuePairStats() const override;
  // Per-lane dispatch/busy/queue-depth stats; empty unless exec_lanes > 0.
  std::vector<LaneStats> PerLaneStats() const override;
  void ResetStats() override;

  const IoQueueConfig& queue_config() const { return queue_config_; }

 protected:
  // Blocking backend ops, run by whichever executor serves the request (the
  // dispatcher, a lane worker, a subclass's own pool) or inline by SyncIo,
  // possibly concurrently. Implementations validate alignment/bounds
  // themselves and report failures through IoResult::ok.
  virtual IoResult ExecuteWrite(uint64_t offset, const void* data, uint64_t size,
                                PlacementHandle handle) = 0;
  virtual IoResult ExecuteRead(uint64_t offset, void* out, uint64_t size) = 0;
  virtual IoResult ExecuteTrim(uint64_t offset, uint64_t size) = 0;

  // Runs `request` on the blocking ops above without recording a trace
  // span; for a subclass's own worker pool, whose tasks carry issue_ns.
  IoResult ExecuteBlocking(const IoRequest& request);

  // --- Asynchronous backend execution -----------------------------------------
  // A subclass whose backend is itself asynchronous (a real kernel queue:
  // io_uring SQEs reaped by a completion thread, an I/O thread pool) opts in
  // by overriding SupportsAsyncExecute() to return true and BeginExecute()
  // to *start* a popped request without blocking. The contract:
  //
  //   - BeginExecute(task) is called once per popped request, from the
  //     dispatcher thread or from a completion context that just unblocked a
  //     parked request — implementations must tolerate concurrent calls and
  //     must not block waiting for another request to complete.
  //   - Returning true means the backend took ownership and MUST call
  //     CompleteLaneTask(task, result) exactly once later, from any thread
  //     (its reaper, a pool worker). Returning false declines the request:
  //     the pipeline executes it synchronously via ExecuteWrite/Read/Trim on
  //     the calling thread (escape hatch for op types with no async path).
  //   - The per-QP overlap-ordering guarantee is enforced HERE, not by the
  //     subclass: the conflict tracker hands BeginExecute only requests
  //     that overlap nothing still in flight on their queue pair. Issued
  //     requests may complete in any order.
  //
  // exec_lanes > 0 takes precedence: the lane pool runs the blocking
  // Execute* ops and BeginExecute is never called. The SyncIo idle fast path
  // likewise stays synchronous.
  virtual bool SupportsAsyncExecute() const { return false; }
  virtual bool BeginExecute(const LaneTask& task) {
    (void)task;
    return false;
  }

  // Publishes one executed request: per-QP stats, CQ insert,
  // waiter wakeups, window credit, retirement from the conflict tracker
  // (promoting parked requests), and the global active_ decrement. Called
  // from lane workers, the dispatcher (inline path), and async backends'
  // completion contexts — the one completion routine all executors share.
  void CompleteLaneTask(const LaneTask& task, const IoResult& result);

  // Stops the dispatcher after it finishes everything already submitted,
  // waits out every request still parked or executing, then stops the lane
  // pool. Every derived destructor MUST call this first (before tearing down
  // its own reaper/pool), so no pipeline thread can call into a
  // partially-destroyed derived class. Idempotent.
  void StopQueue();

 private:
  struct Pending {
    CompletionToken token = kInvalidToken;
    IoRequest request;
    // Submit() wall-clock timestamp when the request is traced (0 otherwise);
    // PopNext turns it into the request's sq_wait span.
    uint64_t submit_ns = 0;
  };

  // One NVMe-style queue pair: SQ ring + completion table + per-QP stats,
  // all guarded by the QP's own mutex so submitters on different queue pairs
  // never contend. No code holds two QP locks at once; the rank minor is the
  // QP index, for diagnostics.
  struct IoQueuePair {
    explicit IoQueuePair(uint32_t index)
        : mu(lock_rank::Make(lock_rank::kQueuePair, index), "qp") {}

    mutable fdp::Mutex mu;
    fdp::CondVar space_cv;     // Ring space freed.
    fdp::CondVar complete_cv;  // A completion landed.
    std::deque<Pending> sq GUARDED_BY(mu);
    std::unordered_map<CompletionToken, IoResult> cq GUARDED_BY(mu);
    // Tokens submitted and not yet completed (queued or executing); lets
    // Wait() distinguish "still in flight" from "never existed / reaped".
    std::unordered_set<CompletionToken> outstanding GUARDED_BY(mu);
    // Bytes admitted and not yet completed — the congestion-window meter
    // (see kQpWindowBytes). Charged in Submit, credited in
    // CompleteLaneTask; the SyncIo fast path bypasses it.
    uint64_t outstanding_bytes GUARDED_BY(mu) = 0;
    uint64_t next_seq GUARDED_BY(mu) = 1;  // Low bits of the next token.
    QueuePairStats stats GUARDED_BY(mu);
  };

  // Tokens encode their queue pair in the high bits so Poll()/Wait() route
  // without a global table: token = (qp << kQpShift) | seq, seq >= 1.
  static constexpr uint32_t kQpShift = 48;
  static uint32_t QpOfToken(CompletionToken token) {
    return static_cast<uint32_t>(token >> kQpShift);
  }

  // Per-QP conflict-tracker state: requests issued to an executor and not
  // yet retired, plus the FIFO of requests parked behind a same-QP overlap.
  struct QpTracker {
    std::vector<LaneTask> inflight;
    std::deque<LaneTask> parked;
    uint64_t defers = 0;  // Total requests that had to park (monotonic).
  };

  // Arbitration step: pops the next request across all SQs into `*out`,
  // round-robin from the queue pair after the last one served. Returns false
  // only when every ring is empty.
  bool PopNext(Pending* out, uint32_t* out_qp);
  // Admission predicate for Submit: ring space AND congestion-window
  // headroom for this request.
  bool AdmissibleLocked(const IoQueuePair& qp, const IoRequest& request) const REQUIRES(qp.mu);
  // The one stats record of a completion (see QueuePairStats).
  void RecordQpCompletion(IoQueuePair& qp, const IoRequest& request, const IoResult& result)
      REQUIRES(qp.mu);
  // ExecuteBlocking plus the request's device_execute span.
  IoResult Execute(const IoRequest& request);
  // True when the lane pool or the backend's BeginExecute runs popped
  // requests, i.e. they pass through the conflict tracker.
  bool Tracked() const { return lanes_ != nullptr || SupportsAsyncExecute(); }
  // The one ordering rule: same-QP requests whose byte ranges overlap retire
  // in submission order unless both are reads (a trim counts as a write).
  static bool Overlaps(const IoRequest& a, const IoRequest& b);
  // True when `request` overlaps a request in flight on its queue pair or
  // one parked in [parked.begin(), parked_end).
  static bool MustPark(const QpTracker& tracker, const IoRequest& request,
                       std::deque<LaneTask>::const_iterator parked_end);
  // Dispatcher-side admission: registers the popped task as in flight and
  // issues it, or parks it behind a conflicting same-QP request; Retire
  // re-admits parked tasks as their blockers complete.
  void Track(LaneTask task);
  // Hands a cleared task to its executor: the lane pool, else BeginExecute
  // with the synchronous fallback for declined requests. `promoted` marks a
  // task released by a retirement, which must never wait for lane space.
  void Issue(const LaneTask& task, bool promoted);
  // Removes a retired request from the tracker and issues every parked
  // request the retirement unblocked (FIFO, skipping none that are still
  // conflicted).
  void Retire(const LaneTask& task);
  void DispatcherLoop();

  const IoQueueConfig queue_config_;
  std::vector<std::unique_ptr<IoQueuePair>> qps_;

  // Global pipeline accounting for the dispatcher wakeup, Drain(),
  // InFlight(), and the SyncIo idle check. The submit fast path stays off
  // mu_: queued_total_ is atomic and Submit only takes mu_ (to notify) when
  // dispatcher_idle_ says the dispatcher may be asleep — both seq_cst, so a
  // dispatcher that observed an empty pipeline before blocking is always
  // seen as idle by the submitter that made it non-empty. mu_ and qp.mu are
  // never held together, but mu_ ranks after kQueuePair so a future nesting
  // could only go qp -> pipeline.
  mutable fdp::Mutex mu_{lock_rank::Make(lock_rank::kDevicePipeline), "device_pipeline"};
  fdp::CondVar work_cv_;  // Work submitted / stop requested.
  fdp::CondVar idle_cv_;  // An execution finished.
  std::atomic<uint32_t> queued_total_{0};
  std::atomic<bool> dispatcher_idle_{false};  // Set under mu_ around the wait.
  // Requests popped and not yet completed (executing or parked), plus
  // inline SyncIo executions.
  uint32_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;

  // Completions published but not yet announced through the completion
  // hook; flushed by whichever completion reaches the batch size or leaves
  // the pipeline idle (see kCompletionBatch in queued_device.cc).
  std::atomic<uint32_t> unhooked_completions_{0};

  // Arbitration cursor: the queue pair PopNext tries first. Touched only by
  // the dispatcher thread.
  uint32_t arb_qp_ = 0;

  // The conflict tracker, one QpTracker per queue pair (empty on the inline
  // path). Never held across an Issue/Execute call.
  mutable fdp::Mutex tracker_mu_{lock_rank::Make(lock_rank::kDeviceTracker), "device_tracker"};
  std::vector<QpTracker> trackers_ GUARDED_BY(tracker_mu_);

  // The lane pool (null when exec_lanes == 0). Stopped by StopQueue() once
  // nothing is active, so lane workers never call into a
  // partially-destroyed derived class.
  std::unique_ptr<ExecLaneEngine> lanes_;

  std::thread dispatcher_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_QUEUED_DEVICE_H_
