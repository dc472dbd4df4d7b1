// ExecLaneEngine: a pool of execution lanes that runs requests the
// QueuedDevice conflict tracker has already cleared.
//
// Each lane is one worker thread with its own FIFO queue. A task is routed
// die-affinely by its first byte — lane = (offset / stripe_bytes) %
// num_lanes — so requests that would land on independent NAND dies execute
// concurrently, the way an SSD controller fans transactions out to per-die
// back-end servers (MQSim's multi-queue front-end / back-end split, in host
// software).
//
// The pool enforces no ordering of its own. QueuedDevice's per-QP tracker
// (src/navy/queued_device.h) parks every request that overlaps one still in
// flight on its queue pair and hands the pool only cleared ones, so any two
// queued tasks may run in any order. Two executors share this one pool:
//   - QueuedDevice's lanes (IoQueueConfig::exec_lanes > 0), each lane queue
//     bounded at sq_depth so dispatcher pushes feel backpressure;
//   - UringFileDevice's thread-pool fallback: unbounded queues, striped by
//     the backing page size.
//
// A retirement promotes parked work from a completion context, which can be
// the worker of the very lane the promoted task routes to. Promoted pushes
// therefore never wait for lane space; only a dispatcher push into a full
// bounded lane blocks.
//
// Per-lane accounting (LaneStats): dispatches, promoted tasks
// (conflict_waits), a lane-queue depth histogram, and the summed
// device-model latency (busy_ns), all under the lane's own lock.
#ifndef SRC_NAVY_EXEC_LANES_H_
#define SRC_NAVY_EXEC_LANES_H_

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/navy/device.h"

namespace fdpcache {

// One arbitrated request in flight through an executor. `qp` is the
// normalized queue-pair index the request was popped from (what the
// completion callback needs to file the result into the right CQ).
struct LaneTask {
  CompletionToken token = kInvalidToken;
  IoRequest request;
  uint32_t qp = 0;
  // Wall-clock instant an async backend (BeginExecute path) took ownership
  // of a traced request; CompleteLaneTask turns it into the device_execute
  // span. 0 on the lane/inline paths, where Execute() records the span
  // itself on one thread.
  uint64_t issue_ns = 0;
};

class ExecLaneEngine {
 public:
  // `execute` runs one blocking backend op (lane workers call it
  // concurrently); `complete` publishes its result from the same worker.
  // `lane_queue_depth` bounds each lane's queue for dispatcher pushes; 0
  // leaves the queues unbounded.
  ExecLaneEngine(uint32_t num_lanes, uint64_t lane_stripe_bytes, uint32_t lane_queue_depth,
                 std::function<IoResult(const IoRequest&)> execute,
                 std::function<void(const LaneTask&, const IoResult&)> complete);
  ~ExecLaneEngine();

  ExecLaneEngine(const ExecLaneEngine&) = delete;
  ExecLaneEngine& operator=(const ExecLaneEngine&) = delete;

  // Queues a cleared task on its lane. `promoted` marks a task the tracker
  // parked and a retirement released: it counts as a conflict wait and never
  // waits for lane space. Any other push blocks while its bounded lane is
  // full. Thread-safe.
  void Dispatch(LaneTask task, bool promoted);

  // Runs everything already queued, then joins the workers. Idempotent;
  // nothing may Dispatch once it has begun.
  void Stop();

  std::vector<LaneStats> Stats() const;
  void ResetStats();

 private:
  // The rank minor is the lane index, which names the lane in lock-rank
  // diagnostics; no code path holds two lane locks at once.
  struct Lane {
    explicit Lane(uint32_t index) : mu(lock_rank::Make(lock_rank::kLane, index), "lane") {}

    mutable fdp::Mutex mu;
    fdp::CondVar work_cv;   // Task queued / stop requested.
    fdp::CondVar space_cv;  // Queue space freed.
    std::deque<LaneTask> queue GUARDED_BY(mu);
    LaneStats stats GUARDED_BY(mu);
    bool stop GUARDED_BY(mu) = false;
    std::thread worker;
  };

  // Die-affine route: the lane that owns the stripe containing `offset`.
  // Requests spanning multiple stripes route by their first byte.
  uint32_t RouteLane(uint64_t offset) const {
    return static_cast<uint32_t>((offset / stripe_bytes_) % lanes_.size());
  }
  void WorkerLoop(Lane& lane);

  const uint64_t stripe_bytes_;
  const uint32_t lane_queue_depth_;
  const std::function<IoResult(const IoRequest&)> execute_;
  const std::function<void(const LaneTask&, const IoResult&)> complete_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_EXEC_LANES_H_
