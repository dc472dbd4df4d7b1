#include "src/navy/queued_device.h"

#include "src/obs/trace.h"

namespace fdpcache {
namespace {

// Completion-hook coalescing: the owner's completion hook (the cache-tier
// poller wakeup) fires once per this many completions instead of per
// completion, cutting cross-layer wakeup traffic at high cache-QD. A partial
// batch is flushed when the pipeline goes idle — BEFORE the last active slot
// is released, so the Drain() teardown contract ("after Drain(), no hook
// invocation is in flight") still holds. Per-token Wait()/Poll() waiters are
// woken per completion regardless; only the hook is batched.
constexpr uint32_t kCompletionBatch = 16;

IoQueueConfig Normalize(IoQueueConfig config) {
  if (config.sq_depth == 0) {
    config.sq_depth = 1;
  }
  if (config.num_queue_pairs == 0) {
    config.num_queue_pairs = 1;
  }
  if (config.num_queue_pairs > kMaxQueuePairs) {
    config.num_queue_pairs = kMaxQueuePairs;
  }
  if (config.lane_stripe_bytes == 0) {
    config.lane_stripe_bytes = 256 * 1024;
  }
  if (config.exec_lanes > kMaxExecLanes) {
    config.exec_lanes = kMaxExecLanes;
  }
  return config;
}

}  // namespace

QueuedDevice::QueuedDevice(const IoQueueConfig& queue_config)
    : queue_config_(Normalize(queue_config)) {
  qps_.reserve(queue_config_.num_queue_pairs);
  for (uint32_t i = 0; i < queue_config_.num_queue_pairs; ++i) {
    qps_.push_back(std::make_unique<IoQueuePair>(i));
  }
  trackers_.resize(queue_config_.num_queue_pairs);
  if (queue_config_.exec_lanes > 0) {
    lanes_ = std::make_unique<ExecLaneEngine>(
        queue_config_.exec_lanes, queue_config_.lane_stripe_bytes,
        /*lane_queue_depth=*/queue_config_.sq_depth,
        [this](const IoRequest& request) { return Execute(request); },
        [this](const LaneTask& task, const IoResult& result) { CompleteLaneTask(task, result); });
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

QueuedDevice::~QueuedDevice() {
  // Normally a no-op: derived destructors stop the queue before their
  // members (and vtable) go away. This is the backstop for a derived class
  // that forgot.
  StopQueue();
}

void QueuedDevice::StopQueue() {
  {
    fdp::MutexLock lock(&mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
    work_cv_.NotifyOne();
  }
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  }
  // The dispatcher has drained every SQ, but popped requests may still be
  // executing on a lane or the subclass's backend, or parked in the tracker;
  // each holds an active_ slot until its CompleteLaneTask runs. Wait them
  // all out first: a retirement can promote parked work into ANY lane, so
  // every lane worker must outlive the last retirement, and the subclass's
  // reaper must still be alive to deliver its completions.
  {
    fdp::MutexLock lock(&mu_);
    while (active_ != 0) {
      idle_cv_.Wait(&mu_);
    }
  }
  if (lanes_ != nullptr) {
    lanes_->Stop();
  }
}

CompletionToken QueuedDevice::Submit(const IoRequest& request) {
  const uint32_t qp_index = request.qp % static_cast<uint32_t>(qps_.size());
  IoQueuePair& qp = *qps_[qp_index];
  CompletionToken token;
  // Resolve the owning trace before taking any lock: the request may carry
  // its id explicitly (async cache ops crossing threads) or inherit the
  // submitting thread's current trace. sq_wait starts NOW — it deliberately
  // includes any admission (window/ring) stall below.
  uint64_t trace_id = request.trace_id;
  uint64_t submit_ns = 0;
  if (obs::TracingEnabled()) {
    if (trace_id == 0) {
      trace_id = obs::CurrentTraceId();
    }
    if (trace_id != 0) {
      submit_ns = obs::NowNs();
    }
  }
  {
    fdp::MutexLock lock(&qp.mu);
    if (!AdmissibleLocked(qp, request)) {
      ++qp.stats.admission_waits;
      do {
        qp.space_cv.Wait(&qp.mu);
      } while (!AdmissibleLocked(qp, request));
    }
    qp.outstanding_bytes += request.size;
    token = (static_cast<CompletionToken>(qp_index) << kQpShift) | qp.next_seq++;
    Pending pending;
    pending.token = token;
    pending.request = request;
    pending.request.qp = qp_index;
    pending.request.trace_id = trace_id;
    pending.submit_ns = submit_ns;
    qp.sq.push_back(std::move(pending));
    qp.outstanding.insert(token);
    qp.stats.queue_depth.Record(qp.sq.size());
  }
  queued_total_.fetch_add(1);
  // Wake the dispatcher only when it may actually be asleep, keeping the
  // device-global mutex off the cross-QP submit fast path. seq_cst ordering
  // makes the race safe: if the dispatcher's wait predicate read
  // queued_total_ == 0, that read preceded our increment, so our
  // dispatcher_idle_ load is after its idle store and must see true.
  if (dispatcher_idle_.load()) {
    fdp::MutexLock lock(&mu_);
    work_cv_.NotifyOne();
  }
  return token;
}

bool QueuedDevice::AdmissibleLocked(const IoQueuePair& qp, const IoRequest& request) const {
  // Admission control: ring space AND the congestion window. The window
  // compares against the REQUEST's size so small requests can slip past a
  // nearly-full window while a jumbo one waits; an empty QP always admits
  // (a single request larger than the window must not deadlock).
  if (qp.sq.size() >= queue_config_.sq_depth) {
    return false;
  }
  return qp.outstanding_bytes == 0 || qp.outstanding_bytes + request.size <= kQpWindowBytes;
}

std::optional<IoResult> QueuedDevice::Poll(CompletionToken token) {
  const uint32_t qp_index = QpOfToken(token);
  if (qp_index >= qps_.size()) {
    return std::nullopt;
  }
  IoQueuePair& qp = *qps_[qp_index];
  fdp::MutexLock lock(&qp.mu);
  const auto it = qp.cq.find(token);
  if (it == qp.cq.end()) {
    return std::nullopt;
  }
  const IoResult result = it->second;
  qp.cq.erase(it);
  return result;
}

IoResult QueuedDevice::Wait(CompletionToken token) {
  const uint32_t qp_index = QpOfToken(token);
  // Fail fast on tokens that can never complete (kInvalidToken, a queue pair
  // this device does not have) instead of blocking forever on a caller bug.
  if (token == kInvalidToken || qp_index >= qps_.size()) {
    return IoResult{};
  }
  IoQueuePair& qp = *qps_[qp_index];
  fdp::MutexLock lock(&qp.mu);
  // Same fail-fast for never-submitted / already-reaped tokens.
  while (qp.cq.find(token) == qp.cq.end() &&
         qp.outstanding.find(token) != qp.outstanding.end()) {
    qp.complete_cv.Wait(&qp.mu);
  }
  const auto it = qp.cq.find(token);
  if (it == qp.cq.end()) {
    return IoResult{};
  }
  const IoResult result = it->second;
  qp.cq.erase(it);
  return result;
}

void QueuedDevice::Drain() {
  fdp::MutexLock lock(&mu_);
  while (queued_total_.load() != 0 || active_ != 0) {
    idle_cv_.Wait(&mu_);
  }
}

uint32_t QueuedDevice::InFlight() const {
  fdp::MutexLock lock(&mu_);
  return queued_total_.load() + active_;
}

IoResult QueuedDevice::SyncIo(const IoRequest& request) {
  // Stamp the caller's current trace onto the request (one level of
  // recursion, only when a trace is actually active) so the inline fast
  // path's Execute() records its device_execute span.
  if (obs::TracingEnabled() && request.trace_id == 0) {
    const uint64_t id = obs::CurrentTraceId();
    if (id != 0) {
      IoRequest traced = request;
      traced.trace_id = id;
      return SyncIo(traced);
    }
  }
  {
    fdp::MutexLock lock(&mu_);
    if (queued_total_.load() == 0 && active_ == 0) {
      // Idle pipeline: execute inline on the calling thread. `active_` keeps
      // Drain()/InFlight() honest while the lock is dropped for the
      // (possibly slow) backend call.
      ++active_;
      lock.Unlock();
      const IoResult result = Execute(request);
      {
        IoQueuePair& qp = *qps_[request.qp % static_cast<uint32_t>(qps_.size())];
        fdp::MutexLock qp_lock(&qp.mu);
        RecordQpCompletion(qp, request, result);
      }
      lock.Lock();
      --active_;
      idle_cv_.NotifyAll();
      return result;
    }
  }
  return Wait(Submit(request));
}

IoResult QueuedDevice::ExecuteBlocking(const IoRequest& request) {
  switch (request.op) {
    case IoOp::kWrite:
      return ExecuteWrite(request.offset, request.data, request.size, request.handle);
    case IoOp::kRead:
      return ExecuteRead(request.offset, request.out, request.size);
    case IoOp::kTrim:
      return ExecuteTrim(request.offset, request.size);
  }
  return IoResult{};
}

IoResult QueuedDevice::Execute(const IoRequest& request) {
  const uint64_t trace_start =
      (request.trace_id != 0 && obs::TracingEnabled()) ? obs::NowNs() : 0;
  const IoResult result = ExecuteBlocking(request);
  if (trace_start != 0) {
    obs::RecordSpan(request.trace_id, obs::TraceStage::kDeviceExecute, trace_start,
                    obs::NowNs(), static_cast<uint8_t>(request.op));
  }
  return result;
}

void QueuedDevice::RecordQpCompletion(IoQueuePair& qp, const IoRequest& request,
                                      const IoResult& result) {
  QueuePairStats& stats = qp.stats;
  if (!result.ok) {
    ++stats.io_errors;
    return;
  }
  switch (request.op) {
    case IoOp::kRead:
      ++stats.reads;
      stats.read_bytes += request.size;
      stats.read_latency_ns.Record(result.latency_ns);
      break;
    case IoOp::kWrite:
      ++stats.writes;
      stats.write_bytes += request.size;
      stats.write_latency_ns.Record(result.latency_ns);
      break;
    case IoOp::kTrim:
      ++stats.trims;
      break;
  }
}

bool QueuedDevice::PopNext(Pending* out, uint32_t* out_qp) {
  // One request per non-empty queue pair per turn (NVMe round-robin): start
  // at the cursor, skip empty rings, and leave the cursor just past the
  // queue pair served.
  const uint32_t n = static_cast<uint32_t>(qps_.size());
  for (uint32_t scanned = 0; scanned < n; ++scanned) {
    const uint32_t index = arb_qp_;
    arb_qp_ = (arb_qp_ + 1) % n;
    IoQueuePair& qp = *qps_[index];
    fdp::MutexLock lock(&qp.mu);
    if (qp.sq.empty()) {
      continue;
    }
    *out = std::move(qp.sq.front());
    qp.sq.pop_front();
    *out_qp = index;
    ++qp.stats.dispatched;
    if (out->submit_ns != 0 && out->request.trace_id != 0) {
      obs::RecordSpan(out->request.trace_id, obs::TraceStage::kSqWait, out->submit_ns,
                      obs::NowNs(), static_cast<uint8_t>(out->request.op));
    }
    // NotifyAll: waiters block on heterogeneous predicates (ring space vs
    // window headroom for their own request size); waking just one could
    // pick a still-blocked waiter and strand an admissible one.
    qp.space_cv.NotifyAll();
    return true;
  }
  return false;
}

void QueuedDevice::DispatcherLoop() {
  for (;;) {
    {
      fdp::MutexLock lock(&mu_);
      dispatcher_idle_.store(true);
      while (!stop_ && queued_total_.load() == 0) {
        work_cv_.Wait(&mu_);
      }
      dispatcher_idle_.store(false);
      if (queued_total_.load() == 0) {
        // stop_ is set and everything submitted has been executed.
        return;
      }
      queued_total_.fetch_sub(1);
      ++active_;
    }
    Pending pending;
    uint32_t qp_index = 0;
    // queued_total_ was nonzero and this thread is the only popper, so some
    // ring holds a request; PopNext scans them all.
    if (PopNext(&pending, &qp_index)) {
      LaneTask task;
      task.token = pending.token;
      task.request = pending.request;
      task.qp = qp_index;
      if (Tracked()) {
        // Lane pool or async backend: the tracker issues the request (or
        // parks it behind an overlap) and the executor's completion releases
        // the active_ slot this iteration took. Only a push into a full lane
        // blocks the dispatcher — backpressure meant to reach submitters.
        Track(std::move(task));
        continue;
      }
      // Inline path: execute on this thread and publish through the same
      // completion routine every executor uses.
      CompleteLaneTask(task, Execute(task.request));
      continue;
    }
    {
      fdp::MutexLock lock(&mu_);
      --active_;
      idle_cv_.NotifyAll();
    }
  }
}

void QueuedDevice::CompleteLaneTask(const LaneTask& task, const IoResult& result) {
  // Async-backend (BeginExecute) completions: no single thread ran Execute,
  // so the device_execute span is recorded here from the issue timestamp.
  if (task.issue_ns != 0 && task.request.trace_id != 0 && obs::TracingEnabled()) {
    obs::RecordSpan(task.request.trace_id, obs::TraceStage::kDeviceExecute,
                    task.issue_ns, obs::NowNs(),
                    static_cast<uint8_t>(task.request.op));
  }
  {
    IoQueuePair& qp = *qps_[task.qp];
    fdp::MutexLock lock(&qp.mu);
    RecordQpCompletion(qp, task.request, result);
    qp.cq[task.token] = result;
    qp.outstanding.erase(task.token);
    // Completion returns window bytes; submitters may be parked on the
    // window even though the ring has space, so wake them here too.
    qp.outstanding_bytes -= task.request.size;
    qp.space_cv.NotifyAll();
    qp.complete_cv.NotifyAll();
  }
  if (Tracked()) {
    // Retire the request from the conflict tracker and launch any parked
    // overlapping requests it was blocking, BEFORE the hook/active_ block:
    // the unblocked I/O should reach its executor as soon as the ordering
    // guarantee allows. Promoted tasks hold their own active_ slots, so
    // Drain() and StopQueue() still wait for them.
    Retire(task);
  }
  // The completion is reapable: wake any cache-tier poller parked on this
  // device's tokens — but batched. The hook fires once per kCompletionBatch
  // completions; a partial batch is flushed by whichever completion is the
  // last active execution with nothing queued (serialized under mu_, so
  // exactly one completion sees active_ == 1 at pipeline idle). Either way
  // the hook fires BEFORE the active_ slot is released, so once Drain()
  // observes an idle pipeline no hook invocation is still in flight — an
  // owner detaches its hook, Drain()s, and can then safely tear down
  // whatever state the hook touches.
  const uint32_t pending_hooks =
      unhooked_completions_.fetch_add(1, std::memory_order_acq_rel) + 1;
  bool flush = pending_hooks >= kCompletionBatch;
  {
    fdp::MutexLock lock(&mu_);
    if (!flush && active_ == 1 && queued_total_.load() == 0) {
      flush = true;  // Pipeline going idle: nothing later would flush.
    }
    if (flush &&
        unhooked_completions_.exchange(0, std::memory_order_acq_rel) > 0) {
      // Drop mu_ for the hook itself (it crosses into the owner's poller
      // lock); the active_ slot this execution holds keeps Drain() parked.
      lock.Unlock();
      FireCompletionHook();
      lock.Lock();
    }
    --active_;
    idle_cv_.NotifyAll();
  }
}

bool QueuedDevice::Overlaps(const IoRequest& a, const IoRequest& b) {
  // Half-open ranges; zero-sized requests overlap nothing.
  const bool overlap = a.offset < b.offset + b.size && b.offset < a.offset + a.size;
  return overlap && !(a.op == IoOp::kRead && b.op == IoOp::kRead);
}

bool QueuedDevice::MustPark(const QpTracker& tracker, const IoRequest& request,
                            std::deque<LaneTask>::const_iterator parked_end) {
  for (const LaneTask& running : tracker.inflight) {
    if (Overlaps(running.request, request)) {
      return true;
    }
  }
  // A request must also not jump ahead of an older parked one it overlaps,
  // or the two would retire out of submission order once that one runs.
  for (auto parked = tracker.parked.begin(); parked != parked_end; ++parked) {
    if (Overlaps(parked->request, request)) {
      return true;
    }
  }
  return false;
}

void QueuedDevice::Track(LaneTask task) {
  {
    fdp::MutexLock lock(&tracker_mu_);
    QpTracker& tracker = trackers_[task.qp];
    if (MustPark(tracker, task.request, tracker.parked.end())) {
      ++tracker.defers;
      tracker.parked.push_back(std::move(task));
      return;
    }
    tracker.inflight.push_back(task);
  }
  Issue(task, /*promoted=*/false);
}

void QueuedDevice::Issue(const LaneTask& task, bool promoted) {
  // tracker_mu_ is NOT held here: a lane push may wait for space,
  // BeginExecute may submit to a kernel queue, and the synchronous fallback
  // runs the full blocking Execute + completion.
  if (lanes_ != nullptr) {
    // The lane worker's Execute() records the device_execute span, so no
    // issue_ns is stamped here.
    lanes_->Dispatch(task, promoted);
    return;
  }
  if (obs::TracingEnabled() && task.request.trace_id != 0) {
    LaneTask timed = task;
    timed.issue_ns = obs::NowNs();
    if (BeginExecute(timed)) {
      return;
    }
    // Declined: Execute() records the span itself; clear issue_ns so
    // CompleteLaneTask does not record it a second time.
    timed.issue_ns = 0;
    CompleteLaneTask(timed, Execute(timed.request));
    return;
  }
  if (!BeginExecute(task)) {
    CompleteLaneTask(task, Execute(task.request));
  }
}

void QueuedDevice::Retire(const LaneTask& task) {
  std::vector<LaneTask> promoted;
  {
    fdp::MutexLock lock(&tracker_mu_);
    QpTracker& tracker = trackers_[task.qp];
    for (auto it = tracker.inflight.begin(); it != tracker.inflight.end(); ++it) {
      if (it->token == task.token) {
        tracker.inflight.erase(it);
        break;
      }
    }
    // Promote parked requests in FIFO order. A candidate launches only if it
    // conflicts with nothing in flight AND nothing still parked ahead of it;
    // promoted entries join inflight immediately so later candidates in this
    // same scan see them.
    for (auto it = tracker.parked.begin(); it != tracker.parked.end();) {
      if (MustPark(tracker, it->request, it)) {
        ++it;
        continue;
      }
      tracker.inflight.push_back(*it);
      promoted.push_back(std::move(*it));
      it = tracker.parked.erase(it);
    }
  }
  for (const LaneTask& next : promoted) {
    Issue(next, /*promoted=*/true);
  }
}

std::vector<QueuePairStats> QueuedDevice::PerQueuePairStats() const {
  std::vector<QueuePairStats> out;
  out.reserve(qps_.size());
  for (const auto& qp : qps_) {
    fdp::MutexLock lock(&qp->mu);
    out.push_back(qp->stats);
  }
  fdp::MutexLock lock(&tracker_mu_);
  for (size_t i = 0; i < out.size() && i < trackers_.size(); ++i) {
    out[i].conflict_defers = trackers_[i].defers;
  }
  return out;
}

std::vector<LaneStats> QueuedDevice::PerLaneStats() const {
  return lanes_ == nullptr ? std::vector<LaneStats>{} : lanes_->Stats();
}

void QueuedDevice::ResetStats() {
  // A completion records its stats once, under its own queue pair's lock, so
  // one queue pair at a time suffices: a racing completion lands wholly
  // before or wholly after its queue pair's clear.
  for (auto& qp : qps_) {
    fdp::MutexLock lock(&qp->mu);
    qp->stats = QueuePairStats{};
  }
  {
    fdp::MutexLock lock(&tracker_mu_);
    for (QpTracker& tracker : trackers_) {
      tracker.defers = 0;
    }
  }
  if (lanes_ != nullptr) {
    lanes_->ResetStats();
  }
}

}  // namespace fdpcache
