// Per-request trace span engine: the observability substrate every layer of
// the stack records into (cache entry, shard lock, RAM probe, flash park, SQ
// wait, device execute, completion delivery, GC ticks).
//
// Design constraints, in priority order:
//
//   1. Near-zero cost when disabled (the default): one relaxed atomic load
//      per call site, no clock reads, no allocation.
//   2. Low overhead when enabled: run-time sampling (1 in N requests gets a
//      trace id; un-sampled requests skip every clock read), and recording
//      appends to a per-thread lock-free ring buffer — no shared mutable
//      state on the hot path beyond the global trace-id counter, which only
//      sampled requests touch.
//
// Propagation model: the layer that begins a request trace (HybridCache or
// ShardedCache entry points — whichever runs first) allocates a trace id and
// installs it in a thread-local slot via TraceScope; everything downstream
// (Navy engines, device Submit/SyncIo) reads the slot instead of threading
// the id through every signature. Crossing threads (queued ops, device
// completions) carries the id explicitly: HybridCache::QueuedOp::trace_id
// and IoRequest::trace_id.
//
// Stage timestamps use the WALL clock (steady_clock), never the virtual
// clock, so enabling tracing cannot perturb any virtual-time metric — the
// basis for the trace-on/off report-equality guarantee.
//
// Export: TraceController::Collect() snapshots every ring (call it at
// quiescence); WriteChromeTrace() emits chrome://tracing / Perfetto JSON;
// BuildTraceBreakdown() computes the per-stage latency attribution table
// (exclusive interval accounting, so attributed + unattributed == end-to-end
// by construction).
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"

namespace fdpcache {
namespace obs {

// Stages a request trace can record. Values index the breakdown table.
enum class TraceStage : uint8_t {
  kRequest = 0,          // Whole request: cache entry -> completion delivered.
  kShardLockWait,        // Waiting on a ShardedCache shard mutex.
  kRamProbe,             // DRAM-tier probe (lock-free or locked).
  kFlashPark,            // Parked on flash: issue -> async callback fired.
  kSqWait,               // Device SQ residency: Submit -> arbiter pop.
  kDeviceExecute,        // Backend execution (inline, lane, or async).
  kCompletionDelivery,   // Last device completion -> request end (synthesized).
  kGcTick,               // Background GC tick doing work (no request id).
};
constexpr size_t kNumTraceStages = 8;

const char* TraceStageName(TraceStage stage);

// Operation tag carried in TraceEvent::op for request-level spans (device
// spans reuse IoOp's numeric values instead).
enum class TraceOp : uint8_t { kNone = 0, kGet = 1, kSet = 2, kRemove = 3 };

struct TraceEvent {
  uint64_t trace_id = 0;  // 0 = no owning request (GC ticks).
  uint64_t start_ns = 0;  // steady_clock, comparable across threads.
  uint64_t end_ns = 0;
  uint32_t tid = 0;       // Recording thread (ring index; stable per thread).
  TraceStage stage = TraceStage::kRequest;
  uint8_t op = 0;
};

// Per-stage row of the latency-attribution table. `raw_ns` sums span
// durations as recorded (spans may nest/overlap); `exclusive_ns` is the
// interval-union attribution — each nanosecond of a request is charged to at
// most one stage (the most specific one), so summing exclusive_ns across
// stages plus `unattributed_ns` reproduces total request time exactly.
struct TraceStageBreakdown {
  uint64_t spans = 0;
  uint64_t raw_ns = 0;
  uint64_t exclusive_ns = 0;
};

struct TraceBreakdown {
  uint64_t requests = 0;        // Traces with a kRequest span.
  uint64_t events = 0;          // All events seen (GC ticks included).
  uint64_t dropped = 0;         // Ring overwrites (filled by the collector).
  uint64_t total_request_ns = 0;
  uint64_t attributed_ns = 0;   // Sum of every stage's exclusive_ns.
  uint64_t unattributed_ns = 0; // total_request_ns - attributed_ns.
  uint64_t request_p50_ns = 0;  // Median end-to-end request latency.
  std::array<TraceStageBreakdown, kNumTraceStages> stages{};
};

namespace internal {
// One relaxed load gates every call site; mirrored from TraceController so
// the hot path never touches the controller's mutex or indirection.
extern std::atomic<bool> g_tracing_enabled;
// The request trace the current thread is working for (0 = none). Installed
// by TraceScope; read by downstream layers (device Submit/SyncIo).
extern thread_local uint64_t tl_current_trace;
}  // namespace internal

inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}
inline uint64_t CurrentTraceId() { return internal::tl_current_trace; }
inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Installs `id` as the thread's current trace for the scope's lifetime
// (restores the previous id on exit). An id of 0 leaves the slot untouched,
// so nesting under an outer layer's scope is free.
class TraceScope {
 public:
  explicit TraceScope(uint64_t id) : prev_(internal::tl_current_trace) {
    if (id != 0) {
      internal::tl_current_trace = id;
    }
  }
  ~TraceScope() { internal::tl_current_trace = prev_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  uint64_t prev_;
};

// Appends one completed span to the calling thread's ring. `trace_id` 0 is
// legal (GC ticks); callers on request paths gate on their id themselves so
// un-sampled requests never reach here.
void RecordSpan(uint64_t trace_id, TraceStage stage, uint64_t start_ns, uint64_t end_ns,
                uint8_t op = 0);

// A begun-but-not-ended request span, for async paths whose end is a
// callback. id == 0 means "not sampled" (or a trace was already active).
struct RequestSpan {
  uint64_t id = 0;
  uint64_t start = 0;
  explicit operator bool() const { return id != 0; }
};

// Starts a request trace if tracing is enabled, this request is sampled, and
// no trace is already active on this thread (the outermost layer wins).
RequestSpan BeginRequestSpanIfIdle();

inline void EndRequestSpan(const RequestSpan& span, TraceOp op) {
  if (span.id != 0) {
    RecordSpan(span.id, TraceStage::kRequest, span.start, NowNs(),
               static_cast<uint8_t>(op));
  }
}

// RAII request span for blocking entry points: begins the trace (if idle),
// installs the TraceScope, and records kRequest at scope exit.
class ScopedRequest {
 public:
  explicit ScopedRequest(TraceOp op)
      : span_(BeginRequestSpanIfIdle()), scope_(span_.id), op_(op) {}
  ~ScopedRequest() { EndRequestSpan(span_, op_); }
  ScopedRequest(const ScopedRequest&) = delete;
  ScopedRequest& operator=(const ScopedRequest&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  RequestSpan span_;
  TraceScope scope_;
  TraceOp op_;
};

// RAII sub-stage span charged to the thread's current trace; free (no clock
// read) when no trace is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(TraceStage stage, uint8_t op = 0)
      : id_(CurrentTraceId()), start_(id_ != 0 ? NowNs() : 0), stage_(stage), op_(op) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      RecordSpan(id_, stage_, start_, NowNs(), op_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
  uint64_t start_;
  TraceStage stage_;
  uint8_t op_;
};

// Process-wide trace control + ring registry. Rings are per-thread
// (single-writer) and registered on first use; they outlive their threads so
// Collect() after a worker exits still sees its events.
class TraceController {
 public:
  static TraceController& Instance();

  // Enables recording, sampling 1 in `sample_every` requests (0 and 1 both
  // mean every request). Also the knob behind `fdpbench --trace-sample`.
  void Enable(uint32_t sample_every = 1);
  void Disable();
  bool enabled() const;
  uint32_t sample_every() const;

  // Snapshot of every ring's contents, sorted by start time. Call at
  // quiescence (tracing disabled or all recording threads idle): a writer
  // lapping its ring mid-collection can tear the oldest slots.
  std::vector<TraceEvent> Collect() const;

  // Events lost to ring overwrites since the last Clear().
  uint64_t DroppedEvents() const;

  // Empties every ring and the dropped counter (call before a measured
  // phase, at quiescence). Rings stay registered.
  void Clear();

 private:
  TraceController() = default;
  friend uint64_t BeginRequestTraceImpl();
  friend void RecordSpanImpl(const TraceEvent& event);

  // Fixed-capacity single-writer ring: the owning thread stores the slot
  // then publishes with a release head store; Collect() acquires the head
  // and reads below it. Overwrite-oldest: head is monotonic, slot = head %
  // capacity, and head - capacity events have been lost.
  struct Ring {
    static constexpr size_t kCapacity = 1 << 15;  // 32k events, 1 MiB/thread.
    std::vector<TraceEvent> slots = std::vector<TraceEvent>(kCapacity);
    std::atomic<uint64_t> head{0};
    uint32_t tid = 0;
  };

  Ring* RingForThisThread();

  // Guards rings_ registration and control state. Innermost lock: a
  // thread's FIRST RecordSpan registers its ring while arbitrary stack locks
  // are held above, so nothing may ever be acquired beneath it.
  mutable fdp::Mutex mu_{lock_rank::Make(lock_rank::kTrace), "trace"};
  std::vector<std::shared_ptr<Ring>> rings_ GUARDED_BY(mu_);
  std::atomic<uint32_t> sample_every_{1};
  std::atomic<uint64_t> next_id_{0};
};

// --- Export & attribution (run on collected data) ----------------------------

// Writes chrome://tracing "complete" events ({"traceEvents": [...]}) that
// Perfetto / chrome://tracing load directly. Returns false on I/O error.
bool WriteChromeTrace(const std::vector<TraceEvent>& events, const std::string& path);

// Appends synthesized kCompletionDelivery spans: for each trace with a
// request span and at least one device-execute span, the gap between the
// last device execution's end and the request's end is delivery time (CQ
// publish, poller wakeup, callback staging/firing). Synthesized rather than
// recorded because no single thread observes both endpoints.
void SynthesizeCompletionDelivery(std::vector<TraceEvent>* events);

// Builds the per-stage attribution table. For each trace: clip every stage
// span to the request interval, then charge intervals to stages in
// most-specific-first order (device execute > SQ wait > delivery > RAM probe
// > shard lock > flash park), so no nanosecond is double-charged and
// attributed + unattributed == request duration exactly.
TraceBreakdown BuildTraceBreakdown(const std::vector<TraceEvent>& events);

}  // namespace obs
}  // namespace fdpcache

#endif  // SRC_OBS_TRACE_H_
