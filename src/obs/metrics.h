// Unified metrics registry: every layer's stats (ShardedCacheStats,
// QueuePairStats, LaneStats, RuhIoStats, GC meters) registers here and one
// renderer produces Prometheus text exposition.
//
// Two ways to publish:
//
//   1. Handles — Counter()/Gauge()/Histogram() return stable pointers whose
//      mutation is a single relaxed atomic op, fine to call from hot paths.
//   2. Collectors — AddCollector(fn) registers a callback that runs at
//      render time and pushes point-in-time values through handles. This is
//      how the existing per-layer stats structs integrate without moving
//      their storage: the collector snapshots (already thread-safe: atomics,
//      or a locked Telemetry()/Stats() call) and Set()s gauges/counters.
//
// Naming convention (see README "Observability"): families are
// `fdpcache_<layer>_<metric>` with Prometheus labels embedded directly in
// the registered name, e.g. `fdpcache_qp_dispatched{qp="3"}`. Metrics
// sharing a family (the part before '{') are grouped under one # TYPE line.
//
// MetricsExporter drives the live time series: a snapshot thread renders
// every interval to a file (atomic tmp+rename) and/or serves the snapshot to
// anyone connecting to a unix-domain socket (`curl --unix-socket`).
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"

namespace fdpcache {
namespace obs {

class MetricCounter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  // For collectors mirroring an externally-maintained monotonic count.
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class MetricGauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Power-of-two bucketed histogram: bucket i counts observations with
// bit_width(v) == i, i.e. v in [2^(i-1), 2^i). Lossy but lock-free and
// mergeable; rendered as cumulative le-buckets.
class MetricHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t v) {
    size_t idx = 0;
    for (uint64_t x = v; x != 0; x >>= 1) {
      ++idx;
    }
    buckets_[idx < kBuckets ? idx : kBuckets - 1].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent per name: the first call creates, later calls return the
  // same handle. Registering a name under a different type returns nullptr.
  MetricCounter* Counter(const std::string& name);
  MetricGauge* Gauge(const std::string& name);
  MetricHistogram* Histogram(const std::string& name);

  // Collectors run (in registration order, under the registry mutex) at the
  // top of every RenderPrometheus() call.
  void AddCollector(std::function<void(MetricsRegistry&)> fn);
  void ClearCollectors();

  std::string RenderPrometheus();

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Entry {
    Type type;
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricGauge> gauge;
    std::unique_ptr<MetricHistogram> histogram;
  };

  // Terminal rank: the registry lock is the innermost lock in the stack —
  // collectors run OUTSIDE it (RenderPrometheus copies them out first), so
  // their locked Stats()/Telemetry() snapshots never nest inside it.
  fdp::Mutex mu_{lock_rank::Make(lock_rank::kMetrics), "metrics"};
  // Ordered map => families render contiguously and output is deterministic.
  std::map<std::string, Entry> metrics_ GUARDED_BY(mu_);
  std::vector<std::function<void(MetricsRegistry&)>> collectors_ GUARDED_BY(mu_);
};

struct MetricsExporterOptions {
  uint32_t interval_ms = 1000;
  std::string file_path;    // Snapshot file (atomic tmp+rename); "" = off.
  std::string socket_path;  // Unix-socket endpoint; "" = off.
};

// Periodic snapshot thread. Start() spawns it; Stop()/dtor writes one final
// snapshot so short runs still leave a complete file behind.
class MetricsExporter {
 public:
  MetricsExporter(MetricsRegistry* registry, MetricsExporterOptions options);
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  void Start();
  void Stop();
  uint64_t snapshots_written() const {
    return snapshots_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  void WriteSnapshot(const std::string& text);

  MetricsRegistry* registry_;
  MetricsExporterOptions options_;
  std::thread thread_;
  fdp::Mutex mu_{lock_rank::Make(lock_rank::kMetricsExporter), "metrics_exporter"};
  fdp::CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool running_ GUARDED_BY(mu_) = false;
  int listen_fd_ = -1;
  std::atomic<uint64_t> snapshots_{0};
};

}  // namespace obs
}  // namespace fdpcache

#endif  // SRC_OBS_METRICS_H_
