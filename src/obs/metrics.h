// Prometheus exposition: two text renderers and a passive publisher.
//
// The stats structs each layer already keeps (HybridCacheStats, DeviceStats,
// QueuePairStats, LaneStats, SsdTelemetry) are the one store. An owner that
// can read them safely — ExperimentRunner::Collect(), on the thread that
// drives its caches — copies them into a MetricsReport; ReportSamples()
// (src/harness/report.h) turns that into a vector of MetricSample,
// RenderPrometheus() renders it and MetricsPublisher::Publish() hands the
// text on; RenderText() prints a family prefix of it for a text report.
// Nothing here runs on a thread of its own.
//
// Naming convention (see README "Observability"): families are
// `fdpcache_<layer>_<metric>` with Prometheus labels embedded directly in
// the sample name, e.g. `fdpcache_qp_dispatched{qp="3"}`. Samples sharing a
// family (the part before '{') are grouped under one # TYPE line.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fdpcache {
namespace obs {

// One point-in-time value of one series.
struct MetricSample {
  enum class Kind { kCounter, kGauge };

  static MetricSample Counter(std::string name, uint64_t value) {
    return {std::move(name), Kind::kCounter, value, 0.0};
  }
  static MetricSample Gauge(std::string name, double value) {
    return {std::move(name), Kind::kGauge, 0, value};
  }

  std::string name;  // Family plus embedded labels.
  Kind kind;
  uint64_t count;  // kCounter: rendered as an integer.
  double gauge;    // kGauge: rendered with %.17g, which round-trips exactly.
};

// Prometheus text exposition: samples sorted by name, one # TYPE line per
// family.
std::string RenderPrometheus(std::vector<MetricSample> samples);

// The samples whose names start with `prefix`, as lines for a text report:
// one per element, headed by its label (`  qp="0": reads=5 ...`; no head when
// unlabelled), so an element's samples must be consecutive, as ReportSamples
// emits them. A value is keyed by its name minus `prefix` and the element
// label (`depth{quantile="0.5"}=3`) and written as RenderPrometheus writes
// it. Elements and keys keep the order of `samples`.
std::string RenderText(const std::vector<MetricSample>& samples, std::string_view prefix);

// Publishes rendered snapshots to `target`: a file path, rewritten
// atomically (tmp + rename) on every Publish(), or "unix:<path>", a
// unix-domain socket whose pending connections each Publish() answers with
// the snapshot and closes (`curl --unix-socket <path> http://x/`).
class MetricsPublisher {
 public:
  // Throws std::runtime_error when the target cannot be published to:
  // something other than a regular file already sits at the snapshot path,
  // its .tmp file cannot be created, the socket path does not fit
  // sockaddr_un, something other than a socket already sits at it, or bind
  // or listen fails.
  explicit MetricsPublisher(const std::string& target);
  ~MetricsPublisher();
  MetricsPublisher(const MetricsPublisher&) = delete;
  MetricsPublisher& operator=(const MetricsPublisher&) = delete;

  // Never blocks on a client. Throws std::runtime_error when the snapshot
  // file cannot be written.
  void Publish(const std::string& text);
  // Snapshot files written so far (socket answers are not counted).
  uint64_t snapshots_written() const { return snapshots_; }

 private:
  std::string file_path_;
  std::string socket_path_;
  int listen_fd_ = -1;
  uint64_t snapshots_ = 0;
};

}  // namespace obs
}  // namespace fdpcache

#endif  // SRC_OBS_METRICS_H_
