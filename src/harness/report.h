// Formatting helpers for bench output: aligned text tables and compact
// DLWA series, so every bench binary prints paper-shaped results uniformly;
// and the report's Prometheus samples.
#ifndef SRC_HARNESS_REPORT_H_
#define SRC_HARNESS_REPORT_H_

#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/metrics.h"

namespace fdpcache {

// A simple fixed-width text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Renders with column alignment and a header rule.
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Number formatting.
std::string FormatDouble(double v, int precision = 2);
std::string FormatPercent(double fraction, int precision = 1);
std::string FormatNsAsUs(uint64_t ns);
std::string FormatBytes(uint64_t bytes);

// Renders an interval-DLWA series as one line per sample:
//   t01 dlwa=1.03 |#####        |
std::string FormatDlwaSeries(const std::string& label, const std::vector<double>& series,
                             double max_scale = 4.0);

// One-line summary of a run for bench logs.
std::string SummarizeReport(const std::string& label, const MetricsReport& report);

// One-line summary of a concurrent replay run (throughput, hit ratio, merged
// latency percentiles, shard imbalance).
struct ConcurrentReplayReport;
std::string SummarizeConcurrentReport(const std::string& label,
                                      const ConcurrentReplayReport& report);

// One line per queue pair (dispatches, writes/reads, observed p50/max SQ
// depth, p99 write latency), prefixed with `indent`. Empty string for an
// empty vector.
std::string FormatQueuePairStats(const std::string& indent,
                                 const std::vector<QueuePairStats>& queue_pairs);

// One line per execution lane (dispatches, conflict waits, device-model busy
// time, observed p50/max lane-queue depth), prefixed with `indent`. Empty
// string for an empty vector.
std::string FormatLaneStats(const std::string& indent, const std::vector<LaneStats>& lanes);

// Compact one-line per-die busy summary ("die0=1.2ms die1=0.9ms ..."), for
// cross-checking lane utilization against die utilization. Empty string for
// an empty vector.
std::string FormatDieBusy(const std::string& indent,
                          const std::vector<uint64_t>& per_die_busy_ns);

// Multi-line background-GC summary (migrated bytes, erases, tick activity,
// foreground interference, per-RUH DLWA), prefixed with `indent`. Empty
// string when the report shows no background-GC activity at all.
std::string FormatGcStats(const std::string& indent, const MetricsReport& report);

// Compact one-line in-flight async-cache-op summary per shard/tenant
// ("total=12 [shard0=3 shard1=4 ...]"), for the cache-tier queue-depth
// gauge (ShardedCacheStats::pending_ops / MetricsReport::pending_cache_ops).
// Empty string for an empty vector.
std::string FormatPendingOps(const std::string& indent,
                             const std::vector<uint64_t>& pending_ops);

// Per-stage latency-attribution table from a traced run (`fdpbench --trace`):
// one row per stage with span count, exclusive time, share of total request
// time, and mean per occurrence, plus an unattributed row and a footer with
// request count / p50 / dropped events. Empty string when the breakdown holds
// no requests.
std::string FormatTraceBreakdown(const std::string& indent, const obs::TraceBreakdown& trace);

// Every figure of the report as Prometheus samples: the one place that names
// them (README "Metrics exposition" lists each). Trace samples appear only
// when the run was traced; metrics_snapshots has no sample.
std::vector<obs::MetricSample> ReportSamples(const MetricsReport& report);

// Reads FDPBENCH_SCALE from the environment (a number in [0.1, 10], 1.0 when
// unset): benches multiply op counts by it so users can trade speed for
// fidelity. Any other value is printed to stderr and the process exits 2.
double BenchScale();

}  // namespace fdpcache

#endif  // SRC_HARNESS_REPORT_H_
