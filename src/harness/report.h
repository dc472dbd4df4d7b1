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
