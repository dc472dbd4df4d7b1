// Ablation (paper Insight 5): does the cheap "initially isolated" RUH type
// suffice, or is "persistently isolated" needed? With static SOC/LOC
// segregation only SOC data moves under GC, so isolation is preserved either
// way and DLWA matches. The conventional (FDP off) row is the baseline.
#include <cstdio>

#include "bench/bench_util.h"

namespace fdpcache {
namespace {

int Run() {
  PrintHeader("Ablation: RUH isolation type (paper Insight 5)",
              "Initially isolated suffices: only SOC data moves under GC, so "
              "persistent isolation buys nothing for CacheLib");
  ExperimentConfig base = BenchSweepConfig();
  base.utilization = 1.0;
  base.workload = KvWorkloadConfig::MetaKvCache();

  ExperimentConfig ii = base;
  ii.fdp = true;
  ii.ruh_type = RuhType::kInitiallyIsolated;
  ExperimentRunner ii_runner(ii);
  const MetricsReport ii_report = ii_runner.Run();

  ExperimentConfig pi = base;
  pi.fdp = true;
  pi.ruh_type = RuhType::kPersistentlyIsolated;
  ExperimentRunner pi_runner(pi);
  const MetricsReport pi_report = pi_runner.Run();

  ExperimentConfig conv = base;
  conv.fdp = false;
  ExperimentRunner conv_runner(conv);
  const MetricsReport conv_report = conv_runner.Run();

  TextTable table({"configuration", "DLWA", "gc_pages", "p99w"});
  table.AddRow({"FDP initially isolated", FormatDouble(ii_report.final_dlwa, 3),
                std::to_string(ii_report.gc_relocated_pages),
                FormatNsAsUs(ii_report.p99_write_ns)});
  table.AddRow({"FDP persistently isolated", FormatDouble(pi_report.final_dlwa, 3),
                std::to_string(pi_report.gc_relocated_pages),
                FormatNsAsUs(pi_report.p99_write_ns)});
  table.AddRow({"Conventional (no FDP)", FormatDouble(conv_report.final_dlwa, 3),
                std::to_string(conv_report.gc_relocated_pages),
                FormatNsAsUs(conv_report.p99_write_ns)});
  std::printf("%s\n", table.ToString().c_str());

  const double delta = std::abs(ii_report.final_dlwa - pi_report.final_dlwa);
  std::printf("II vs PI DLWA delta: %.3f (both ~1); conventional: %.2f\n", delta,
              conv_report.final_dlwa);
  const bool pass = delta < 0.08 && ii_report.final_dlwa < 1.15 &&
                    conv_report.final_dlwa > ii_report.final_dlwa + 0.5;
  PrintShapeCheck(pass, "initially == persistently isolated for segregated CacheLib; "
                        "both beat the conventional baseline");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace fdpcache

int main() { return fdpcache::Run(); }
