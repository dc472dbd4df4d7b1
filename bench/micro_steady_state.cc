// Steady-state churn bench: background GC vs foreground traffic over >= 2
// full device overwrites — the regime where the paper's DLWA claims actually
// live (FDP's advantage only exists once GC is continuously collecting).
//
// Rows (all on a 128 MiB device at utilization 1.0 so churn is constant):
//   fdp-gc        — write-only KV churn, FDP placement on, feedback GC;
//   nonfdp-gc     — the same churn, placement ignored (interleaved), feedback
//                   GC: the Non-FDP baseline under identical collection;
//   gc-naive      — twitter mix, FDP on, fixed-rate background GC that
//                   ignores host load (no throttle, no cold-die placement,
//                   no erase suspend);
//   gc-feedback   — the same deployment with the feedback engine: host-QD
//                   throttling, cold-die RU placement, erase suspend;
//   steady-concurrent — gc-feedback under an async pipeline (qd=4, 2 QPs,
//                   2 lanes): GC ticks race concurrent submitters — the
//                   TSan smoke row, excluded from shape asserts.
//
// SHAPE CHECKS (any FAIL exits 1; deterministic at any core count: the qd=1
// rows run in virtual time):
//   1. fdp-gc DLWA < nonfdp-gc DLWA — placement isolation pays off in
//      steady state (paper Fig. 5/10);
//   2. gc-feedback p99 read < gc-naive p99 read — load-aware GC keeps
//      foreground tails down (the ZNS-cache interference result);
//   3. every asserted row completed >= 2 overwrite passes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace fdpcache {
namespace {

struct SteadyRow {
  std::string label;
  MetricsReport report;
  GcMode gc_mode = GcMode::kOff;
  bool fdp = true;
};

ExperimentConfig SteadyBase(double scale) {
  ExperimentConfig config;
  config.num_superblocks = 64;  // 128 MiB physical: 2 passes stay cheap.
  config.device_op_fraction = 0.10;
  config.utilization = 1.0;  // Full device in use — GC always has work.
  config.soc_fraction = 0.04;
  config.overwrite_passes = 2.0;
  config.max_steady_ops = static_cast<uint64_t>(4'000'000 * scale);
  config.max_warmup_ops = static_cast<uint64_t>(2'000'000 * scale);
  config.dlwa_samples = 12;
  return config;
}

SteadyRow RunRow(const std::string& label, const ExperimentConfig& config) {
  SteadyRow row;
  row.label = label;
  row.gc_mode = config.gc_mode;
  row.fdp = config.fdp;
  ExperimentRunner runner(config);
  row.report = runner.Run();
  return row;
}

}  // namespace
}  // namespace fdpcache

int main() {
  using namespace fdpcache;
  PrintHeader("micro_steady_state: background GC under >= 2 full device overwrites, "
              "FDP vs interleaved and naive vs feedback GC",
              "steady-state DLWA near 1 with FDP vs multiples without (Fig. 5/10); "
              "GC-vs-foreground interference dominates tails (ZNS-cache result)");

  const double scale = BenchScale();
  std::vector<SteadyRow> rows;

  // Rows 1/2: placement on vs off under identical feedback GC and write-only
  // churn — isolates what FDP placement alone buys in steady state.
  {
    ExperimentConfig config = SteadyBase(scale);
    config.workload = KvWorkloadConfig::WriteOnlyKvCache();
    config.fdp = true;
    config.gc_mode = GcMode::kFeedback;
    rows.push_back(RunRow("fdp-gc", config));
    config.fdp = false;
    rows.push_back(RunRow("nonfdp-gc", config));
  }
  // Rows 3/4: naive vs feedback GC on a read-heavy mix — the p99 tail shows
  // what throttling + cold-die placement + erase suspend buy foreground reads.
  {
    ExperimentConfig config = SteadyBase(scale);
    config.workload = KvWorkloadConfig::TwitterCluster12();
    config.fdp = true;
    config.gc_mode = GcMode::kNaive;
    rows.push_back(RunRow("gc-naive", config));
    config.gc_mode = GcMode::kFeedback;
    rows.push_back(RunRow("gc-feedback", config));
  }
  // Row 5: the concurrency smoke — GC ticks inside the device mutex racing
  // async submitters and lane workers. Excluded from the shape asserts
  // (wall-clock interleaving makes it nondeterministic); TSan runs this row.
  {
    ExperimentConfig config = SteadyBase(scale);
    config.workload = KvWorkloadConfig::TwitterCluster12();
    config.fdp = true;
    config.gc_mode = GcMode::kFeedback;
    config.queue_depth = 4;
    config.queue_pairs = 2;
    config.exec_lanes = 2;
    rows.push_back(RunRow("steady-concurrent", config));
  }

  TextTable table({"row", "fdp", "gc", "dlwa", "passes", "p99r", "p99w", "migrated",
                   "bg_erases", "deferred", "suspends"});
  for (const SteadyRow& row : rows) {
    const MetricsReport& r = row.report;
    table.AddRow({row.label, row.fdp ? "on" : "off",
                  row.gc_mode == GcMode::kFeedback ? "feedback"
                  : row.gc_mode == GcMode::kNaive  ? "naive"
                                                   : "off",
                  FormatDouble(r.final_dlwa, 3), FormatDouble(r.overwrite_passes_done, 2),
                  FormatNsAsUs(r.p99_read_ns), FormatNsAsUs(r.p99_write_ns),
                  std::to_string(r.gc_bg_migrated_pages), std::to_string(r.gc_bg_erases),
                  std::to_string(r.gc_bg_deferred_ticks), std::to_string(r.erase_suspensions)});
  }
  std::printf("%s\n", table.ToString().c_str());
  for (const SteadyRow& row : rows) {
    const std::vector<obs::MetricSample> samples = ReportSamples(row.report);
    std::printf("%s GC detail:\n%s%s%s", row.label.c_str(),
                obs::RenderText(samples, "fdpcache_gc_").c_str(),
                obs::RenderText(samples, "fdpcache_host_").c_str(),
                obs::RenderText(samples, "fdpcache_ruh_").c_str());
  }
  std::printf("\n");

  const MetricsReport& fdp_gc = rows[0].report;
  const MetricsReport& nonfdp_gc = rows[1].report;
  const MetricsReport& naive = rows[2].report;
  const MetricsReport& feedback = rows[3].report;

  bool passes_ok = true;
  for (size_t i = 0; i < 4; ++i) {
    passes_ok = passes_ok && rows[i].report.overwrite_passes_done >= 2.0;
  }
  PrintShapeCheck(passes_ok, "every asserted row completed >= 2 full device overwrite passes");

  const bool dlwa_ok = fdp_gc.final_dlwa < nonfdp_gc.final_dlwa;
  PrintShapeCheck(dlwa_ok, "steady-state FDP DLWA (" + FormatDouble(fdp_gc.final_dlwa, 3) +
                               ") < interleaved DLWA (" +
                               FormatDouble(nonfdp_gc.final_dlwa, 3) + ") under feedback GC");

  const bool p99_ok = feedback.p99_read_ns < naive.p99_read_ns;
  PrintShapeCheck(p99_ok, "feedback-GC p99 read (" + FormatNsAsUs(feedback.p99_read_ns) +
                              ") < naive-GC p99 read (" + FormatNsAsUs(naive.p99_read_ns) +
                              ")");

  return passes_ok && dlwa_ok && p99_ok ? 0 : 1;
}
