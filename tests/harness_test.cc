// Harness integration tests — including the paper's headline claim as an
// executable assertion: FDP segregation lowers DLWA to ~1 while the Non-FDP
// baseline amplifies.
#include "src/harness/experiment.h"

#include <gtest/gtest.h>

#include <glob.h>
#include <stdlib.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "src/ftl/ftl.h"
#include "src/harness/report.h"

namespace fdpcache {
namespace {

ExperimentConfig SmallExperiment(bool fdp) {
  ExperimentConfig config;
  config.num_superblocks = 128;  // 256 MiB physical: fast tests.
  config.device_op_fraction = 0.10;
  config.fdp = fdp;
  config.utilization = 1.0;     // Stress configuration (paper Fig. 6 right).
  config.soc_fraction = 0.04;
  config.total_ops = 200'000;
  config.max_warmup_ops = 2'000'000;
  config.workload = KvWorkloadConfig::MetaKvCache();
  config.dlwa_samples = 8;
  return config;
}

TEST(HarnessTest, FdpReachesNearUnityDlwaAtFullUtilization) {
  ExperimentRunner runner(SmallExperiment(true));
  const MetricsReport report = runner.Run();
  EXPECT_LT(report.final_dlwa, 1.25) << SummarizeReport("fdp", report);
  EXPECT_GE(report.final_dlwa, 1.0);
}

TEST(HarnessTest, NonFdpAmplifiesAtFullUtilization) {
  ExperimentRunner runner(SmallExperiment(false));
  const MetricsReport report = runner.Run();
  EXPECT_GT(report.final_dlwa, 1.5) << SummarizeReport("non-fdp", report);
}

TEST(HarnessTest, FdpBeatsNonFdpOnGcEvents) {
  ExperimentRunner fdp_runner(SmallExperiment(true));
  ExperimentRunner non_runner(SmallExperiment(false));
  const MetricsReport fdp = fdp_runner.Run();
  const MetricsReport non = non_runner.Run();
  // Paper Fig. 10b: several times fewer media-relocated events with FDP.
  EXPECT_LT(fdp.gc_relocated_pages, non.gc_relocated_pages);
}

TEST(HarnessTest, CacheMetricsUnaffectedBySegregation) {
  ExperimentRunner fdp_runner(SmallExperiment(true));
  ExperimentRunner non_runner(SmallExperiment(false));
  const MetricsReport fdp = fdp_runner.Run();
  const MetricsReport non = non_runner.Run();
  // Paper Fig. 6: hit ratios and ALWA unchanged by data placement.
  EXPECT_NEAR(fdp.hit_ratio, non.hit_ratio, 0.03);
  EXPECT_NEAR(fdp.alwa, non.alwa, 0.3 * non.alwa);
}

TEST(HarnessTest, IntegrityHoldsEndToEnd) {
  ExperimentConfig config = SmallExperiment(true);
  config.total_ops = 150'000;
  config.verify_values = true;
  ExperimentRunner runner(config);
  const MetricsReport report = runner.Run();
  EXPECT_EQ(report.verify_failures, 0u);
}

TEST(HarnessTest, MultiTenantRunsAndSegregates) {
  ExperimentConfig config = SmallExperiment(true);
  config.num_tenants = 2;
  config.workload = KvWorkloadConfig::WriteOnlyKvCache();
  config.total_ops = 200'000;
  ExperimentRunner runner(config);
  const MetricsReport report = runner.Run();
  EXPECT_LT(report.final_dlwa, 1.35) << SummarizeReport("mt", report);
  EXPECT_EQ(runner.ssd().ftl().CheckInvariants(), "");
}

TEST(HarnessTest, IntervalSeriesIsPopulated) {
  ExperimentConfig config = SmallExperiment(true);
  config.total_ops = 200'000;
  ExperimentRunner runner(config);
  const MetricsReport report = runner.Run();
  EXPECT_GE(report.interval_dlwa.size(), 4u);
  for (const double dlwa : report.interval_dlwa) {
    EXPECT_GE(dlwa, 0.99);
  }
}

TEST(HarnessTest, ThroughputAndLatencyArePlausible) {
  ExperimentRunner runner(SmallExperiment(true));
  const MetricsReport report = runner.Run();
  EXPECT_GT(report.throughput_kops, 2.0);
  EXPECT_GT(report.p99_read_ns, 0u);
  EXPECT_GT(report.p99_write_ns, 0u);
  EXPECT_GE(report.p999_read_ns, report.p99_read_ns);
}

// The async path through the single-threaded runner: queue_depth > 1 must
// produce a healthy run (the paper's FDP result intact, all ops executed,
// per-QP device stats populated on the configured queue pairs) while
// queue_depth = 1 keeps the legacy synchronous semantics bit-for-bit.
TEST(HarnessTest, QueueDepthKnobKeepsResultsHealthyAndSurfacesQueuePairs) {
  ExperimentConfig sync_config = SmallExperiment(true);
  sync_config.num_superblocks = 64;  // 128 MiB: 3 runner passes stay fast.
  sync_config.total_ops = 40'000;
  sync_config.warmup_cache_writes = 0.5;
  ExperimentConfig async_config = sync_config;
  async_config.queue_depth = 8;
  async_config.queue_pairs = 2;

  const MetricsReport sync_report = ExperimentRunner(sync_config).Run();
  const MetricsReport async_report = ExperimentRunner(async_config).Run();

  // QD=1 re-run is deterministic: identical to itself and unaffected by the
  // refactor's default path.
  const MetricsReport sync_again = ExperimentRunner(sync_config).Run();
  EXPECT_DOUBLE_EQ(sync_report.final_dlwa, sync_again.final_dlwa);
  EXPECT_DOUBLE_EQ(sync_report.hit_ratio, sync_again.hit_ratio);
  EXPECT_EQ(sync_report.host_bytes_written, sync_again.host_bytes_written);

  // The async run executes the same workload to completion with the paper's
  // FDP shape intact and near-identical cache behaviour.
  EXPECT_EQ(async_report.ops_executed, async_config.total_ops);
  EXPECT_LT(async_report.final_dlwa, 1.25);
  EXPECT_NEAR(async_report.hit_ratio, sync_report.hit_ratio, 0.02);
  EXPECT_EQ(async_report.verify_failures, 0u);

  // Both engine streams rode their own queue pair (SOC on QP0, LOC on QP1),
  // and the drain barrier retired everything: each queue pair recorded
  // exactly one latency sample per successful write. (The full
  // per-QP-sums-to-aggregate property is asserted against DeviceStats in
  // multi_qp_device_test and sharded_cache_test.)
  ASSERT_EQ(async_report.device_queue_pairs.size(), 2u);
  for (const QueuePairStats& qp : async_report.device_queue_pairs) {
    EXPECT_GT(qp.writes, 0u);
    EXPECT_EQ(qp.write_latency_ns.Count(), qp.writes);
  }

  // Sync mode reports a single idle-free queue pair.
  ASSERT_EQ(sync_report.device_queue_pairs.size(), 1u);
  EXPECT_GT(sync_report.device_queue_pairs[0].writes, 0u);
}

TEST(HarnessTest, CacheQueueDepthKnobKeepsResultsHealthyAndVerifiesPayloads) {
  ExperimentConfig sync_config = SmallExperiment(true);
  sync_config.num_superblocks = 64;
  sync_config.total_ops = 40'000;
  sync_config.warmup_cache_writes = 0.5;
  sync_config.verify_values = true;
  ExperimentConfig async_config = sync_config;
  async_config.cache_queue_depth = 8;
  async_config.queue_pairs = 2;

  const MetricsReport sync_report = ExperimentRunner(sync_config).Run();
  const MetricsReport async_report = ExperimentRunner(async_config).Run();

  // The async-cache run executes the same workload to completion with
  // near-identical cache behaviour, and — the strong check — every hit's
  // payload matched the expected version despite up to 8 cache ops in
  // flight: the pending-key table preserved same-key ordering.
  EXPECT_EQ(async_report.ops_executed, async_config.total_ops);
  EXPECT_EQ(async_report.verify_failures, 0u);
  EXPECT_EQ(sync_report.verify_failures, 0u);
  EXPECT_NEAR(async_report.hit_ratio, sync_report.hit_ratio, 0.02);
  EXPECT_LT(async_report.final_dlwa, 1.25);
  EXPECT_EQ(async_report.flush_failures, 0u);

  // The collection-time gauge is sized per tenant and was sampled before
  // the barrier drained it (it may legitimately read 0 if the window
  // happened to be empty, but the vector itself must surface).
  ASSERT_EQ(async_report.pending_cache_ops.size(), 1u);
  ASSERT_EQ(sync_report.pending_cache_ops.size(), 1u);
  EXPECT_EQ(sync_report.pending_cache_ops[0], 0u);
}

TEST(HarnessTest, ExecLanesKnobKeepsResultsHealthyAndSurfacesLaneAndDieStats) {
  ExperimentConfig config = SmallExperiment(true);
  config.num_superblocks = 64;
  config.total_ops = 40'000;
  config.warmup_cache_writes = 0.5;
  config.queue_depth = 8;
  config.queue_pairs = 2;
  config.exec_lanes = 2;

  const MetricsReport report = ExperimentRunner(config).Run();
  EXPECT_EQ(report.ops_executed, config.total_ops);
  EXPECT_LT(report.final_dlwa, 1.25);
  EXPECT_EQ(report.verify_failures, 0u);

  // Both lanes carried work and accumulated busy time; every arbitrated
  // request went through exactly one lane.
  ASSERT_EQ(report.device_lanes.size(), 2u);
  uint64_t lane_dispatches = 0;
  for (const LaneStats& lane : report.device_lanes) {
    EXPECT_GT(lane.dispatches, 0u);
    EXPECT_GT(lane.busy_ns, 0u);
    lane_dispatches += lane.dispatches;
  }
  uint64_t qp_dispatches = 0;
  for (const QueuePairStats& qp : report.device_queue_pairs) {
    qp_dispatches += qp.dispatched;
  }
  EXPECT_EQ(lane_dispatches, qp_dispatches);

  // Per-die busy telemetry rode along for the lane-vs-die cross-check.
  ASSERT_EQ(report.per_die_busy_ns.size(), config.num_dies);
  uint64_t die_busy = 0;
  for (const uint64_t busy : report.per_die_busy_ns) {
    die_busy += busy;
  }
  EXPECT_GT(die_busy, 0u);

  // The inline path (exec_lanes = 0) reports no lanes.
  ExperimentConfig inline_config = config;
  inline_config.exec_lanes = 0;
  EXPECT_TRUE(ExperimentRunner(inline_config).Run().device_lanes.empty());
}

// Regression: an undersized multi-tenant deployment must fail with a clear
// provisioning error, not crash. fdpbench --tenants=2 --superblocks=64
// (utilization 1.0) used to segfault dereferencing the second tenant's
// failed namespace allocation. Every backend applies the same partition
// rule, so the file backend refuses the same deployment.
TEST(HarnessTest, UndersizedMultiTenantDeploymentThrowsInsteadOfCrashing) {
  for (const DeviceBackend backend : {DeviceBackend::kSim, DeviceBackend::kFile}) {
    SCOPED_TRACE(DeviceBackendName(backend));
    ExperimentConfig config = SmallExperiment(true);
    config.backend = backend;
    config.num_superblocks = 64;
    config.num_tenants = 2;
    config.utilization = 1.0;
    EXPECT_THROW({ ExperimentRunner runner(config); }, std::runtime_error);

    // Inputs no device can satisfy are refused before any sizing arithmetic.
    ExperimentConfig no_tenants = config;
    no_tenants.num_tenants = 0;
    EXPECT_THROW({ ExperimentRunner runner(no_tenants); }, std::runtime_error);
    for (const double utilization : {0.0, 1.5, std::nan("")}) {
      ExperimentConfig bad = config;
      bad.num_tenants = 1;
      bad.utilization = utilization;
      EXPECT_THROW({ ExperimentRunner runner(bad); }, std::runtime_error) << utilization;
    }

    // The same deployment with headroom provisions fine.
    config.utilization = 0.9;
    ExperimentConfig ok_config = config;
    ok_config.total_ops = 1'000;
    ok_config.warmup_cache_writes = 0.0;
    const MetricsReport report = ExperimentRunner(ok_config).Run();
    EXPECT_EQ(report.ops_executed, ok_config.total_ops);
  }
}

// One deployment, one layout: the file backend gives each tenant the same
// page-aligned byte range as the simulator, so at queue depth 1 every
// cache-side figure matches exactly (only device timing and FDP telemetry
// differ).
TEST(HarnessTest, SimAndFileBackendsReportIdenticalCacheMetricsAtQueueDepthOne) {
  ExperimentConfig config = SmallExperiment(true);
  config.num_superblocks = 64;
  config.num_tenants = 2;
  config.utilization = 0.7;
  config.total_ops = 40'000;
  config.verify_values = true;
  const MetricsReport sim = ExperimentRunner(config).Run();
  config.backend = DeviceBackend::kFile;
  const MetricsReport file = ExperimentRunner(config).Run();

  EXPECT_EQ(sim.gets, file.gets);
  EXPECT_EQ(sim.sets, file.sets);
  EXPECT_EQ(sim.hit_ratio, file.hit_ratio);
  EXPECT_EQ(sim.nvm_hit_ratio, file.nvm_hit_ratio);
  EXPECT_EQ(sim.alwa, file.alwa);
  EXPECT_EQ(sim.soc_write_share, file.soc_write_share);
  EXPECT_EQ(sim.cache_bytes, file.cache_bytes);
  EXPECT_EQ(sim.ram_bytes, file.ram_bytes);
  EXPECT_EQ(sim.verify_failures, 0u);
  EXPECT_EQ(file.verify_failures, 0u);
}

std::set<std::string> TempBackingFiles() {
  std::set<std::string> files;
  glob_t matches;
  if (::glob("/tmp/fdpbench_backing_*", 0, nullptr, &matches) == 0) {
    for (size_t i = 0; i < matches.gl_pathc; ++i) {
      files.insert(matches.gl_pathv[i]);
    }
  }
  ::globfree(&matches);
  return files;
}

// Whether /tmp lets one file grow to `bytes` (sparse), probed with a
// throwaway file of its own.
bool TmpAcceptsFileOf(uint64_t bytes) {
  char path[] = "/tmp/fdpbench_probe_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) {
    return false;
  }
  const bool accepted = ::ftruncate(fd, static_cast<off_t>(bytes)) == 0;
  ::close(fd);
  ::unlink(path);
  return accepted;
}

// A backing that fails to open after its temp file was created must not
// leave that file behind: the runner's constructor throws, so no destructor
// of its own runs.
TEST(HarnessTest, FailedBackingOpenRemovesItsTempFile) {
  ExperimentConfig config = SmallExperiment(true);
  config.backend = DeviceBackend::kFile;
  config.num_superblocks = 100'000'000;  // ~188 TB: past ext4's file-size limit.
  NandGeometry geometry;
  geometry.pages_per_block = config.pages_per_block;
  geometry.planes_per_die = config.planes_per_die;
  geometry.num_dies = config.num_dies;
  geometry.num_superblocks = config.num_superblocks;
  const uint64_t backing_bytes =
      Ftl::LogicalPages(geometry, config.device_op_fraction) * geometry.page_size_bytes;
  if (TmpAcceptsFileOf(backing_bytes)) {
    GTEST_SKIP() << "/tmp accepts a " << backing_bytes
                 << "-byte file, so the backing open cannot be made to fail here";
  }

  const std::set<std::string> before = TempBackingFiles();
  EXPECT_THROW({ ExperimentRunner runner(config); }, std::runtime_error);
  EXPECT_EQ(TempBackingFiles(), before);
}

// Reads a Prometheus text snapshot into name -> value, checking its shape on
// the way: each family has exactly one # TYPE line, ahead of its samples, and
// sample names strictly ascend.
std::map<std::string, double> ReadPrometheusSnapshot(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "no snapshot at " << path;
  std::map<std::string, double> samples;
  std::set<std::string> typed_families;
  std::string last_name;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(typed_families.insert(family).second) << "second # TYPE line for " << family;
      continue;
    }
    const size_t space = line.rfind(' ');
    const std::string name = line.substr(0, space);
    EXPECT_GT(name, last_name) << "sample names must ascend";
    EXPECT_EQ(typed_families.count(name.substr(0, name.find('{'))), 1u)
        << name << " precedes its # TYPE line";
    samples[name] = std::strtod(line.c_str() + space + 1, nullptr);
    last_name = name;
  }
  return samples;
}

// The live exposition's last snapshot covers the whole measured phase, so
// it must agree with the final report figure for figure.
TEST(HarnessTest, LiveMetricsFinalSnapshotMatchesReport) {
  const std::string path = ::testing::TempDir() + "harness_live_metrics.prom";
  std::remove(path.c_str());
  ExperimentConfig config;
  config.num_superblocks = 64;
  config.total_ops = 30'000;
  config.metrics_interval_ms = 20;
  config.metrics_path = path;
  const MetricsReport report = ExperimentRunner(config).Run();

  const std::map<std::string, double> samples = ReadPrometheusSnapshot(path);
  EXPECT_EQ(samples.at("fdpcache_cache_gets"), static_cast<double>(report.gets));
  EXPECT_EQ(samples.at("fdpcache_cache_sets"), static_cast<double>(report.sets));
  EXPECT_EQ(samples.at("fdpcache_ssd_dlwa"), report.final_dlwa);
  ASSERT_FALSE(report.device_queue_pairs.empty());
  EXPECT_EQ(samples.at("fdpcache_qp_writes{qp=\"0\"}"),
            static_cast<double>(report.device_queue_pairs[0].writes));
  EXPECT_GE(report.metrics_snapshots, 1u);
  std::remove(path.c_str());
}

// A --metrics-out target that cannot be published to is refused before the
// warm-up starts, and the refusal touches nothing on disk.
ExperimentConfig RefusedMetricsExperiment(const std::string& metrics_path) {
  ExperimentConfig config;
  config.num_superblocks = 64;
  config.total_ops = 2'000;
  config.warmup_cache_writes = 0.0;
  config.metrics_interval_ms = 20;
  config.metrics_path = metrics_path;
  return config;
}

TEST(HarnessTest, MetricsSocketNeverReplacesARegularFile) {
  const std::string path = ::testing::TempDir() + "harness_metrics_not_a_socket.txt";
  std::ofstream(path) << "user data\n";
  EXPECT_THROW(ExperimentRunner(RefusedMetricsExperiment("unix:" + path)).Run(),
               std::runtime_error);
  std::ifstream in(path);
  std::string line;
  EXPECT_TRUE(std::getline(in, line)) << path << " was deleted";
  EXPECT_EQ(line, "user data");
  std::remove(path.c_str());
}

TEST(HarnessTest, MetricsSocketPathLongerThanSunPathIsRefused) {
  std::string path = ::testing::TempDir() + "harness_metrics_";
  ASSERT_LT(path.size(), 139u);
  path.append(139 - path.size(), 'x');
  path += ".sock";
  ASSERT_EQ(path.size(), 144u);
  // sun_path holds 107 bytes plus the terminator; a silently truncated bind
  // would create this name instead.
  const std::string truncated = path.substr(0, 107);
  ::unlink(path.c_str());
  ::unlink(truncated.c_str());
  EXPECT_THROW(ExperimentRunner(RefusedMetricsExperiment("unix:" + path)).Run(),
               std::runtime_error);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  EXPECT_NE(::access(truncated.c_str(), F_OK), 0) << "a truncated socket was left behind";
  ::unlink(truncated.c_str());
}

TEST(HarnessTest, MetricsSocketInMissingDirectoryIsRefused) {
  const std::string path = ::testing::TempDir() + "harness_metrics_no_such_dir/x.sock";
  EXPECT_THROW(ExperimentRunner(RefusedMetricsExperiment("unix:" + path)).Run(),
               std::runtime_error);
}

TEST(HarnessTest, MetricsFileInMissingDirectoryIsRefused) {
  const std::string path = ::testing::TempDir() + "harness_metrics_no_such_dir/x.prom";
  EXPECT_THROW(ExperimentRunner(RefusedMetricsExperiment(path)).Run(), std::runtime_error);
}

TEST(ReportTest, TextTableAlignsColumns) {
  TextTable table({"a", "long-header", "c"});
  table.AddRow({"1", "2", "3"});
  table.AddRow({"wide-cell", "x", "y"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(FormatDouble(1.2345, 2), "1.23");
  EXPECT_EQ(FormatPercent(0.5), "50.0%");
  EXPECT_EQ(FormatNsAsUs(1500), "1.5us");
  EXPECT_EQ(FormatBytes(2048), "2.0KiB");
  EXPECT_EQ(FormatBytes(3u << 20), "3.0MiB");
}

TEST(ReportTest, BenchScaleReadsTheEnvironment) {
  unsetenv("FDPBENCH_SCALE");
  EXPECT_EQ(BenchScale(), 1.0);
  setenv("FDPBENCH_SCALE", "0.25", 1);
  EXPECT_EQ(BenchScale(), 0.25);
  unsetenv("FDPBENCH_SCALE");
}

TEST(ReportDeathTest, BenchScaleRefusesMalformedValues) {
  for (const char* value : {"nan", "abc", "20"}) {
    setenv("FDPBENCH_SCALE", value, 1);
    EXPECT_EXIT(BenchScale(), ::testing::ExitedWithCode(2), "FDPBENCH_SCALE") << value;
  }
  unsetenv("FDPBENCH_SCALE");
}

TEST(ReportTest, DlwaSeriesRendering) {
  const std::string out = FormatDlwaSeries("x", {1.0, 2.0});
  EXPECT_NE(out.find("dlwa=1.000"), std::string::npos);
  EXPECT_NE(out.find("dlwa=2.000"), std::string::npos);
}

}  // namespace
}  // namespace fdpcache
