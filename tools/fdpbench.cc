// fdpbench: the CacheBench-analogue driver for this repository. Runs a
// configurable deployment (workload x utilization x FDP on/off x tenants)
// and prints the metrics report, as text, CSV or a Prometheus snapshot. A
// malformed or unknown flag exits 2 before the run starts.
//
// Examples:
//   fdpbench --workload=kvcache --utilization=1.0 --fdp=false
//   fdpbench --workload=twitter --tenants=2 --ops=500000 --csv
//   fdpbench --workload=wokv --soc=0.16 --op=0.07 --superblocks=512
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/report.h"
#include "src/navy/queued_device.h"
#include "src/navy/uring_file_device.h"
#include "tools/flags.h"

namespace fdpcache {
namespace {

void PrintUsage() {
  std::printf(
      "fdpbench — FDP flash-cache experiment driver\n"
      "  --workload=kvcache|twitter|wokv   trace preset (default kvcache)\n"
      "  --backend=sim|file|uring          device backend (default sim = the simulated\n"
      "                                    FDP SSD; file = synchronous file/block-device\n"
      "                                    I/O; uring = io_uring with a thread-pool\n"
      "                                    fallback). file/uring report wall-clock\n"
      "                                    latency and no FDP/GC/energy telemetry\n"
      "  --device-path=/path               backing file or block device for file/uring\n"
      "                                    (default: a temp file removed on exit;\n"
      "                                    existing files/devices are never truncated)\n"
      "  --direct-io                       open the file/uring backing with O_DIRECT\n"
      "  --utilization=0.5..1.0            cache share of the device (default 1.0)\n"
      "  --fdp=true|false                  FDP segregation on/off (default true)\n"
      "  --ruh=ii|pi                       RUH isolation type (default ii)\n"
      "  --soc=0.04                        SOC fraction of the cache\n"
      "  --op=0.10                         device overprovisioning fraction\n"
      "  --ram=bytes                       DRAM cache size (default 4.5%% of flash)\n"
      "  --tenants=1                       number of cache instances sharing the SSD\n"
      "  --superblocks=256                 device size in 2 MiB reclaim units\n"
      "  --ops=400000                      measured operations\n"
      "  --qd=1                            target device queue depth (1 = synchronous,\n"
      "                                    >1 pipelines flash writes through the device\n"
      "                                    queue pairs with a flush barrier at collection)\n"
      "  --qps=1                           queue pairs of the shared device (tenant t's SOC\n"
      "                                    rides QP 2t %% qps, its LOC QP (2t+1) %% qps)\n"
      "  --lanes=0                         parallel execution lanes behind the device\n"
      "                                    arbiter (0 = inline dispatcher execution;\n"
      "                                    N routes disjoint requests to N die-affine\n"
      "                                    lane workers)\n"
      "  --cache-qd=1                      cache-tier queue depth (1 = blocking\n"
      "                                    Set/Get/Remove; >1 issues async cache ops —\n"
      "                                    flash lookups ride the device queues with up\n"
      "                                    to this many ops outstanding per tenant)\n"
      "  --stripe=bytes                    lane-routing stripe size (default: the LOC\n"
      "                                    region size, so regions fan out across lanes)\n"
      "  --gc=off|naive|feedback           device background GC engine (default off;\n"
      "                                    naive = fixed-rate collection, feedback =\n"
      "                                    host-QD throttle + cold-die RU placement +\n"
      "                                    erase suspend)\n"
      "  --overwrite-passes=N              steady-state mode: ignore --ops and churn\n"
      "                                    until the host has written N x the device's\n"
      "                                    logical capacity (N >= 2 = paper's steady\n"
      "                                    state; 0 = classic op-count run)\n"
      "  --seed=42                         workload seed\n"
      "  --verify                          verify every hit's payload\n"
      "  --wear-leveling                   enable static wear leveling\n"
      "  --csv                             emit one CSV row instead of text\n"
      "  --trace[=path]                    per-request stage tracing of the measured\n"
      "                                    phase; writes chrome://tracing JSON to path\n"
      "                                    (default fdpbench_trace.json; --trace=off\n"
      "                                    disables) and prints the fdpcache_trace_*\n"
      "                                    samples. Wall-clock spans only: virtual-time\n"
      "                                    metrics are identical with --trace off\n"
      "  --trace-sample=N                  trace 1 in N requests (also accepts 1/N;\n"
      "                                    default 1 = every request)\n"
      "  --metrics-every=1s                live Prometheus snapshot interval: N, Nms\n"
      "                                    (both milliseconds) or Ns; 0/absent = none\n"
      "  --metrics-out=path                snapshot file (default fdpbench_metrics.prom):\n"
      "                                    the whole final report, plus --metrics-every's\n"
      "                                    live ones; or unix:<path> to serve them on a\n"
      "                                    unix-domain socket\n");
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }
  ExperimentConfig config;
  const std::string workload = flags.GetString("workload", "kvcache");
  if (workload == "kvcache") {
    config.workload = KvWorkloadConfig::MetaKvCache();
  } else if (workload == "twitter") {
    config.workload = KvWorkloadConfig::TwitterCluster12();
  } else if (workload == "wokv") {
    config.workload = KvWorkloadConfig::WriteOnlyKvCache();
  } else {
    std::fprintf(stderr, "unknown --workload=%s\n", workload.c_str());
    return 2;
  }
  const std::string backend = flags.GetString("backend", "sim");
  if (backend == "sim") {
    config.backend = DeviceBackend::kSim;
  } else if (backend == "file") {
    config.backend = DeviceBackend::kFile;
  } else if (backend == "uring") {
    config.backend = DeviceBackend::kUring;
  } else {
    std::fprintf(stderr, "unknown --backend=%s (sim|file|uring)\n", backend.c_str());
    return 2;
  }
  // Count flags fill uint32_t fields: a value above `max` is refused rather
  // than wrapped or clamped.
  const auto u32 = [&flags](const char* name, uint32_t def, uint32_t max = UINT32_MAX) {
    return static_cast<uint32_t>(flags.GetUint(name, def, max));
  };
  config.device_path = flags.GetString("device-path", "");
  config.device_direct_io = flags.GetBool("direct-io", false);
  config.utilization = flags.GetDouble("utilization", 1.0);
  config.fdp = flags.GetBool("fdp", true);
  config.ruh_type = flags.GetString("ruh", "ii") == "pi" ? RuhType::kPersistentlyIsolated
                                                         : RuhType::kInitiallyIsolated;
  config.soc_fraction = flags.GetDouble("soc", 0.04);
  config.device_op_fraction = flags.GetDouble("op", 0.10);
  config.ram_bytes = flags.GetUint("ram", 0);
  config.num_tenants = u32("tenants", 1);
  config.num_superblocks = u32("superblocks", 256);
  config.total_ops = flags.GetUint("ops", 400'000);
  config.queue_depth = u32("qd", 1);
  config.queue_pairs = u32("qps", 1, kMaxQueuePairs);
  config.exec_lanes = u32("lanes", 0, kMaxExecLanes);
  config.lane_stripe_bytes = flags.GetUint("stripe", 0);
  config.cache_queue_depth = u32("cache-qd", 1);
  config.seed = flags.GetUint("seed", 42);
  config.verify_values = flags.GetBool("verify", false);
  config.workload.seed = config.seed;
  config.static_wear_leveling = flags.GetBool("wear-leveling", false);
  const std::string gc = flags.GetString("gc", "off");
  if (gc == "off") {
    config.gc_mode = GcMode::kOff;
  } else if (gc == "naive") {
    config.gc_mode = GcMode::kNaive;
  } else if (gc == "feedback") {
    config.gc_mode = GcMode::kFeedback;
  } else {
    std::fprintf(stderr, "unknown --gc=%s (off|naive|feedback)\n", gc.c_str());
    return 2;
  }
  config.overwrite_passes = flags.GetDouble("overwrite-passes", 0.0);

  // --trace is tri-state: absent/off = disabled, bare or "on"/"true" = default
  // path, anything else = the output path itself.
  const std::string trace = flags.GetString("trace", "off");
  if (trace != "off" && trace != "false") {
    config.trace_enabled = true;
    config.trace_path =
        (trace == "true" || trace == "on") ? "fdpbench_trace.json" : trace;
  }
  // Accept both --trace-sample=64 and --trace-sample=1/64.
  const std::string sample = flags.GetString("trace-sample", "1");
  const std::string_view one_in =
      std::string_view(sample).substr(sample.rfind("1/", 0) == 0 ? 2 : 0);
  uint64_t sample_n = 1;
  if (!Flags::ParseUint(one_in, UINT32_MAX, &sample_n)) {
    flags.Fail("trace-sample", sample, "want N or 1/N");
  }
  config.trace_sample = static_cast<uint32_t>(std::max<uint64_t>(1, sample_n));
  // --metrics-every takes a duration: "500ms", "1s", or a bare ms count.
  const std::string every = flags.GetString("metrics-every", "0");
  std::string_view number = every;
  double ms_per_unit = 1.0;
  if (number.size() >= 2 && number.substr(number.size() - 2) == "ms") {
    number.remove_suffix(2);
  } else if (!number.empty() && number.back() == 's') {
    number.remove_suffix(1);
    ms_per_unit = 1000.0;
  }
  double every_ms = 0.0;
  if (!Flags::ParseDouble(number, &every_ms) || every_ms * ms_per_unit > UINT32_MAX) {
    flags.Fail("metrics-every", every, "want <number>, <number>ms or <number>s");
  } else if (every_ms * ms_per_unit > 0.0 && every_ms * ms_per_unit < 1.0) {
    flags.Fail("metrics-every", every, "want 0 or at least 1ms");
  } else {
    config.metrics_interval_ms = static_cast<uint32_t>(every_ms * ms_per_unit);
  }
  config.metrics_path = flags.GetString("metrics-out", "");
  const bool csv = flags.GetBool("csv", false);
  // Every flag has been read: refuse a malformed or unknown one before any
  // run time is spent.
  if (const std::string error = flags.Error(); !error.empty()) {
    std::fprintf(stderr, "fdpbench: %s (see --help)\n", error.c_str());
    return 2;
  }

  // Provisioning failures (e.g. tenants that do not fit the device), an
  // output target that cannot be opened or published to, and a snapshot or
  // trace that cannot be written throw; report them as a usage error rather
  // than crashing.
  std::unique_ptr<ExperimentRunner> runner;
  MetricsReport r;
  try {
    runner = std::make_unique<ExperimentRunner>(config);
    r = runner->Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdpbench: %s\n", e.what());
    return 2;
  }

  if (csv) {
    std::printf("workload,utilization,fdp,tenants,dlwa,alwa,hit,nvm_hit,kops,"
                "p99_read_us,p99_write_us,gc_events,gc_pages,energy_j,verify_failures\n");
    std::printf("%s,%.2f,%d,%u,%.4f,%.3f,%.4f,%.4f,%.2f,%.1f,%.1f,%llu,%llu,%.2f,%llu\n",
                workload.c_str(), config.utilization, config.fdp ? 1 : 0, config.num_tenants,
                r.final_dlwa, r.alwa, r.hit_ratio, r.nvm_hit_ratio, r.throughput_kops,
                r.p99_read_ns / 1e3, r.p99_write_ns / 1e3,
                static_cast<unsigned long long>(r.gc_events),
                static_cast<unsigned long long>(r.gc_relocated_pages),
                r.total_energy_uj / 1e6, static_cast<unsigned long long>(r.verify_failures));
    return 0;
  }

  // Self-describing header: which device implementation produced these
  // numbers, and what the kernel offers (so a "uring" run that silently fell
  // back to the thread pool is visible in the report).
  const char* engine = "virtual-clock";
  if (auto* uring = dynamic_cast<UringFileDevice*>(&runner->device())) {
    engine = uring->engine_name();
  } else if (config.backend == DeviceBackend::kFile) {
    engine = "sync";
  }
  std::printf("backend: %s (engine=%s%s%s); %s\n", DeviceBackendName(config.backend), engine,
              config.backend == DeviceBackend::kSim
                  ? ""
                  : (config.device_path.empty() ? ", path=<temp file>" : ", path="),
              config.backend == DeviceBackend::kSim || config.device_path.empty()
                  ? ""
                  : config.device_path.c_str(),
              UringFileDevice::KernelIoUringFeatureString().c_str());
  std::printf("deployment: %s, util=%.0f%%, %s, %u tenant(s), soc=%.0f%%, device=%s\n",
              workload.c_str(), config.utilization * 100,
              config.fdp ? "FDP" : "non-FDP", config.num_tenants,
              config.soc_fraction * 100, FormatBytes(r.device_physical_bytes).c_str());
  std::printf("cache: flash=%s ram=%s\n", FormatBytes(r.cache_bytes).c_str(),
              FormatBytes(r.ram_bytes).c_str());
  std::printf("%s\n", SummarizeReport("result", r).c_str());
  // Each detail section prints the --metrics-out samples under its prefixes.
  const std::vector<obs::MetricSample> samples = ReportSamples(r);
  if (config.queue_depth > 1 || config.queue_pairs > 1) {
    std::printf("device queue pairs (qd=%u, qps=%u):\n%s", config.queue_depth,
                config.queue_pairs, obs::RenderText(samples, "fdpcache_qp_").c_str());
  }
  if (config.cache_queue_depth > 1) {
    std::printf("cache-tier async ops at collection (cache-qd=%u):\n%s",
                config.cache_queue_depth, obs::RenderText(samples, "fdpcache_tenant_").c_str());
  }
  if (r.flush_failures != 0) {
    std::printf("WARNING: %llu flush barrier(s) reported failed flash writes "
                "(affected items degraded to misses)\n",
                static_cast<unsigned long long>(r.flush_failures));
  }
  if (!r.device_lanes.empty()) {
    std::printf("execution lanes (lanes=%u, stripe=%s):\n%s", config.exec_lanes,
                FormatBytes(config.lane_stripe_bytes != 0 ? config.lane_stripe_bytes
                                                          : ExperimentConfig::kLocRegionSize)
                    .c_str(),
                obs::RenderText(samples, "fdpcache_lane_").c_str());
    std::printf("die busy (for lane-vs-die cross-check):\n%s",
                obs::RenderText(samples, "fdpcache_die_").c_str());
  }
  if (config.gc_mode != GcMode::kOff) {
    std::printf("background GC (--gc=%s, %.1f overwrite passes done):\n%s%s%s", gc.c_str(),
                r.overwrite_passes_done, obs::RenderText(samples, "fdpcache_gc_").c_str(),
                obs::RenderText(samples, "fdpcache_host_").c_str(),
                obs::RenderText(samples, "fdpcache_ruh_").c_str());
  }
  if (r.traced) {
    std::printf("trace breakdown (--trace, 1/%u sampling%s%s):\n%s", config.trace_sample,
                config.trace_path.empty() ? "" : ", json=", config.trace_path.c_str(),
                obs::RenderText(samples, "fdpcache_trace_").c_str());
  }
  if (r.metrics_snapshots != 0) {
    const std::string every = " every " + std::to_string(config.metrics_interval_ms) + "ms";
    std::printf("metrics exposition: %llu snapshot(s)%s -> %s\n",
                static_cast<unsigned long long>(r.metrics_snapshots),
                config.metrics_interval_ms != 0 ? every.c_str() : "",
                config.metrics_path.empty() ? "fdpbench_metrics.prom"
                                            : config.metrics_path.c_str());
  }
  std::printf("interval DLWA:\n%s", FormatDlwaSeries("  ", r.interval_dlwa).c_str());
  std::printf("device: gc_events=%llu relocated_pages=%llu clean_erases=%llu energy=%.1f J\n",
              static_cast<unsigned long long>(r.gc_events),
              static_cast<unsigned long long>(r.gc_relocated_pages),
              static_cast<unsigned long long>(r.clean_ru_erases), r.total_energy_uj / 1e6);
  if (config.verify_values) {
    std::printf("verification: %llu failures\n",
                static_cast<unsigned long long>(r.verify_failures));
  }
  return 0;
}

}  // namespace
}  // namespace fdpcache

int main(int argc, char** argv) { return fdpcache::Run(argc, argv); }
