// Multi-tenant flash cache (paper §6.7): two CacheLib instances share one
// FDP SSD with no host overprovisioning. Each tenant gets its own page-aligned
// byte range of the one device and its own SOC/LOC reclaim unit handles from
// the shared allocator, keeping all four write streams physically isolated.
//
// Usage: ./build/examples/multi_tenant
#include <cstdio>

#include "src/harness/experiment.h"
#include "src/harness/report.h"

int main() {
  using namespace fdpcache;
  std::printf("Two tenants, WO KV Cache each, whole device used (no host OP)\n\n");
  for (const bool fdp : {true, false}) {
    ExperimentConfig config;
    config.fdp = fdp;
    config.utilization = 1.0;
    config.num_tenants = 2;
    config.workload = KvWorkloadConfig::WriteOnlyKvCache();
    config.total_ops = 250'000;
    config.max_warmup_ops = 3'000'000;
    ExperimentRunner runner(config);
    const MetricsReport r = runner.Run();
    std::printf("--- %s ---\n", fdp ? "FDP: tenants segregated onto RUHs 0-3" : "Non-FDP");
    std::printf("%s\n", SummarizeReport(fdp ? "fdp" : "non", r).c_str());
    std::printf("%s\n", FormatDlwaSeries("  ", r.interval_dlwa).c_str());

    // Show the placement: with FDP each tenant's SOC and LOC occupy disjoint
    // reclaim units (inspect RU ownership on the device).
    uint32_t owners_seen[8] = {};
    const NandGeometry& g = runner.ssd().config().geometry;
    for (uint32_t ru = 0; ru < g.num_superblocks; ++ru) {
      const ReclaimUnitInfo& info = runner.ssd().ftl().ru_info(ru);
      if (info.state != RuState::kFree && info.owner >= 0 && info.owner < 8) {
        ++owners_seen[info.owner];
      }
    }
    std::printf("reclaim units by owning RUH: ");
    for (int ruh = 0; ruh < 8; ++ruh) {
      if (owners_seen[ruh] > 0) {
        std::printf("ruh%d=%u ", ruh, owners_seen[ruh]);
      }
    }
    std::printf("\n\n");
  }
  return 0;
}
