// Cross-module integration tests: determinism, the file-backed cache path,
// and end-to-end FDP accounting.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/cache/hybrid_cache.h"
#include "src/common/clock.h"
#include "src/harness/experiment.h"
#include "src/navy/file_device.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"
#include "src/workload/workload.h"

namespace fdpcache {
namespace {

TEST(IntegrationTest, ExperimentsAreDeterministic) {
  ExperimentConfig config;
  config.num_superblocks = 64;
  config.utilization = 1.0;
  config.total_ops = 40'000;
  config.max_warmup_ops = 400'000;
  config.seed = 7;
  ExperimentRunner a(config);
  ExperimentRunner b(config);
  const MetricsReport ra = a.Run();
  const MetricsReport rb = b.Run();
  EXPECT_DOUBLE_EQ(ra.final_dlwa, rb.final_dlwa);
  EXPECT_EQ(ra.gets, rb.gets);
  EXPECT_EQ(ra.sets, rb.sets);
  EXPECT_DOUBLE_EQ(ra.hit_ratio, rb.hit_ratio);
  EXPECT_EQ(ra.gc_relocated_pages, rb.gc_relocated_pages);
  EXPECT_EQ(ra.elapsed_virtual_ns, rb.elapsed_virtual_ns);
}

TEST(IntegrationTest, DifferentSeedsProduceDifferentRunsSameShape) {
  ExperimentConfig config;
  config.num_superblocks = 64;
  config.utilization = 1.0;
  config.total_ops = 40'000;
  config.max_warmup_ops = 400'000;
  config.seed = 1;
  ExperimentRunner a(config);
  config.seed = 2;
  ExperimentRunner b(config);
  const MetricsReport ra = a.Run();
  const MetricsReport rb = b.Run();
  EXPECT_NE(ra.host_bytes_written, rb.host_bytes_written);
  // Both seeds still satisfy the paper's FDP claim.
  EXPECT_LT(ra.final_dlwa, 1.3);
  EXPECT_LT(rb.final_dlwa, 1.3);
}

TEST(IntegrationTest, HybridCacheOnFileDevice) {
  const std::string path = testing::TempDir() + "/integration_cache.bin";
  FileDevice device(path, 32 * 1024 * 1024);
  ASSERT_TRUE(device.ok());
  PlacementHandleAllocator allocator(device);
  HybridCacheConfig config;
  config.ram_bytes = 64 * 1024;
  config.navy.soc_fraction = 0.10;
  config.navy.loc_region_size = 512 * 1024;
  HybridCache cache(&device, config, &allocator);
  // No FDP on files: default handles everywhere, behaviour unchanged.
  EXPECT_EQ(cache.navy().soc_handle(), kNoPlacement);
  EXPECT_EQ(cache.navy().loc_handle(), kNoPlacement);
  for (int i = 0; i < 5000; ++i) {
    cache.Set("k" + std::to_string(i), std::string(400, 'f'));
  }
  std::string value;
  int hits = 0;
  for (int i = 0; i < 5000; ++i) {
    if (cache.Get("k" + std::to_string(i), &value)) {
      ++hits;
      ASSERT_EQ(value, std::string(400, 'f'));
    }
  }
  EXPECT_GT(hits, 2000);
  std::remove(path.c_str());
}

TEST(IntegrationTest, HostBytesMatchDeviceLayerAccounting) {
  // The FDP statistics log's HBMW must equal the bytes the navy device layer
  // submitted — the two accounting paths never drift.
  SsdConfig ssd_config;
  ssd_config.geometry.pages_per_block = 16;
  ssd_config.geometry.planes_per_die = 2;
  ssd_config.geometry.num_dies = 4;
  ssd_config.geometry.num_superblocks = 32;
  ssd_config.op_fraction = 0.15;
  SimulatedSsd ssd(ssd_config);
  const uint32_t nsid = *ssd.CreateNamespace(ssd.logical_capacity_bytes());
  VirtualClock clock;
  SimSsdDevice device(&ssd, nsid, &clock);
  PlacementHandleAllocator allocator(device);
  HybridCacheConfig config;
  config.ram_bytes = 8 * 1024;
  config.navy.loc_region_size = 128 * 1024;
  HybridCache cache(&device, config, &allocator);
  for (int i = 0; i < 2000; ++i) {
    cache.Set("key" + std::to_string(i % 400),
              std::string(i % 7 == 0 ? 30000 : 300, 'd'));
  }
  EXPECT_EQ(ssd.GetFdpStatisticsLog().host_bytes_written, device.stats().write_bytes);
}

TEST(IntegrationTest, EventLogExplainsMediaWrites) {
  // MBMW - HBMW == relocated pages * page size: the event log and the
  // statistics log tell one consistent story.
  ExperimentConfig config;
  config.num_superblocks = 64;
  config.utilization = 1.0;
  config.fdp = false;  // Force GC activity.
  config.total_ops = 60'000;
  config.max_warmup_ops = 600'000;
  ExperimentRunner runner(config);
  runner.Run();
  const FdpStatistics stats = runner.ssd().GetFdpStatisticsLog();
  const uint64_t relocated_bytes =
      runner.ssd().ftl().counters().gc_relocated_pages * 4096;
  EXPECT_EQ(stats.media_bytes_written - stats.host_bytes_written, relocated_bytes);
}

}  // namespace
}  // namespace fdpcache
