// Latency/queueing model tests: GC traffic must inflate host tail latency.
#include <gtest/gtest.h>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/ssd/die_scheduler.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

TEST(DieSchedulerTest, IdleDieServicesImmediately) {
  DieScheduler dies(4);
  EXPECT_EQ(dies.Schedule(0, 1000, 500), 1500u);
  EXPECT_EQ(dies.busy_until(0), 1500u);
}

TEST(DieSchedulerTest, BusyDieQueues) {
  DieScheduler dies(2);
  dies.Schedule(0, 0, 1000);
  EXPECT_EQ(dies.Schedule(0, 100, 500), 1500u);  // Waits behind the first op.
  EXPECT_EQ(dies.Schedule(1, 100, 500), 600u);   // Other die is idle.
}

TEST(DieSchedulerTest, LateArrivalStartsAtArrival) {
  DieScheduler dies(1);
  dies.Schedule(0, 0, 100);
  EXPECT_EQ(dies.Schedule(0, 5000, 100), 5100u);
}

TEST(DieSchedulerTest, BusyAccounting) {
  DieScheduler dies(2);
  dies.Schedule(0, 0, 100);
  dies.Schedule(1, 0, 250);
  EXPECT_EQ(dies.busy_ns(0), 100u);
  EXPECT_EQ(dies.busy_ns(1), 250u);
  EXPECT_EQ(dies.busy_until(0), 100u);
  EXPECT_EQ(dies.MaxBusyUntil(), 250u);
  dies.Reset();
  EXPECT_EQ(dies.busy_ns(0), 0u);
  EXPECT_EQ(dies.busy_ns(1), 0u);
  EXPECT_EQ(dies.MaxBusyUntil(), 0u);
}

SsdConfig LatencySsd() {
  SsdConfig config;
  config.geometry.pages_per_block = 16;
  config.geometry.planes_per_die = 2;
  config.geometry.num_dies = 4;
  config.geometry.num_superblocks = 32;
  config.fdp = FdpConfig::Uniform(2, RuhType::kInitiallyIsolated);
  config.op_fraction = 0.20;
  return config;
}

TEST(SsdLatencyTest, SingleWriteCostsProgramPlusTransfer) {
  SimulatedSsd ssd(LatencySsd());
  ASSERT_TRUE(ssd.CreateNamespace(ssd.logical_capacity_bytes()).has_value());
  std::vector<uint8_t> data(4096, 1);
  const auto wc = ssd.Write(1, 0, 1, data.data(), DirectiveType::kNone, 0, 0);
  EXPECT_EQ(wc.latency(),
            LatencySsd().timing.program_page_ns + LatencySsd().timing.transfer_page_ns);
}

TEST(SsdLatencyTest, SingleReadCostsReadPlusTransfer) {
  SimulatedSsd ssd(LatencySsd());
  ASSERT_TRUE(ssd.CreateNamespace(ssd.logical_capacity_bytes()).has_value());
  std::vector<uint8_t> data(4096, 1);
  const auto wc = ssd.Write(1, 0, 1, data.data(), DirectiveType::kNone, 0, 0);
  const auto rc = ssd.Read(1, 0, 1, data.data(), wc.completed_at);
  EXPECT_EQ(rc.latency(),
            LatencySsd().timing.read_page_ns + LatencySsd().timing.transfer_page_ns);
}

TEST(SsdLatencyTest, MultiPageWritesOverlapAcrossDies) {
  SimulatedSsd ssd(LatencySsd());
  ASSERT_TRUE(ssd.CreateNamespace(ssd.logical_capacity_bytes()).has_value());
  std::vector<uint8_t> data(4 * 4096, 1);
  // Four pages stripe over four distinct dies: latency ~ one program, not 4.
  const auto wc = ssd.Write(1, 0, 4, data.data(), DirectiveType::kNone, 0, 0);
  EXPECT_LT(wc.latency(), 2 * LatencySsd().timing.program_page_ns);
}

TEST(SsdLatencyTest, GcInflatesTailLatency) {
  // Random churn at high utilization forces GC; host ops queue behind GC
  // reads/programs/erases and p99 grows well beyond the no-GC baseline.
  SsdConfig config = LatencySsd();
  SimulatedSsd ssd(config);
  ASSERT_TRUE(ssd.CreateNamespace(ssd.logical_capacity_bytes()).has_value());
  const uint64_t pages = ssd.logical_capacity_bytes() / 4096;
  std::vector<uint8_t> data(4096, 7);
  Rng rng(5);
  Histogram warm;
  Histogram churn;
  TimeNs now = 0;
  // Phase 1: first fill; no GC yet.
  for (uint64_t i = 0; i < pages; ++i) {
    const auto wc = ssd.Write(1, i, 1, data.data(), DirectiveType::kNone, 0, now);
    warm.Record(wc.latency());
    now = std::max(now + 10 * kMicrosecond, wc.completed_at);
  }
  ASSERT_EQ(ssd.Telemetry(0).ftl.gc_relocated_pages, 0u);
  // Phase 2: random churn with GC.
  for (uint64_t i = 0; i < pages * 6; ++i) {
    const auto wc =
        ssd.Write(1, rng.NextBelow(pages), 1, data.data(), DirectiveType::kNone, 0, now);
    churn.Record(wc.latency());
    now = std::max(now + 10 * kMicrosecond, wc.completed_at);
  }
  ASSERT_GT(ssd.Telemetry(0).ftl.gc_relocated_pages, 0u);
  EXPECT_GT(churn.Percentile(99), warm.Percentile(99));
}

TEST(SsdLatencyTest, BackToBackWritesQueueOnSameDieStream) {
  SimulatedSsd ssd(LatencySsd());
  ASSERT_TRUE(ssd.CreateNamespace(ssd.logical_capacity_bytes()).has_value());
  std::vector<uint8_t> data(4096, 1);
  // Submit writes at t=0 faster than a die can drain; completions must be
  // strictly increasing (FIFO per die).
  TimeNs prev = 0;
  for (int i = 0; i < 16; ++i) {
    const auto wc = ssd.Write(1, i, 1, data.data(), DirectiveType::kNone, 0, 0);
    if (i > 0 && i % 4 == 0) {
      // Every 4th write wraps to a die already used (4 dies, 8 blocks/RU).
      EXPECT_GT(wc.completed_at, prev - 1);
    }
    prev = wc.completed_at;
  }
  EXPECT_GT(ssd.MaxDieBusyUntil(), 0u);
}

}  // namespace
}  // namespace fdpcache
