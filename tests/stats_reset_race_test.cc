// ResetStats racing completions on every executor: the inline SyncIo fast
// path, the dispatcher (Submit + Wait) and a 4-lane pool. Each completion is
// recorded once, in its queue pair's stats under that queue pair's lock, and
// ResetStats clears one queue pair at a time, so a reset lands wholly before
// or wholly after any completion. After the race, a known op mix must show
// up exactly once in stats() and in the per-QP stats it sums. Run under TSan
// in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/navy/queued_device.h"

namespace fdpcache {
namespace {

constexpr uint64_t kPage = 4096;

// Minimal synchronous backend: every request completes immediately with a
// fixed model latency, so the test exercises pure stats plumbing.
class CountingDevice final : public QueuedDevice {
 public:
  explicit CountingDevice(const IoQueueConfig& config) : QueuedDevice(config) {}
  ~CountingDevice() override { StopQueue(); }

  uint64_t size_bytes() const override { return 1ull << 30; }
  uint64_t page_size() const override { return kPage; }

 protected:
  IoResult ExecuteWrite(uint64_t, const void*, uint64_t, PlacementHandle) override {
    return IoResult{true, 100};
  }
  IoResult ExecuteRead(uint64_t, void*, uint64_t) override { return IoResult{true, 100}; }
  IoResult ExecuteTrim(uint64_t, uint64_t) override { return IoResult{true, 100}; }
};

// One executor under test: how requests are issued, and how many lanes run
// them.
struct Executor {
  const char* name;
  bool sync_io;  // SyncIo (inline when idle) or Submit + Wait (dispatcher).
  uint32_t exec_lanes;
};

void PrintTo(const Executor& executor, std::ostream* os) { *os << executor.name; }

class StatsResetRaceTest : public ::testing::TestWithParam<Executor> {
 protected:
  IoResult Issue(CountingDevice& device, const IoRequest& request) const {
    return GetParam().sync_io ? device.SyncIo(request) : device.Wait(device.Submit(request));
  }
};

TEST_P(StatsResetRaceTest, ResetRacingCompletionsKeepsViewsConsistent) {
  IoQueueConfig config;
  config.num_queue_pairs = 4;
  config.exec_lanes = GetParam().exec_lanes;
  CountingDevice device(config);

  // Phase 1 — the race: submitters hammer every queue pair through the
  // executor under test while the main thread resets statistics
  // concurrently. TSan validates the locking; the assertions below validate
  // the counters never tear.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> stop_resets{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([this, &device, t] {
      alignas(kPage) static thread_local uint8_t payload[kPage] = {0};
      uint8_t out[kPage];
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t offset = (static_cast<uint64_t>(t) * kOpsPerThread + i) * kPage;
        const uint32_t qp = static_cast<uint32_t>(t);
        if (i % 3 == 0) {
          Issue(device, IoRequest::MakeRead(offset % device.size_bytes(), out, kPage, qp));
        } else {
          Issue(device, IoRequest::MakeWrite(offset % device.size_bytes(), payload, kPage,
                                             kNoPlacement, qp));
        }
      }
    });
  }
  std::thread resetter([&device, &stop_resets] {
    while (!stop_resets.load(std::memory_order_relaxed)) {
      device.ResetStats();
      std::this_thread::yield();
    }
  });
  for (auto& t : submitters) {
    t.join();
  }
  stop_resets.store(true, std::memory_order_relaxed);
  resetter.join();
  device.Drain();

  // Phase 2 — exactness at quiescence: from a clean slate, issue a known op
  // mix and require stats() and the per-QP snapshots to count it EXACTLY
  // (counters and histogram populations): every completion recorded once.
  device.ResetStats();
  constexpr int kWrites = 120;
  constexpr int kReads = 60;
  alignas(kPage) static uint8_t payload[kPage] = {0};
  uint8_t out[kPage];
  for (int i = 0; i < kWrites; ++i) {
    const IoResult r = Issue(device, IoRequest::MakeWrite(
        static_cast<uint64_t>(i) * kPage, payload, kPage, kNoPlacement,
        static_cast<uint32_t>(i % config.num_queue_pairs)));
    ASSERT_TRUE(r.ok);
  }
  for (int i = 0; i < kReads; ++i) {
    const IoResult r = Issue(device, IoRequest::MakeRead(
        static_cast<uint64_t>(i) * kPage, out, kPage,
        static_cast<uint32_t>(i % config.num_queue_pairs)));
    ASSERT_TRUE(r.ok);
  }
  device.Drain();

  const DeviceStats aggregate = device.stats();
  EXPECT_EQ(aggregate.writes, static_cast<uint64_t>(kWrites));
  EXPECT_EQ(aggregate.reads, static_cast<uint64_t>(kReads));
  EXPECT_EQ(aggregate.write_bytes, static_cast<uint64_t>(kWrites) * kPage);
  EXPECT_EQ(aggregate.read_bytes, static_cast<uint64_t>(kReads) * kPage);
  EXPECT_EQ(aggregate.write_latency_ns.Count(), static_cast<uint64_t>(kWrites));
  EXPECT_EQ(aggregate.read_latency_ns.Count(), static_cast<uint64_t>(kReads));

  uint64_t qp_writes = 0;
  uint64_t qp_reads = 0;
  uint64_t qp_write_lat = 0;
  uint64_t qp_read_lat = 0;
  for (const QueuePairStats& qp : device.PerQueuePairStats()) {
    qp_writes += qp.writes;
    qp_reads += qp.reads;
    qp_write_lat += qp.write_latency_ns.Count();
    qp_read_lat += qp.read_latency_ns.Count();
  }
  EXPECT_EQ(qp_writes, aggregate.writes);
  EXPECT_EQ(qp_reads, aggregate.reads);
  EXPECT_EQ(qp_write_lat, aggregate.write_latency_ns.Count());
  EXPECT_EQ(qp_read_lat, aggregate.read_latency_ns.Count());
}

INSTANTIATE_TEST_SUITE_P(Executors, StatsResetRaceTest,
                         ::testing::Values(Executor{"SyncIo", true, 0},
                                           Executor{"Dispatcher", false, 0},
                                           Executor{"FourLanes", false, 4}),
                         [](const ::testing::TestParamInfo<Executor>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace fdpcache
