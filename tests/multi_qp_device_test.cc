// Multi-queue-pair device pipeline: per-QP submission rings under one
// arbiter. Covers Drain() racing concurrent Submit() across queue pairs,
// round-robin dispatch order (observed at the backend), cross-QP token
// reaping, per-QP FIFO ordering, and per-QP stats summing to DeviceStats.
// Run under ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/navy/queued_device.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

constexpr uint64_t kPage = 4096;

SsdConfig TestSsd() {
  SsdConfig config;
  config.geometry.pages_per_block = 16;
  config.geometry.planes_per_die = 2;
  config.geometry.num_dies = 4;
  config.geometry.num_superblocks = 32;
  config.op_fraction = 0.25;
  return config;
}

// A QueuedDevice over a trivial backend that records the execution order of
// requests (queue pair decoded from the offset) and can gate the dispatcher:
// while the gate is closed every execution parks, letting tests backlog the
// submission rings and then observe pure arbitration order on release.
class InstrumentedDevice final : public QueuedDevice {
 public:
  // One "lane" of offsets per queue pair so executions self-identify.
  static constexpr uint64_t kLaneBytes = 1ull << 20;

  explicit InstrumentedDevice(const IoQueueConfig& config) : QueuedDevice(config) {}
  ~InstrumentedDevice() override {
    OpenGate();
    StopQueue();
  }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = false;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_open_ = true;
    }
    gate_cv_.notify_all();
  }
  // Waits until an execution is parked at the closed gate (i.e. the
  // dispatcher has popped a request and is inside the backend).
  bool WaitUntilParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return parked_cv_.wait_for(lock, std::chrono::seconds(10),
                               [this] { return parked_ > 0; });
  }

  struct Executed {
    uint32_t lane = 0;
  };
  std::vector<Executed> ExecutionOrder() const {
    std::lock_guard<std::mutex> lock(mu_);
    return executed_;
  }

  uint64_t size_bytes() const override { return 64 * kLaneBytes; }
  uint64_t page_size() const override { return kPage; }

  static uint64_t LaneOffset(uint32_t lane, uint32_t index) {
    return lane * kLaneBytes + static_cast<uint64_t>(index) * kPage;
  }

 protected:
  IoResult ExecuteWrite(uint64_t offset, const void*, uint64_t, PlacementHandle) override {
    return Gate(offset);
  }
  IoResult ExecuteRead(uint64_t offset, void*, uint64_t) override { return Gate(offset); }
  IoResult ExecuteTrim(uint64_t offset, uint64_t) override { return Gate(offset); }

 private:
  IoResult Gate(uint64_t offset) {
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    parked_cv_.notify_all();
    gate_cv_.wait(lock, [this] { return gate_open_; });
    --parked_;
    executed_.push_back(Executed{static_cast<uint32_t>(offset / kLaneBytes)});
    return IoResult{true, 100};
  }

  mutable std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable parked_cv_;
  bool gate_open_ = true;
  uint32_t parked_ = 0;
  std::vector<Executed> executed_;
};

IoRequest WriteOn(uint32_t qp, uint32_t index) {
  static const uint8_t payload[kPage] = {0};
  return IoRequest::MakeWrite(InstrumentedDevice::LaneOffset(qp, index), payload, kPage,
                              kNoPlacement, qp);
}

TEST(MultiQpArbitrationTest, RoundRobinAlternatesAcrossBackloggedQueuePairs) {
  IoQueueConfig config;
  config.num_queue_pairs = 2;
  config.sq_depth = 32;
  InstrumentedDevice device(config);

  device.CloseGate();
  std::vector<CompletionToken> tokens;
  tokens.push_back(device.Submit(WriteOn(0, 0)));
  ASSERT_TRUE(device.WaitUntilParked());
  // Backlog both rings while the dispatcher is parked on the first request.
  for (uint32_t i = 1; i < 4; ++i) {
    tokens.push_back(device.Submit(WriteOn(0, i)));
  }
  for (uint32_t i = 0; i < 4; ++i) {
    tokens.push_back(device.Submit(WriteOn(1, i)));
  }
  device.OpenGate();
  device.Drain();
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device.Wait(token).ok);
  }

  const auto order = device.ExecutionOrder();
  ASSERT_EQ(order.size(), 8u);
  // First dispatch happened before the backlog existed; from then on both
  // rings were non-empty, so RR strictly alternates: 0,1,0,1,...
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_EQ(order[i].lane, static_cast<uint32_t>(i % 2)) << "dispatch " << i;
  }
}

// --- Real-backend tests over the simulated SSD ------------------------------

class MultiQpSimDeviceTest : public ::testing::Test {
 protected:
  void Rebuild(IoQueueConfig queue) {
    device_.reset();
    ssd_ = std::make_unique<SimulatedSsd>(TestSsd());
    nsid_ = *ssd_->CreateNamespace(ssd_->logical_capacity_bytes());
    device_ = std::make_unique<SimSsdDevice>(ssd_.get(), nsid_, &clock_, queue);
  }

  VirtualClock clock_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::unique_ptr<SimSsdDevice> device_;
  uint32_t nsid_ = 0;
};

// Drain() must be a true barrier while submitters keep feeding all queue
// pairs: every Drain() return implies "everything submitted so far has
// executed", even though new requests land concurrently.
TEST_F(MultiQpSimDeviceTest, DrainRacesConcurrentSubmitAcrossQueuePairs) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kWritesPerThread = 300;
  IoQueueConfig queue;
  queue.num_queue_pairs = kThreads;
  queue.sq_depth = 16;
  Rebuild(queue);

  const uint64_t span = device_->size_bytes() / kThreads / kPage * kPage;
  std::atomic<uint32_t> failures{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> submitters;
  for (uint32_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([this, t, span, &failures] {
      std::vector<uint8_t> data(kPage, static_cast<uint8_t>(t + 1));
      std::vector<CompletionToken> window;
      for (uint32_t i = 0; i < kWritesPerThread; ++i) {
        const uint64_t offset = t * span + static_cast<uint64_t>(i % 128) * kPage;
        window.push_back(
            device_->Submit(IoRequest::MakeWrite(offset, data.data(), kPage, t + 1, t)));
        if (window.size() >= 8) {
          for (const CompletionToken token : window) {
            if (!device_->Wait(token).ok) {
              ++failures;
            }
          }
          window.clear();
        }
      }
      for (const CompletionToken token : window) {
        if (!device_->Wait(token).ok) {
          ++failures;
        }
      }
    });
  }
  // Drain in a tight loop against the submitting threads; each return is a
  // valid point-in-time barrier.
  std::thread drainer([this, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      device_->Drain();
      std::this_thread::yield();
    }
  });
  for (auto& submitter : submitters) {
    submitter.join();
  }
  done.store(true);
  drainer.join();
  device_->Drain();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(device_->InFlight(), 0u);
  EXPECT_EQ(device_->stats().writes, kThreads * kWritesPerThread);
}

TEST_F(MultiQpSimDeviceTest, WaitReapsTokenSubmittedOnDifferentQueuePair) {
  IoQueueConfig queue;
  queue.num_queue_pairs = 4;
  Rebuild(queue);

  // Submit on QP2 from one thread, reap from another that has no relation
  // to that queue pair: the token routes itself.
  std::vector<uint8_t> data(kPage, 0x42);
  CompletionToken token = kInvalidToken;
  std::thread submitter([this, &data, &token] {
    token = device_->Submit(IoRequest::MakeWrite(0, data.data(), kPage, kNoPlacement, /*qp=*/2));
  });
  submitter.join();
  ASSERT_NE(token, kInvalidToken);
  EXPECT_TRUE(device_->Wait(token).ok);
  // Already reaped: fails fast instead of blocking.
  EXPECT_FALSE(device_->Wait(token).ok);
  // A token naming a queue pair this device does not have can never
  // complete: fail fast on Wait, not-ready on Poll.
  const CompletionToken bogus = (static_cast<CompletionToken>(7) << 48) | 1;
  EXPECT_FALSE(device_->Wait(bogus).ok);
  EXPECT_FALSE(device_->Poll(bogus).has_value());
}

TEST_F(MultiQpSimDeviceTest, PerQueuePairFifoStillResolvesOverlappingTrimAndWrite) {
  IoQueueConfig queue;
  queue.num_queue_pairs = 2;
  Rebuild(queue);

  // Keep QP0 busy with unrelated traffic while QP1 runs the overlap
  // sequence; per-QP FIFO must resolve it exactly as submitted.
  const std::vector<uint8_t> a(kPage, 0xaa);
  const std::vector<uint8_t> b(kPage, 0xbb);
  std::vector<CompletionToken> noise;
  for (int i = 0; i < 8; ++i) {
    noise.push_back(device_->Submit(
        IoRequest::MakeWrite(static_cast<uint64_t>(16 + i) * kPage, a.data(), kPage,
                             kNoPlacement, /*qp=*/0)));
  }
  std::vector<CompletionToken> sequence;
  sequence.push_back(device_->Submit(IoRequest::MakeWrite(0, a.data(), kPage, kNoPlacement, 1)));
  sequence.push_back(device_->Submit(IoRequest::MakeTrim(0, kPage, 1)));
  sequence.push_back(device_->Submit(IoRequest::MakeWrite(0, b.data(), kPage, kNoPlacement, 1)));
  for (const CompletionToken token : sequence) {
    EXPECT_TRUE(device_->Wait(token).ok);
  }
  for (const CompletionToken token : noise) {
    EXPECT_TRUE(device_->Wait(token).ok);
  }
  std::vector<uint8_t> out(kPage, 0);
  ASSERT_TRUE(device_->Read(0, out.data(), kPage));
  EXPECT_EQ(out, b);  // Write B landed after the trim, like a real NVMe SQ.
}

TEST_F(MultiQpSimDeviceTest, PerQueuePairStatsSumToAggregateDeviceStats) {
  constexpr uint32_t kQps = 3;
  IoQueueConfig queue;
  queue.num_queue_pairs = kQps;
  Rebuild(queue);

  std::vector<uint8_t> data(kPage, 0x11);
  std::vector<uint8_t> out(kPage);
  std::vector<CompletionToken> tokens;
  for (uint32_t qp = 0; qp < kQps; ++qp) {
    for (uint32_t i = 0; i < 5 + qp; ++i) {
      tokens.push_back(device_->Submit(IoRequest::MakeWrite(
          (static_cast<uint64_t>(qp) * 64 + i) * kPage, data.data(), kPage, qp + 1, qp)));
    }
  }
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device_->Wait(token).ok);
  }
  // Mix in the sync shim (inline fast path) on QP1, a read, a trim, and an
  // invalid request (misaligned offset -> io_error) on QP2.
  EXPECT_TRUE(device_->Write(0, data.data(), kPage, kNoPlacement, 1));
  EXPECT_TRUE(device_->Read(0, out.data(), kPage, 1));
  EXPECT_TRUE(device_->Trim(63 * kPage, kPage, 2));
  EXPECT_FALSE(device_->Wait(device_->Submit(IoRequest::MakeWrite(7, data.data(), kPage,
                                                                  kNoPlacement, 2)))
                   .ok);
  device_->Drain();

  const DeviceStats aggregate = device_->stats();
  const std::vector<QueuePairStats> per_qp = device_->PerQueuePairStats();
  ASSERT_EQ(per_qp.size(), kQps);
  QueuePairStats sum;
  for (const QueuePairStats& qp : per_qp) {
    sum.Merge(qp);
  }
  EXPECT_EQ(sum.reads, aggregate.reads);
  EXPECT_EQ(sum.writes, aggregate.writes);
  EXPECT_EQ(sum.read_bytes, aggregate.read_bytes);
  EXPECT_EQ(sum.write_bytes, aggregate.write_bytes);
  EXPECT_EQ(sum.trims, aggregate.trims);
  EXPECT_EQ(sum.io_errors, aggregate.io_errors);
  EXPECT_EQ(sum.read_latency_ns.Count(), aggregate.read_latency_ns.Count());
  EXPECT_EQ(sum.write_latency_ns.Count(), aggregate.write_latency_ns.Count());
  // Every queue pair carried its share: 5/6/7 async writes respectively.
  EXPECT_EQ(per_qp[0].writes, 5u);
  EXPECT_GE(per_qp[1].writes, 6u);  // +1 sync-shim write (inline or queued).
  EXPECT_EQ(per_qp[2].writes, 7u);
  EXPECT_EQ(per_qp[2].io_errors, 1u);
  // Queue-depth histograms sampled one entry per Submit (inline SyncIo
  // bypasses the rings and records nothing).
  EXPECT_GE(per_qp[0].queue_depth.Count(), 5u);

  device_->ResetStats();
  for (const QueuePairStats& qp : device_->PerQueuePairStats()) {
    EXPECT_EQ(qp.writes + qp.reads + qp.trims + qp.io_errors + qp.dispatched, 0u);
  }
}

// Submitters on wrapped queue-pair ids (qp % num_queue_pairs) land on real
// queue pairs; placement isolation still holds per handle.
TEST_F(MultiQpSimDeviceTest, QueuePairIdsWrapModuloCount) {
  IoQueueConfig queue;
  queue.num_queue_pairs = 2;
  Rebuild(queue);
  std::vector<uint8_t> data(kPage, 0x33);
  // qp=5 wraps to QP1.
  const CompletionToken token =
      device_->Submit(IoRequest::MakeWrite(0, data.data(), kPage, kNoPlacement, /*qp=*/5));
  EXPECT_TRUE(device_->Wait(token).ok);
  const std::vector<QueuePairStats> per_qp = device_->PerQueuePairStats();
  ASSERT_EQ(per_qp.size(), 2u);
  EXPECT_EQ(per_qp[1].writes, 1u);
  EXPECT_EQ(per_qp[0].writes, 0u);
}

}  // namespace
}  // namespace fdpcache
