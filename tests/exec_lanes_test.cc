// Execution lanes: the lane pool behind the queue-pair arbiter with
// die-affine routing, fed by QueuedDevice's conflict tracker. Covers
// overlapping write-write and trim-vs-write chains on one queue pair,
// disjoint requests genuinely executing in parallel, a 4-submitter x 4-lane
// stress with Drain() racing Submit() (run under TSan in CI), the
// lanes=0-is-bit-identical-to-the-inline-path check, lane stats surfacing
// (dispatch sums, busy time, ResetStats, conflict counters), and the two
// teardown/promotion hazards of a tracker that feeds a bounded pool:
// a promotion into its own full lane, and a teardown with work still parked.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/navy/queued_device.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kStripe = 64 * 1024;

SsdConfig TestSsd() {
  SsdConfig config;
  config.geometry.pages_per_block = 16;
  config.geometry.planes_per_die = 2;
  config.geometry.num_dies = 4;
  config.geometry.num_superblocks = 32;
  config.op_fraction = 0.25;
  return config;
}

// A QueuedDevice over a backend that records execution start/finish order
// and can hold executions at a gate: while the gate is closed, every
// execution that reaches the backend parks after announcing itself, so
// tests can observe which requests the lanes let run concurrently and which
// the conflict tracker held back.
class GatedLaneDevice final : public QueuedDevice {
 public:
  explicit GatedLaneDevice(const IoQueueConfig& config) : QueuedDevice(config) {}
  ~GatedLaneDevice() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tearing_down_ = true;
    }
    teardown_cv_.notify_all();
    if (!keep_gate_closed_on_destroy_) {
      OpenGate();
    }
    StopQueue();
  }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = false;
  }
  // Notifies under the lock: a teardown test opens the gate from another
  // thread while the destructor runs, and the condition variable must not
  // be touched after the last parked execution can leave.
  void OpenGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = true;
    gate_cv_.notify_all();
  }
  // Teardown tests: the destructor leaves the gate as it is, announces that
  // it has begun, and appends every finished offset to `log`, which outlives
  // the device.
  void KeepGateClosedOnDestroy(std::vector<uint64_t>* log) {
    std::lock_guard<std::mutex> lock(mu_);
    keep_gate_closed_on_destroy_ = true;
    finish_log_ = log;
  }
  bool WaitUntilTearingDown() {
    std::unique_lock<std::mutex> lock(mu_);
    return teardown_cv_.wait_for(lock, std::chrono::seconds(10),
                                 [this] { return tearing_down_; });
  }
  // Waits until at least `n` executions are parked at the closed gate.
  bool WaitUntilParked(uint32_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return parked_cv_.wait_for(lock, std::chrono::seconds(10),
                               [this, n] { return parked_ >= n; });
  }
  // True while an execution of a request starting at `offset` is parked.
  bool IsParked(uint64_t offset) const {
    std::lock_guard<std::mutex> lock(mu_);
    return parked_offsets_.count(offset) > 0;
  }
  bool HasStarted(uint64_t offset) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const uint64_t o : started_) {
      if (o == offset) {
        return true;
      }
    }
    return false;
  }
  std::vector<uint64_t> FinishOrder() const {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_;
  }

  uint64_t size_bytes() const override { return 64ull << 20; }
  uint64_t page_size() const override { return kPage; }

 protected:
  IoResult ExecuteWrite(uint64_t offset, const void*, uint64_t, PlacementHandle) override {
    return Gate(offset);
  }
  IoResult ExecuteRead(uint64_t offset, void*, uint64_t) override { return Gate(offset); }
  IoResult ExecuteTrim(uint64_t offset, uint64_t) override { return Gate(offset); }

 private:
  IoResult Gate(uint64_t offset) {
    std::unique_lock<std::mutex> lock(mu_);
    started_.push_back(offset);
    ++parked_;
    parked_offsets_.insert(offset);
    parked_cv_.notify_all();
    gate_cv_.wait(lock, [this] { return gate_open_; });
    --parked_;
    parked_offsets_.erase(offset);
    finished_.push_back(offset);
    if (finish_log_ != nullptr) {
      finish_log_->push_back(offset);
    }
    return IoResult{true, 1000};
  }

  mutable std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable parked_cv_;
  std::condition_variable teardown_cv_;
  bool gate_open_ = true;
  bool tearing_down_ = false;
  bool keep_gate_closed_on_destroy_ = false;
  std::vector<uint64_t>* finish_log_ = nullptr;
  uint32_t parked_ = 0;
  std::multiset<uint64_t> parked_offsets_;
  std::vector<uint64_t> started_;
  std::vector<uint64_t> finished_;
};

IoQueueConfig LaneConfig(uint32_t lanes, uint32_t qps = 1) {
  IoQueueConfig config;
  config.num_queue_pairs = qps;
  config.sq_depth = 64;
  config.exec_lanes = lanes;
  config.lane_stripe_bytes = kStripe;
  return config;
}

const uint8_t kZeros[2 * kStripe] = {0};

IoRequest WriteAt(uint64_t offset, uint64_t size, uint32_t qp = 0) {
  return IoRequest::MakeWrite(offset, kZeros, size, kNoPlacement, qp);
}

// Aborts the test binary when its scope outlives `seconds` of wall time, so
// a deadlock regression fails the run instead of hanging it.
class Deadline {
 public:
  Deadline(const char* what, int seconds) {
    watchdog_ = std::thread([this, what, seconds] { Watch(what, seconds); });
  }
  ~Deadline() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    watchdog_.join();
  }

 private:
  void Watch(const char* what, int seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(seconds), [this] { return done_; })) {
      std::fprintf(stderr, "deadline of %d s exceeded: %s\n", seconds, what);
      std::abort();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread watchdog_;
};

// Spins (with a deadline) until `pred` holds.
template <typename Pred>
bool Eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

uint64_t SumConflictDefers(const Device& device) {
  uint64_t sum = 0;
  for (const QueuePairStats& qp : device.PerQueuePairStats()) {
    sum += qp.conflict_defers;
  }
  return sum;
}

uint64_t SumConflictWaits(const Device& device) {
  uint64_t sum = 0;
  for (const LaneStats& lane : device.PerLaneStats()) {
    sum += lane.conflict_waits;
  }
  return sum;
}

size_t FinishPosition(const std::vector<uint64_t>& finish, uint64_t offset) {
  for (size_t i = 0; i < finish.size(); ++i) {
    if (finish[i] == offset) {
      return i;
    }
  }
  return finish.size();
}

// --- Conflict-tracker semantics (gated backend) ------------------------------

TEST(ExecLaneConflictTest, OverlappingWritesChainWhileDisjointWritesRunInParallel) {
  GatedLaneDevice device(LaneConfig(4));
  device.CloseGate();

  // W1 spans stripes 0+1 (routed to lane 0 by its first byte). W2 overlaps
  // W1's second stripe and routes to lane 1 — a cross-lane overlap only the
  // conflict tracker can order. W3 is disjoint on lane 3.
  const uint64_t w1 = 0;
  const uint64_t w2 = kStripe;
  const uint64_t w3 = 3 * kStripe;
  const CompletionToken t1 = device.Submit(WriteAt(w1, 2 * kStripe));
  ASSERT_TRUE(device.WaitUntilParked(1));
  const CompletionToken t2 = device.Submit(WriteAt(w2, kStripe));
  const CompletionToken t3 = device.Submit(WriteAt(w3, kStripe));

  // The disjoint write reaches its lane and starts executing while W1 is
  // still parked; the overlapping write must not start.
  ASSERT_TRUE(device.WaitUntilParked(2));
  EXPECT_TRUE(device.IsParked(w1));
  EXPECT_TRUE(device.IsParked(w3));
  EXPECT_FALSE(device.HasStarted(w2));

  device.OpenGate();
  EXPECT_TRUE(device.Wait(t1).ok);
  EXPECT_TRUE(device.Wait(t2).ok);
  EXPECT_TRUE(device.Wait(t3).ok);
  device.Drain();

  // W2 retired strictly after W1 (submission order), as the tracker chained
  // it behind W1's completion.
  const std::vector<uint64_t> finish = device.FinishOrder();
  const auto pos = [&finish](uint64_t offset) {
    for (size_t i = 0; i < finish.size(); ++i) {
      if (finish[i] == offset) {
        return i;
      }
    }
    return finish.size();
  };
  ASSERT_EQ(finish.size(), 3u);
  EXPECT_LT(pos(w1), pos(w2));
}

TEST(ExecLaneConflictTest, TrimChainsBehindOverlappingWriteAcrossLanes) {
  GatedLaneDevice device(LaneConfig(4));
  device.CloseGate();

  // Write spans stripes 0+1 (lane 0); the trim covers stripe 1 (lane 1) and
  // must wait even though the lanes differ.
  const CompletionToken tw = device.Submit(WriteAt(0, 2 * kStripe));
  ASSERT_TRUE(device.WaitUntilParked(1));
  const CompletionToken tt = device.Submit(IoRequest::MakeTrim(kStripe, kStripe));
  // Give the dispatcher a chance to hand the trim to lane 1; it must not
  // start while the overlapping write is parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(device.HasStarted(kStripe));

  device.OpenGate();
  EXPECT_TRUE(device.Wait(tw).ok);
  EXPECT_TRUE(device.Wait(tt).ok);
  device.Drain();

  const std::vector<uint64_t> finish = device.FinishOrder();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_EQ(finish[0], 0u);        // Write first,
  EXPECT_EQ(finish[1], kStripe);   // trim second: submission order.
}

TEST(ExecLaneConflictTest, DisjointRequestsOccupyAllLanesConcurrently) {
  GatedLaneDevice device(LaneConfig(4));
  device.CloseGate();
  std::vector<CompletionToken> tokens;
  for (uint32_t i = 0; i < 4; ++i) {
    tokens.push_back(device.Submit(WriteAt(i * kStripe, kStripe)));
  }
  // All four disjoint writes execute at once — four parked backend calls,
  // one per lane. The single-dispatcher inline path could never show more
  // than one.
  EXPECT_TRUE(device.WaitUntilParked(4));
  device.OpenGate();
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device.Wait(token).ok);
  }
  device.Drain();
}

TEST(ExecLaneConflictTest, SameQpOverlapsChainButCrossQpOverlapsDoNot) {
  GatedLaneDevice device(LaneConfig(4, /*qps=*/2));
  device.CloseGate();

  // QP0 writes stripes 0+1; a QP1 write overlapping stripe 1 is NOT ordered
  // against it (cross-QP ordering is the arbiter's business, exactly like
  // real NVMe) and runs concurrently.
  const CompletionToken t0 = device.Submit(WriteAt(0, 2 * kStripe, /*qp=*/0));
  ASSERT_TRUE(device.WaitUntilParked(1));
  const CompletionToken t1 = device.Submit(WriteAt(kStripe, kStripe, /*qp=*/1));
  EXPECT_TRUE(device.WaitUntilParked(2));
  EXPECT_TRUE(device.IsParked(0));
  EXPECT_TRUE(device.IsParked(kStripe));

  device.OpenGate();
  EXPECT_TRUE(device.Wait(t0).ok);
  EXPECT_TRUE(device.Wait(t1).ok);
  device.Drain();
}

// --- Congestion window (gated backend) ---------------------------------------

// The per-QP outstanding-bytes window must stop Submit() from over-filling
// the pipeline: with a 2-stripe window and stripe-sized writes, the third
// submission parks in Submit (counted as an admission wait) until a
// completion returns window bytes.
TEST(ExecLaneConflictTest, CongestionWindowParksThirdSubmitUntilCompletion) {
  IoQueueConfig config = LaneConfig(2);
  config.qp_window_bytes = 2 * kStripe;
  GatedLaneDevice device(config);
  device.CloseGate();

  std::vector<CompletionToken> tokens(3, kInvalidToken);
  std::atomic<uint32_t> submitted{0};
  std::thread submitter([&device, &tokens, &submitted] {
    for (uint32_t i = 0; i < 3; ++i) {
      tokens[i] = device.Submit(WriteAt(i * kStripe, kStripe));
      submitted.fetch_add(1);
    }
  });

  // Both admitted writes reach their lanes; the third submission must be
  // parked on the window, not the ring (sq_depth is 64).
  ASSERT_TRUE(device.WaitUntilParked(2));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (device.PerQueuePairStats()[0].admission_waits == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(device.PerQueuePairStats()[0].admission_waits, 1u);
  EXPECT_EQ(submitted.load(), 2u);
  EXPECT_FALSE(device.HasStarted(2 * kStripe));

  // Completions return window bytes and release the parked submitter.
  device.OpenGate();
  submitter.join();
  EXPECT_EQ(submitted.load(), 3u);
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device.Wait(token).ok);
  }
  device.Drain();
  EXPECT_EQ(device.stats().writes, 3u);
}

// --- Data-level ordering over the simulated SSD ------------------------------

class ExecLaneSimDeviceTest : public ::testing::Test {
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

// Write A over four pages, trim the third, rewrite it with B — all async on
// one queue pair with page-sized stripes, so every step routes to a
// different lane and only the conflict tracker keeps the sequence straight.
TEST_F(ExecLaneSimDeviceTest, TrimVsWriteSequenceResolvesInSubmissionOrder) {
  IoQueueConfig queue = LaneConfig(4);
  queue.lane_stripe_bytes = kPage;
  Rebuild(queue);

  const std::vector<uint8_t> a(4 * kPage, 0xaa);
  const std::vector<uint8_t> b(kPage, 0xbb);
  for (uint32_t round = 0; round < 16; ++round) {
    std::vector<CompletionToken> seq;
    seq.push_back(device_->Submit(
        IoRequest::MakeWrite(0, a.data(), 4 * kPage, kNoPlacement, 0)));
    seq.push_back(device_->Submit(IoRequest::MakeTrim(2 * kPage, kPage, 0)));
    seq.push_back(device_->Submit(
        IoRequest::MakeWrite(2 * kPage, b.data(), kPage, kNoPlacement, 0)));
    for (const CompletionToken token : seq) {
      ASSERT_TRUE(device_->Wait(token).ok);
    }
    std::vector<uint8_t> out(4 * kPage, 0);
    ASSERT_TRUE(device_->Read(0, out.data(), 4 * kPage));
    for (uint64_t i = 0; i < 4 * kPage; ++i) {
      const uint8_t expected = (i / kPage == 2) ? 0xbb : 0xaa;
      ASSERT_EQ(out[i], expected) << "round " << round << " byte " << i;
    }
  }
}

// 4 submitters x 4 lanes x 4 QPs with a Drain() thread hammering the
// barrier: the TSan target for the lane engine (enforced in CI's tsan job).
TEST_F(ExecLaneSimDeviceTest, FourSubmittersFourLanesSurviveDrainRacingSubmit) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kWritesPerThread = 250;
  IoQueueConfig queue = LaneConfig(4, kThreads);
  queue.sq_depth = 16;
  queue.lane_stripe_bytes = kPage;  // Page striping: every write hops lanes.
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
        // Offsets wrap every 6 pages while up to 8 writes are in flight, so
        // the stream constantly re-hits offsets it still has outstanding —
        // same-QP overlaps for the conflict tracker — while the page stripe
        // spreads them across lanes.
        const uint64_t offset = t * span + static_cast<uint64_t>(i % 6) * kPage;
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

  // Every arbitrated request went through exactly one lane.
  uint64_t lane_dispatches = 0;
  for (const LaneStats& lane : device_->PerLaneStats()) {
    lane_dispatches += lane.dispatches;
  }
  uint64_t qp_dispatches = 0;
  for (const QueuePairStats& qp : device_->PerQueuePairStats()) {
    qp_dispatches += qp.dispatched;
  }
  EXPECT_EQ(lane_dispatches, qp_dispatches);
}

// exec_lanes=0 must be the PR 3 inline pipeline, bit for bit: same data,
// same stats, same latency samples as a default-config device over an
// identical op sequence.
TEST_F(ExecLaneSimDeviceTest, LanesZeroIsBitIdenticalToInlineDispatcherPath) {
  auto run_sequence = [](SimulatedSsd* ssd, uint32_t nsid, VirtualClock* clock,
                         const IoQueueConfig& queue, std::vector<uint8_t>* readback,
                         DeviceStats* stats) {
    SimSsdDevice device(ssd, nsid, clock, queue);
    std::vector<uint8_t> data(2 * kPage);
    std::vector<CompletionToken> tokens;
    for (uint32_t i = 0; i < 64; ++i) {
      for (uint64_t b = 0; b < data.size(); ++b) {
        data[b] = static_cast<uint8_t>(i * 31 + b);
      }
      const uint64_t offset = static_cast<uint64_t>(i % 16) * 2 * kPage;
      tokens.push_back(device.Submit(
          IoRequest::MakeWrite(offset, data.data(), 2 * kPage, kNoPlacement, 0)));
      if (i % 8 == 7) {
        tokens.push_back(device.Submit(IoRequest::MakeTrim(offset, kPage, 0)));
      }
      for (const CompletionToken token : tokens) {
        ASSERT_TRUE(device.Wait(token).ok);
      }
      tokens.clear();
    }
    device.Drain();
    readback->assign(32 * kPage, 0);
    ASSERT_TRUE(device.Read(0, readback->data(), readback->size()));
    *stats = device.stats();
  };

  IoQueueConfig default_config;  // The pre-lane pipeline.
  IoQueueConfig lanes_zero;
  lanes_zero.exec_lanes = 0;
  lanes_zero.lane_stripe_bytes = kStripe;

  std::vector<uint8_t> readback_default;
  std::vector<uint8_t> readback_lanes0;
  DeviceStats stats_default;
  DeviceStats stats_lanes0;
  {
    SimulatedSsd ssd(TestSsd());
    const uint32_t nsid = *ssd.CreateNamespace(ssd.logical_capacity_bytes());
    VirtualClock clock;
    run_sequence(&ssd, nsid, &clock, default_config, &readback_default, &stats_default);
  }
  {
    SimulatedSsd ssd(TestSsd());
    const uint32_t nsid = *ssd.CreateNamespace(ssd.logical_capacity_bytes());
    VirtualClock clock;
    run_sequence(&ssd, nsid, &clock, lanes_zero, &readback_lanes0, &stats_lanes0);
  }

  EXPECT_EQ(readback_default, readback_lanes0);
  EXPECT_EQ(stats_default.writes, stats_lanes0.writes);
  EXPECT_EQ(stats_default.write_bytes, stats_lanes0.write_bytes);
  EXPECT_EQ(stats_default.trims, stats_lanes0.trims);
  EXPECT_EQ(stats_default.io_errors, stats_lanes0.io_errors);
  EXPECT_EQ(stats_default.write_latency_ns.Count(), stats_lanes0.write_latency_ns.Count());
  EXPECT_EQ(stats_default.write_latency_ns.Sum(), stats_lanes0.write_latency_ns.Sum());
}

TEST_F(ExecLaneSimDeviceTest, LaneStatsSurfaceAndReset) {
  Rebuild(LaneConfig(2));
  ASSERT_EQ(device_->PerLaneStats().size(), 2u);

  std::vector<uint8_t> data(kPage, 0x5a);
  std::vector<CompletionToken> tokens;
  for (uint32_t i = 0; i < 32; ++i) {
    tokens.push_back(device_->Submit(IoRequest::MakeWrite(
        static_cast<uint64_t>(i) * kStripe, data.data(), kPage, kNoPlacement, 0)));
  }
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device_->Wait(token).ok);
  }
  device_->Drain();

  const std::vector<LaneStats> lanes = device_->PerLaneStats();
  ASSERT_EQ(lanes.size(), 2u);
  // Consecutive stripes alternate lanes: an even split of the 32 writes.
  EXPECT_EQ(lanes[0].dispatches, 16u);
  EXPECT_EQ(lanes[1].dispatches, 16u);
  for (const LaneStats& lane : lanes) {
    EXPECT_GT(lane.busy_ns, 0u);  // Summed device-model latency.
    EXPECT_EQ(lane.queue_depth.Count(), lane.dispatches);
    EXPECT_EQ(lane.conflict_waits, 0u);  // All offsets disjoint.
  }

  // The inline path reports no lanes.
  Rebuild(LaneConfig(0));
  EXPECT_TRUE(device_->PerLaneStats().empty());

  // ResetStats clears lane counters alongside QP/aggregate ones.
  Rebuild(LaneConfig(2));
  EXPECT_TRUE(device_->Write(0, data.data(), kPage, kNoPlacement));
  device_->Drain();
  device_->ResetStats();
  for (const LaneStats& lane : device_->PerLaneStats()) {
    EXPECT_EQ(lane.dispatches + lane.conflict_waits + lane.busy_ns, 0u);
    EXPECT_EQ(lane.queue_depth.Count(), 0u);
  }
}

// --- Tracker counters and hazards (gated backend) ----------------------------

// The tracker parks an overlapping write while its predecessor is held at
// the gate; both counters record that one deferral, and the parked write
// retires after the one it waited on.
TEST(ExecLaneConflictTest, ConflictWaitCounterFiresOnOverlap) {
  GatedLaneDevice device(LaneConfig(4));
  device.CloseGate();
  const CompletionToken t1 = device.Submit(WriteAt(0, 2 * kStripe));
  ASSERT_TRUE(device.WaitUntilParked(1));
  const CompletionToken t2 = device.Submit(WriteAt(kStripe, kStripe));
  ASSERT_TRUE(Eventually([&device] { return SumConflictDefers(device) == 1; }));
  EXPECT_FALSE(device.HasStarted(kStripe));

  device.OpenGate();
  EXPECT_TRUE(device.Wait(t1).ok);
  EXPECT_TRUE(device.Wait(t2).ok);
  device.Drain();

  EXPECT_EQ(SumConflictDefers(device), 1u);
  EXPECT_EQ(SumConflictWaits(device), 1u);
  const std::vector<uint64_t> finish = device.FinishOrder();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_LT(FinishPosition(finish, 0), FinishPosition(finish, kStripe));
}

// A retirement promotes parked work from the completion context, here the
// worker of the very lane the promoted write routes to, while that lane's
// queue is full. The promotion must not wait for space its own worker would
// have to free.
TEST(ExecLaneConflictTest, PromotionIntoItsOwnFullLaneCompletes) {
  Deadline deadline("promotion into a full lane", 30);
  IoQueueConfig config = LaneConfig(1);
  config.sq_depth = 1;  // Also the lane queue bound.
  GatedLaneDevice device(config);
  device.CloseGate();

  const uint64_t w1 = 0;
  const uint64_t w2 = kPage;  // Overlaps W1.
  const uint64_t w3 = 4 * kStripe;
  const CompletionToken t1 = device.Submit(WriteAt(w1, 2 * kPage));
  ASSERT_TRUE(device.WaitUntilParked(1));
  const CompletionToken t2 = device.Submit(WriteAt(w2, kPage));
  ASSERT_TRUE(Eventually([&device] { return SumConflictDefers(device) == 1; }));
  const CompletionToken t3 = device.Submit(WriteAt(w3, kPage));
  // W3 sits in the single lane's queue behind the parked W1: the lane is full.
  ASSERT_TRUE(Eventually([&device] { return device.PerLaneStats()[0].dispatches == 2; }));

  device.OpenGate();
  EXPECT_TRUE(device.Wait(t1).ok);
  EXPECT_TRUE(device.Wait(t2).ok);
  EXPECT_TRUE(device.Wait(t3).ok);
  device.Drain();
  const std::vector<uint64_t> finish = device.FinishOrder();
  ASSERT_EQ(finish.size(), 3u);
  EXPECT_LT(FinishPosition(finish, w1), FinishPosition(finish, w2));
  EXPECT_EQ(SumConflictWaits(device), 1u);
}

// Teardown with a write parked behind a gated one: the gate opens only after
// the destructor has begun, so the retirement promotes the parked write into
// another, idle lane during StopQueue. Every lane must still be running then.
TEST(ExecLaneConflictTest, TeardownRunsWorkParkedBehindAGatedRequest) {
  Deadline deadline("teardown with parked work", 30);
  std::vector<uint64_t> finished;
  auto device = std::make_unique<GatedLaneDevice>(LaneConfig(2));
  device->CloseGate();

  // W1 spans stripes 0+1 and routes to lane 0; W2 overlaps stripe 1 and
  // routes to lane 1, whose worker has nothing else to do.
  device->Submit(WriteAt(0, 2 * kStripe));
  ASSERT_TRUE(device->WaitUntilParked(1));
  device->Submit(WriteAt(kStripe, kStripe));
  ASSERT_TRUE(Eventually([&device] { return SumConflictDefers(*device) == 1; }));

  device->KeepGateClosedOnDestroy(&finished);
  GatedLaneDevice* raw = device.get();
  std::thread opener([raw] {
    ASSERT_TRUE(raw->WaitUntilTearingDown());
    // Let StopQueue get past the dispatcher join before the gate opens.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    raw->OpenGate();
  });
  device.reset();
  opener.join();

  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[0], 0u);
  EXPECT_EQ(finished[1], kStripe);
}

}  // namespace
}  // namespace fdpcache
