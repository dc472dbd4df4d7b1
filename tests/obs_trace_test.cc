// Per-request trace engine tests (src/obs/trace.h): span integrity across
// the blocking and async cache paths (one request span per trace, children
// inside the request window), exact exclusive-interval attribution
// (attributed + unattributed == end-to-end by construction), deterministic
// 1-in-N sampling, chrome://tracing export, the ShardedCache shard-lock
// stage, the trace-on/off report-equality guarantee, and exactly one
// device_execute span per request on every device executor.
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/hybrid_cache.h"
#include "src/cache/sharded_cache.h"
#include "src/common/clock.h"
#include "src/harness/concurrent_replay.h"
#include "src/harness/experiment.h"
#include "src/navy/sim_ssd_device.h"
#include "src/navy/uring_file_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

// Every test drives the process-wide controller; scope enable/disable so a
// failing test cannot leak tracing into its neighbours.
class TracingSession {
 public:
  explicit TracingSession(uint32_t sample_every = 1) {
    obs::TraceController::Instance().Clear();
    obs::TraceController::Instance().Enable(sample_every);
  }
  ~TracingSession() { obs::TraceController::Instance().Disable(); }

  std::vector<obs::TraceEvent> Finish() {
    obs::TraceController::Instance().Disable();
    return obs::TraceController::Instance().Collect();
  }
};

class TracedHybridCacheTest : public ::testing::Test {
 protected:
  TracedHybridCacheTest() {
    SsdConfig ssd_config;
    ssd_config.geometry.pages_per_block = 16;
    ssd_config.geometry.planes_per_die = 2;
    ssd_config.geometry.num_dies = 4;
    ssd_config.geometry.num_superblocks = 32;
    ssd_config.op_fraction = 0.15;
    ssd_ = std::make_unique<SimulatedSsd>(ssd_config);
    nsid_ = *ssd_->CreateNamespace(ssd_->logical_capacity_bytes());
    device_ = std::make_unique<SimSsdDevice>(ssd_.get(), nsid_, &clock_);
    allocator_ = std::make_unique<PlacementHandleAllocator>(*device_);
  }

  std::unique_ptr<HybridCache> MakeCache(uint64_t ram_bytes, uint32_t inflight = 0) {
    HybridCacheConfig config;
    config.ram_bytes = ram_bytes;
    config.navy.small_item_max_bytes = 1024;
    config.navy.soc_fraction = 0.10;
    config.navy.loc_region_size = 128 * 1024;
    config.navy.loc_inflight_regions = inflight;
    config.navy.soc_inflight_writes = inflight;
    return std::make_unique<HybridCache>(device_.get(), config, allocator_.get());
  }

  VirtualClock clock_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::unique_ptr<SimSsdDevice> device_;
  std::unique_ptr<PlacementHandleAllocator> allocator_;
  uint32_t nsid_ = 0;
};

TEST_F(TracedHybridCacheTest, BlockingPathSpansAreWellNested) {
  TracingSession session(1);
  auto cache = MakeCache(2048);  // Tiny DRAM: Sets spill to flash.
  for (int i = 0; i < 60; ++i) {
    cache->Set("key" + std::to_string(i), std::string(200, 'a' + i % 26));
  }
  std::string value;
  for (int i = 0; i < 60; ++i) {
    cache->Get("key" + std::to_string(i), &value);
  }
  std::vector<obs::TraceEvent> events = session.Finish();
  obs::SynthesizeCompletionDelivery(&events);
  ASSERT_FALSE(events.empty());

  struct Window {
    uint64_t lo = 0;
    uint64_t hi = 0;
    int requests = 0;
  };
  std::unordered_map<uint64_t, Window> windows;
  for (const obs::TraceEvent& e : events) {
    EXPECT_GE(e.end_ns, e.start_ns);
    if (e.trace_id != 0 && e.stage == obs::TraceStage::kRequest) {
      Window& w = windows[e.trace_id];
      w.lo = e.start_ns;
      w.hi = e.end_ns;
      w.requests++;
    }
  }
  for (const auto& [id, w] : windows) {
    EXPECT_EQ(w.requests, 1) << "trace " << id << " has multiple request spans";
  }
  // Stage spans stay inside their owning request's window: the blocking path
  // runs start-to-finish under the request span, and the device dispatcher's
  // steady_clock timestamps are comparable across threads.
  size_t children = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.trace_id == 0 || e.stage == obs::TraceStage::kRequest) {
      continue;
    }
    const auto it = windows.find(e.trace_id);
    ASSERT_NE(it, windows.end()) << "orphan stage span";
    EXPECT_GE(e.start_ns, it->second.lo);
    EXPECT_LE(e.end_ns, it->second.hi);
    ++children;
  }
  EXPECT_GT(children, 0u);

  const obs::TraceBreakdown bd = obs::BuildTraceBreakdown(events);
  EXPECT_EQ(bd.requests, windows.size());
  // Exclusive-interval attribution is exact, not approximate.
  EXPECT_EQ(bd.attributed_ns + bd.unattributed_ns, bd.total_request_ns);
  EXPECT_GT(bd.stages[static_cast<size_t>(obs::TraceStage::kDeviceExecute)].spans, 0u);
  EXPECT_GT(bd.stages[static_cast<size_t>(obs::TraceStage::kRamProbe)].spans, 0u);
}

TEST_F(TracedHybridCacheTest, AsyncPathCarriesTraceAcrossParkAndDelivery) {
  TracingSession session(1);
  auto cache = MakeCache(2048, /*inflight=*/4);
  for (int i = 0; i < 80; ++i) {
    cache->InsertAsync("key" + std::to_string(i), std::string(200, 'x'), AsyncCallback{});
    cache->PumpAsync(/*blocking=*/false);
  }
  int hits = 0;
  for (int i = 0; i < 80; ++i) {
    cache->LookupAsync("key" + std::to_string(i), [&hits](AsyncResult r) {
      if (r.hit()) {
        ++hits;
      }
    });
    cache->PumpAsync(/*blocking=*/false);
  }
  cache->DrainAsync();
  std::vector<obs::TraceEvent> events = session.Finish();
  obs::SynthesizeCompletionDelivery(&events);

  const obs::TraceBreakdown bd = obs::BuildTraceBreakdown(events);
  EXPECT_GT(bd.requests, 0u);
  EXPECT_EQ(bd.attributed_ns + bd.unattributed_ns, bd.total_request_ns);
  // The park stage only exists on the async path: issue -> callback fired.
  EXPECT_GT(bd.stages[static_cast<size_t>(obs::TraceStage::kFlashPark)].spans, 0u);
  EXPECT_GT(bd.stages[static_cast<size_t>(obs::TraceStage::kDeviceExecute)].spans, 0u);
}

TEST_F(TracedHybridCacheTest, SamplingTracesExactlyOneInN) {
  TracingSession session(4);
  auto cache = MakeCache(1 << 20);  // All-RAM: every op is one request span.
  std::string value;
  for (int i = 0; i < 100; ++i) {
    cache->Set("k" + std::to_string(i), "v");
  }
  std::vector<obs::TraceEvent> events = session.Finish();
  std::set<uint64_t> traced;
  for (const obs::TraceEvent& e : events) {
    if (e.stage == obs::TraceStage::kRequest) {
      traced.insert(e.trace_id);
    }
  }
  // The per-thread sampling counter picks every 4th request of this thread's
  // stream: among any 100 consecutive requests, exactly 25 are sampled.
  EXPECT_EQ(traced.size(), 25u);
}

TEST(TraceBreakdownTest, ExclusiveAttributionChargesMostSpecificStage) {
  auto make = [](uint64_t id, obs::TraceStage stage, uint64_t lo, uint64_t hi) {
    obs::TraceEvent e;
    e.trace_id = id;
    e.stage = stage;
    e.start_ns = lo;
    e.end_ns = hi;
    return e;
  };
  const std::vector<obs::TraceEvent> events = {
      make(7, obs::TraceStage::kRequest, 100, 200),
      make(7, obs::TraceStage::kDeviceExecute, 120, 150),
      make(7, obs::TraceStage::kSqWait, 110, 130),     // Overlaps execute.
      make(7, obs::TraceStage::kFlashPark, 105, 160),  // Covers both.
  };
  const obs::TraceBreakdown bd = obs::BuildTraceBreakdown(events);
  EXPECT_EQ(bd.requests, 1u);
  EXPECT_EQ(bd.total_request_ns, 100u);
  // Device execute is most specific: it keeps its whole [120,150).
  EXPECT_EQ(bd.stages[static_cast<size_t>(obs::TraceStage::kDeviceExecute)].exclusive_ns, 30u);
  // SQ wait keeps only the part execute didn't claim: [110,120).
  EXPECT_EQ(bd.stages[static_cast<size_t>(obs::TraceStage::kSqWait)].exclusive_ns, 10u);
  // Flash park keeps the fringes: [105,110) + [150,160).
  EXPECT_EQ(bd.stages[static_cast<size_t>(obs::TraceStage::kFlashPark)].exclusive_ns, 15u);
  EXPECT_EQ(bd.attributed_ns, 55u);
  EXPECT_EQ(bd.unattributed_ns, 45u);
}

TEST(TraceExportTest, ChromeTraceJsonContainsStageNames) {
  obs::TraceEvent e;
  e.trace_id = 1;
  e.stage = obs::TraceStage::kDeviceExecute;
  e.start_ns = 1000;
  e.end_ns = 3000;
  const std::string path = ::testing::TempDir() + "/trace_export_test.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  ASSERT_TRUE(obs::WriteChromeTrace({e}, out));
  ASSERT_EQ(std::fclose(out), 0);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"device_execute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
}

TEST(TracedShardedCacheTest, ShardLockWaitStageRecorded) {
  ShardedBackendConfig config;
  config.num_shards = 2;
  config.topology = BackendTopology::kPerShardDevice;
  config.ssd.geometry.pages_per_block = 16;
  config.ssd.geometry.planes_per_die = 2;
  config.ssd.geometry.num_dies = 4;
  config.ssd.geometry.num_superblocks = 16;
  config.ssd.op_fraction = 0.15;
  config.cache.ram_bytes = 1 << 16;
  config.cache.navy.small_item_max_bytes = 1024;
  config.cache.navy.soc_fraction = 0.10;
  config.cache.navy.loc_region_size = 128 * 1024;
  ShardedSimBackend backend(config);

  TracingSession session(1);
  std::string value;
  for (int i = 0; i < 40; ++i) {
    backend.cache().Set("key" + std::to_string(i), "value");
    backend.cache().Get("key" + std::to_string(i), &value);
  }
  const std::vector<obs::TraceEvent> events = session.Finish();
  const obs::TraceBreakdown bd = obs::BuildTraceBreakdown(events);
  EXPECT_GT(bd.requests, 0u);
  EXPECT_GT(bd.stages[static_cast<size_t>(obs::TraceStage::kShardLockWait)].spans, 0u);
}

// The acceptance bar for satellite (c): enabling tracing must not move any
// virtual-time metric — stage spans are wall-clock only and the virtual
// clock never sees them. Byte-identical CSVs follow from these fields.
TEST(TraceReportEqualityTest, VirtualTimeMetricsIdenticalTraceOnAndOff) {
  ExperimentConfig config;
  config.num_superblocks = 64;
  config.total_ops = 30'000;
  config.max_warmup_ops = 200'000;
  config.dlwa_samples = 4;

  ExperimentConfig traced = config;
  traced.trace_enabled = true;
  traced.trace_sample = 1;

  ExperimentRunner plain_runner(config);
  const MetricsReport plain = plain_runner.Run();
  ExperimentRunner traced_runner(traced);
  const MetricsReport with_trace = traced_runner.Run();

  EXPECT_EQ(plain.ops_executed, with_trace.ops_executed);
  EXPECT_EQ(plain.elapsed_virtual_ns, with_trace.elapsed_virtual_ns);
  EXPECT_EQ(plain.host_bytes_written, with_trace.host_bytes_written);
  EXPECT_EQ(plain.gets, with_trace.gets);
  EXPECT_EQ(plain.sets, with_trace.sets);
  EXPECT_DOUBLE_EQ(plain.final_dlwa, with_trace.final_dlwa);
  EXPECT_DOUBLE_EQ(plain.hit_ratio, with_trace.hit_ratio);
  EXPECT_DOUBLE_EQ(plain.alwa, with_trace.alwa);

  EXPECT_FALSE(plain.traced);
  ASSERT_TRUE(with_trace.traced);
  EXPECT_GT(with_trace.trace.requests, 0u);
  EXPECT_EQ(with_trace.trace.attributed_ns + with_trace.trace.unattributed_ns,
            with_trace.trace.total_request_ns);
}

// --- device_execute on every executor ----------------------------------------

constexpr uint64_t kSpanPage = 4096;
constexpr uint32_t kSpanRequests = 64;
constexpr uint64_t kFirstSpanTraceId = 1000;

// A QueuedDevice whose blocking ops succeed at once. With `async` it runs
// the BeginExecute path: writes complete inside BeginExecute, reads are
// declined into the synchronous fallback.
class InstantDevice final : public QueuedDevice {
 public:
  InstantDevice(const IoQueueConfig& config, bool async) : QueuedDevice(config), async_(async) {}
  ~InstantDevice() override { StopQueue(); }

  uint64_t size_bytes() const override { return 1ull << 20; }
  uint64_t page_size() const override { return kSpanPage; }

 protected:
  IoResult ExecuteWrite(uint64_t, const void*, uint64_t, PlacementHandle) override {
    return IoResult{true, 1};
  }
  IoResult ExecuteRead(uint64_t, void*, uint64_t) override { return IoResult{true, 1}; }
  IoResult ExecuteTrim(uint64_t, uint64_t) override { return IoResult{true, 1}; }
  bool SupportsAsyncExecute() const override { return async_; }
  bool BeginExecute(const LaneTask& task) override {
    if (task.request.op == IoOp::kRead) {
      return false;
    }
    CompleteLaneTask(task, IoResult{true, 1});
    return true;
  }

 private:
  const bool async_;
};

// Submits kSpanRequests traced requests (every fourth a read) cycling over 16
// pages, so later requests overlap earlier ones still in flight and pass
// through the conflict tracker's park/promote path, then expects exactly one
// device_execute span per request.
void ExpectOneDeviceExecuteSpanPerRequest(Device& device) {
  std::vector<std::vector<uint8_t>> buffers(kSpanRequests, std::vector<uint8_t>(kSpanPage, 0x3c));
  TracingSession session(1);
  std::vector<CompletionToken> tokens;
  for (uint32_t i = 0; i < kSpanRequests; ++i) {
    const uint64_t offset = (i % 16) * kSpanPage;
    IoRequest request = IoRequest::MakeWrite(offset, buffers[i].data(), kSpanPage, kNoPlacement);
    if (i % 4 == 3) {
      request = IoRequest::MakeRead(offset, buffers[i].data(), kSpanPage);
    }
    request.trace_id = kFirstSpanTraceId + i;
    tokens.push_back(device.Submit(request));
  }
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device.Wait(token).ok);
  }
  device.Drain();
  std::unordered_map<uint64_t, uint32_t> spans;
  for (const obs::TraceEvent& event : session.Finish()) {
    if (event.stage == obs::TraceStage::kDeviceExecute) {
      ++spans[event.trace_id];
    }
  }
  EXPECT_EQ(spans.size(), kSpanRequests);
  for (uint32_t i = 0; i < kSpanRequests; ++i) {
    EXPECT_EQ(spans[kFirstSpanTraceId + i], 1u) << "request " << i;
  }
}

std::unique_ptr<UringFileDevice> MakeSpanFileDevice(const std::string& path, bool uring) {
  std::remove(path.c_str());
  UringFileDevice::Options options;
  options.backing.path = path;
  options.backing.size_bytes = 1 << 20;
  options.backing.page_size = kSpanPage;
  options.prefer_uring = uring;
  auto device = std::make_unique<UringFileDevice>(options, IoQueueConfig{});
  EXPECT_TRUE(device->ok()) << device->error();
  EXPECT_EQ(device->using_uring(), uring);
  return device;
}

TEST(DeviceExecuteSpanTest, InlineDispatcher) {
  InstantDevice device(IoQueueConfig{}, /*async=*/false);
  ExpectOneDeviceExecuteSpanPerRequest(device);
}

TEST(DeviceExecuteSpanTest, FourLanes) {
  IoQueueConfig config;
  config.exec_lanes = 4;
  config.lane_stripe_bytes = kSpanPage;
  InstantDevice device(config, /*async=*/false);
  ExpectOneDeviceExecuteSpanPerRequest(device);
}

TEST(DeviceExecuteSpanTest, BeginExecuteBackend) {
  InstantDevice device(IoQueueConfig{}, /*async=*/true);
  ExpectOneDeviceExecuteSpanPerRequest(device);
}

TEST(DeviceExecuteSpanTest, UringThreadPoolFallback) {
  const std::string path = testing::TempDir() + "/obs_span_pool.bin";
  {
    const std::unique_ptr<UringFileDevice> device = MakeSpanFileDevice(path, /*uring=*/false);
    ExpectOneDeviceExecuteSpanPerRequest(*device);
  }
  std::remove(path.c_str());
}

TEST(DeviceExecuteSpanTest, UringRing) {
  if (!UringFileDevice::KernelSupportsIoUring()) {
    GTEST_SKIP() << "io_uring unavailable: " << UringFileDevice::KernelIoUringFeatureString();
  }
  const std::string path = testing::TempDir() + "/obs_span_ring.bin";
  {
    const std::unique_ptr<UringFileDevice> device = MakeSpanFileDevice(path, /*uring=*/true);
    ExpectOneDeviceExecuteSpanPerRequest(*device);
  }
  std::remove(path.c_str());
}

TEST(TraceDisabledTest, NoSpansWhenTracingOff) {
  obs::TraceController::Instance().Clear();
  ASSERT_FALSE(obs::TraceController::Instance().enabled());
  const obs::RequestSpan span = obs::BeginRequestSpanIfIdle();
  EXPECT_FALSE(static_cast<bool>(span));
  EXPECT_TRUE(obs::TraceController::Instance().Collect().empty());
}

}  // namespace
}  // namespace fdpcache
