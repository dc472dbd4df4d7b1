// Async device pipeline: Submit/Poll/Wait/Drain semantics, submission-order
// execution (trim-vs-write overlap), backpressure/queue-depth accounting,
// concurrent submitters against one shared SSD, stats safety while I/O is in
// flight, and the async LOC/SOC write paths (in-flight buffer reads, failed
// write degradation). Run under ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/navy/file_device.h"
#include "src/navy/loc.h"
#include "src/navy/sim_ssd_device.h"
#include "src/navy/soc.h"
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

class AsyncSimDeviceTest : public ::testing::Test {
 protected:
  explicit AsyncSimDeviceTest() { Rebuild(IoQueueConfig{}); }

  void Rebuild(const IoQueueConfig& queue) {
    device_.reset();
    ssd_ = std::make_unique<SimulatedSsd>(TestSsd());
    nsid_ = *ssd_->CreateNamespace(ssd_->logical_capacity_bytes());
    device_ = std::make_unique<SimSsdDevice>(ssd_.get(), nsid_, &clock_, queue);
  }

  std::vector<uint8_t> Page(uint8_t fill) { return std::vector<uint8_t>(kPage, fill); }

  VirtualClock clock_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::unique_ptr<SimSsdDevice> device_;
  uint32_t nsid_ = 0;
};

TEST_F(AsyncSimDeviceTest, SubmitWaitRoundTrip) {
  const std::vector<uint8_t> data = Page(0x5a);
  const CompletionToken write_token =
      device_->Submit(IoRequest::MakeWrite(0, data.data(), kPage, kNoPlacement));
  ASSERT_NE(write_token, kInvalidToken);
  const IoResult write_result = device_->Wait(write_token);
  EXPECT_TRUE(write_result.ok);
  EXPECT_GT(write_result.latency_ns, 0u);

  std::vector<uint8_t> out(kPage, 0);
  const IoResult read_result =
      device_->Wait(device_->Submit(IoRequest::MakeRead(0, out.data(), kPage)));
  EXPECT_TRUE(read_result.ok);
  EXPECT_EQ(out, data);
}

TEST_F(AsyncSimDeviceTest, PollReapsExactlyOnce) {
  const std::vector<uint8_t> data = Page(1);
  const CompletionToken token =
      device_->Submit(IoRequest::MakeWrite(0, data.data(), kPage, kNoPlacement));
  device_->Drain();  // Executed, but not reaped: the completion is parked.
  const std::optional<IoResult> first = device_->Poll(token);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok);
  EXPECT_FALSE(device_->Poll(token).has_value());  // A token reaps once.
}

TEST_F(AsyncSimDeviceTest, WaitOnUnknownTokenFailsFastInsteadOfHanging) {
  EXPECT_FALSE(device_->Wait(kInvalidToken).ok);
  const std::vector<uint8_t> data = Page(1);
  const CompletionToken token =
      device_->Submit(IoRequest::MakeWrite(0, data.data(), kPage, kNoPlacement));
  EXPECT_TRUE(device_->Wait(token).ok);
  EXPECT_FALSE(device_->Wait(token).ok);  // Already reaped: error, not deadlock.
  EXPECT_FALSE(device_->Wait(token + 1000).ok);  // Never submitted.
}

TEST_F(AsyncSimDeviceTest, InvalidRequestCompletesWithError) {
  const std::vector<uint8_t> data = Page(1);
  // Misaligned offset: the request still flows through the queue and must be
  // reaped like any other, completing with ok=false.
  const IoResult result =
      device_->Wait(device_->Submit(IoRequest::MakeWrite(100, data.data(), kPage, kNoPlacement)));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(device_->stats().io_errors, 1u);
}

TEST_F(AsyncSimDeviceTest, SubmissionOrderResolvesOverlappingTrimAndWrite) {
  const std::vector<uint8_t> a = Page(0xaa);
  const std::vector<uint8_t> b = Page(0xbb);
  // write A, trim, write B — all to the same page, reaped only at the end.
  std::vector<CompletionToken> tokens;
  tokens.push_back(device_->Submit(IoRequest::MakeWrite(0, a.data(), kPage, kNoPlacement)));
  tokens.push_back(device_->Submit(IoRequest::MakeTrim(0, kPage)));
  tokens.push_back(device_->Submit(IoRequest::MakeWrite(0, b.data(), kPage, kNoPlacement)));
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device_->Wait(token).ok);
  }
  std::vector<uint8_t> out(kPage, 0);
  ASSERT_TRUE(device_->Read(0, out.data(), kPage));
  EXPECT_EQ(out, b);  // FIFO execution: B landed after the trim.

  // ...and the mirror image: a trim submitted last wins over the write.
  const CompletionToken w =
      device_->Submit(IoRequest::MakeWrite(kPage, a.data(), kPage, kNoPlacement));
  const CompletionToken t = device_->Submit(IoRequest::MakeTrim(kPage, kPage));
  EXPECT_TRUE(device_->Wait(w).ok);
  EXPECT_TRUE(device_->Wait(t).ok);
  ASSERT_TRUE(device_->Read(kPage, out.data(), kPage));
  EXPECT_EQ(out, std::vector<uint8_t>(kPage, 0));  // Deallocated reads as zeroes.
}

TEST_F(AsyncSimDeviceTest, QueueDepthBoundsInFlight) {
  IoQueueConfig queue;
  queue.sq_depth = 2;
  Rebuild(queue);
  const std::vector<uint8_t> data = Page(7);
  std::vector<CompletionToken> tokens;
  for (int i = 0; i < 32; ++i) {
    tokens.push_back(device_->Submit(
        IoRequest::MakeWrite(static_cast<uint64_t>(i) * kPage, data.data(), kPage, kNoPlacement)));
    // Ring capacity 2 plus at most one request being executed.
    EXPECT_LE(device_->InFlight(), 3u);
  }
  device_->Drain();
  EXPECT_EQ(device_->InFlight(), 0u);
  for (const CompletionToken token : tokens) {
    const std::optional<IoResult> result = device_->Poll(token);
    ASSERT_TRUE(result.has_value());
    EXPECT_TRUE(result->ok);
  }
  EXPECT_EQ(device_->stats().writes, 32u);
}

TEST_F(AsyncSimDeviceTest, SyncShimStillWorksAndLeavesNothingInFlight) {
  std::vector<uint8_t> data = Page(3);
  ASSERT_TRUE(device_->Write(0, data.data(), kPage, kNoPlacement));
  ASSERT_TRUE(device_->Read(0, data.data(), kPage));
  ASSERT_TRUE(device_->Trim(0, kPage));
  EXPECT_EQ(device_->InFlight(), 0u);
  const DeviceStats stats = device_->stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.trims, 1u);
}

// 4 submitter threads share ONE device over ONE SSD, each writing its own
// offset range with its own placement handle through a mix of async windows
// and the sync shim. Everything must land, FTL invariants must hold, and
// host reclaim units must stay single-origin (per-RUH isolation).
TEST_F(AsyncSimDeviceTest, ConcurrentSubmittersKeepRuhIsolation) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kWritesPerThread = 200;
  const uint64_t span = device_->size_bytes() / kThreads / kPage * kPage;
  ASSERT_GE(span, kWritesPerThread * kPage);

  std::vector<std::thread> workers;
  std::atomic<uint32_t> failures{0};
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t, span, &failures] {
      const PlacementHandle handle = t + 1;  // Distinct RUH per thread.
      std::vector<uint8_t> data(kPage, static_cast<uint8_t>(0x10 + t));
      std::vector<CompletionToken> window;
      for (uint32_t i = 0; i < kWritesPerThread; ++i) {
        const uint64_t offset = t * span + static_cast<uint64_t>(i) * kPage;
        if (i % 4 == 0) {
          // Sync shim interleaved with async submissions.
          if (!device_->Write(offset, data.data(), kPage, handle)) {
            ++failures;
          }
        } else {
          window.push_back(
              device_->Submit(IoRequest::MakeWrite(offset, data.data(), kPage, handle)));
          if (window.size() >= 8) {
            for (const CompletionToken token : window) {
              if (!device_->Wait(token).ok) {
                ++failures;
              }
            }
            window.clear();
          }
        }
      }
      for (const CompletionToken token : window) {
        if (!device_->Wait(token).ok) {
          ++failures;
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  device_->Drain();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(device_->stats().writes, kThreads * kWritesPerThread);

  // Every thread's pages read back with its fill byte.
  std::vector<uint8_t> out(kPage);
  for (uint32_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(device_->Read(t * span, out.data(), kPage));
    EXPECT_EQ(out[0], static_cast<uint8_t>(0x10 + t)) << "thread " << t;
  }

  // Device-level invariants and per-RUH isolation: host RUs (not GC
  // destinations) must hold pages from exactly one origin RUH.
  const Ftl& ftl = ssd_->ftl();
  EXPECT_EQ(ftl.CheckInvariants(), "");
  const uint32_t num_rus = ssd_->config().geometry.num_superblocks;
  for (uint32_t ru = 0; ru < num_rus; ++ru) {
    const ReclaimUnitInfo& info = ftl.ru_info(ru);
    if (info.state == RuState::kFree || info.is_gc_destination || info.owner < 0) {
      continue;
    }
    EXPECT_LE(ftl.RuOriginMixCount(ru), 1u) << "ru " << ru << " mixes origins";
  }
}

TEST_F(AsyncSimDeviceTest, StatsAndResetAreSafeWhileInFlight) {
  constexpr uint32_t kWriters = 2;
  constexpr uint32_t kWritesPerThread = 300;
  std::atomic<bool> stop{false};

  // A reader hammering the stats snapshot (and occasionally resetting) while
  // writers keep the pipeline busy; TSan in CI proves the absence of races.
  std::thread reader([this, &stop] {
    uint64_t sink = 0;
    int iterations = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const DeviceStats snapshot = device_->stats();
      sink += snapshot.writes + snapshot.write_bytes + snapshot.write_latency_ns.Count();
      if (++iterations % 64 == 0) {
        device_->ResetStats();
      }
      std::this_thread::yield();
    }
    EXPECT_GE(sink, 0u);
  });

  std::vector<std::thread> writers;
  const uint64_t span = device_->size_bytes() / kWriters / kPage * kPage;
  for (uint32_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([this, t, span] {
      std::vector<uint8_t> data(kPage, static_cast<uint8_t>(t));
      for (uint32_t i = 0; i < kWritesPerThread; ++i) {
        const uint64_t offset = t * span + static_cast<uint64_t>(i % 64) * kPage;
        device_->Wait(device_->Submit(IoRequest::MakeWrite(offset, data.data(), kPage, t + 1)));
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  stop.store(true);
  reader.join();
  device_->Drain();
  // Counters survived the concurrent resets without corruption; the exact
  // value depends on reset timing, but never exceeds the true total.
  EXPECT_LE(device_->stats().writes, kWriters * kWritesPerThread);
}

TEST(AsyncFileDeviceTest, SubmitWaitAndOrderingOnFiles) {
  const std::string path = testing::TempDir() + "/fdp_async_file_device.bin";
  FileDevice device(path, 1 * 1024 * 1024);
  ASSERT_TRUE(device.ok());
  const std::vector<uint8_t> a(kPage, 0x11);
  const std::vector<uint8_t> b(kPage, 0x22);
  const CompletionToken t1 =
      device.Submit(IoRequest::MakeWrite(0, a.data(), kPage, kNoPlacement));
  const CompletionToken t2 =
      device.Submit(IoRequest::MakeWrite(0, b.data(), kPage, kNoPlacement));
  EXPECT_TRUE(device.Wait(t1).ok);
  EXPECT_TRUE(device.Wait(t2).ok);
  std::vector<uint8_t> out(kPage, 0);
  ASSERT_TRUE(device.Read(0, out.data(), kPage));
  EXPECT_EQ(out, b);
  std::remove(path.c_str());
}

// --- Async LOC: in-flight region ring ---------------------------------------

class AsyncLocTest : public AsyncSimDeviceTest {};

TEST_F(AsyncLocTest, SealedRegionReadsServedFromInFlightBuffer) {
  LocConfig config;
  config.size_bytes = 8 * 128 * 1024;
  config.region_size = 128 * 1024;
  config.inflight_regions = 4;
  LargeObjectCache loc(device_.get(), config);

  // Fill past one region so the first region seals asynchronously.
  const std::string value(60000, 'v');
  ASSERT_TRUE(loc.Insert("a", value));
  ASSERT_TRUE(loc.Insert("b", value));
  ASSERT_TRUE(loc.Insert("c", value));  // Region 0 (a, b) seals here.
  ASSERT_GE(loc.stats().regions_sealed, 1u);
  ASSERT_GE(loc.InFlightRegions(), 1u);

  // "a" lives in the sealed-but-unretired region: served from the ring
  // buffer, not the device.
  const uint64_t reads_before = device_->stats().reads;
  const auto hit = loc.Lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, value);
  EXPECT_EQ(device_->stats().reads, reads_before);
  EXPECT_GE(loc.stats().inflight_buffer_hits, 1u);

  // After the flush barrier the same item comes from the device.
  ASSERT_TRUE(loc.Flush());
  EXPECT_EQ(loc.InFlightRegions(), 0u);
  const auto flash_hit = loc.Lookup("a");
  ASSERT_TRUE(flash_hit.has_value());
  EXPECT_EQ(*flash_hit, value);
  EXPECT_GT(device_->stats().reads, reads_before);
}

TEST_F(AsyncLocTest, FailedAsyncRegionWriteDropsItemsNotData) {
  // LOC window deliberately beyond the namespace: every region write fails.
  LocConfig config;
  config.base_offset = device_->size_bytes();
  config.size_bytes = 4 * 128 * 1024;
  config.region_size = 128 * 1024;
  config.inflight_regions = 2;
  LargeObjectCache loc(device_.get(), config);

  const std::string value(60000, 'x');
  ASSERT_TRUE(loc.Insert("doomed1", value));
  ASSERT_TRUE(loc.Insert("doomed2", value));
  ASSERT_TRUE(loc.Insert("later", value));  // Seals region 0.
  EXPECT_FALSE(loc.Flush());                // The failure surfaces here.
  EXPECT_GE(loc.stats().regions_write_failed, 1u);
  // Items of the failed region are gone (misses), never wrong data.
  EXPECT_FALSE(loc.Lookup("doomed1").has_value());
  EXPECT_FALSE(loc.Lookup("doomed2").has_value());
}

TEST_F(AsyncLocTest, AsyncPersistRestoreRoundTrip) {
  LocConfig config;
  config.size_bytes = 8 * 128 * 1024;
  config.region_size = 128 * 1024;
  config.inflight_regions = 3;
  std::string state;
  {
    LargeObjectCache loc(device_.get(), config);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(loc.Insert("key" + std::to_string(i), std::string(40000, 'a' + i)));
    }
    ASSERT_TRUE(loc.SerializeState(&state));
    EXPECT_EQ(loc.InFlightRegions(), 0u);  // Serialization drains the ring.
  }
  LargeObjectCache restored(device_.get(), config);
  ASSERT_TRUE(restored.RestoreState(state));
  for (int i = 0; i < 10; ++i) {
    const auto hit = restored.Lookup("key" + std::to_string(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, std::string(40000, 'a' + i));
  }
}

// --- Async SOC: pending bucket rewrites --------------------------------------

class AsyncSocTest : public AsyncSimDeviceTest {};

TEST_F(AsyncSocTest, PendingBucketServedFromBufferUntilFlushed) {
  SocConfig config;
  config.size_bytes = 64 * 4096;
  config.inflight_writes = 8;
  SmallObjectCache soc(device_.get(), config);

  ASSERT_TRUE(soc.Insert("k", "pending-value"));
  EXPECT_GE(soc.InFlightWrites(), 1u);

  // Lookup goes through the pending write's buffer (write-back), and the
  // read-modify-write of a second insert to the same bucket does too.
  const uint64_t reads_before = device_->stats().reads;
  const auto hit = soc.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "pending-value");
  EXPECT_GE(soc.stats().pending_buffer_hits, 1u);
  EXPECT_EQ(device_->stats().reads, reads_before);

  soc.Flush();
  EXPECT_EQ(soc.InFlightWrites(), 0u);
  const auto flash_hit = soc.Lookup("k");
  ASSERT_TRUE(flash_hit.has_value());
  EXPECT_EQ(*flash_hit, "pending-value");
}

TEST_F(AsyncSocTest, OverlappingRewritesOfOneBucketLastWins) {
  SocConfig config;
  config.size_bytes = 4096;  // Single bucket: every op collides.
  config.inflight_writes = 4;
  SmallObjectCache soc(device_.get(), config);

  ASSERT_TRUE(soc.Insert("a", "1"));
  ASSERT_TRUE(soc.Insert("b", "2"));
  ASSERT_TRUE(soc.Remove("a"));
  ASSERT_TRUE(soc.Insert("c", "3"));
  soc.Flush();

  EXPECT_FALSE(soc.Lookup("a").has_value());
  EXPECT_EQ(*soc.Lookup("b"), "2");
  EXPECT_EQ(*soc.Lookup("c"), "3");
}

TEST_F(AsyncSocTest, FailedAsyncRewriteNeverServesStaleValue) {
  // A device whose endurance budget dies mid-test: writes start failing
  // while previously written buckets remain intact on flash.
  SsdConfig worn = TestSsd();
  worn.geometry.num_superblocks = 8;
  worn.endurance.rated_pe_cycles = 3;
  SimulatedSsd ssd(worn);
  const uint32_t nsid = *ssd.CreateNamespace(ssd.logical_capacity_bytes());
  SimSsdDevice device(&ssd, nsid, &clock_);

  SocConfig config;
  config.size_bytes = 4096;  // Single bucket.
  config.inflight_writes = 2;
  SmallObjectCache soc(&device, config);
  ASSERT_TRUE(soc.Insert("k", "v1"));
  soc.Flush();
  ASSERT_EQ(*soc.Lookup("k"), "v1");

  // Exhaust the media so the next rewrite fails.
  std::vector<uint8_t> page(kPage, 0xee);
  const uint64_t pages = device.size_bytes() / kPage;
  bool writes_failing = false;
  for (int pass = 0; pass < 60 && !writes_failing; ++pass) {
    for (uint64_t p = 1; p < pages; ++p) {  // Skip the SOC's bucket 0.
      if (!device.Write(p * kPage, page.data(), kPage, kNoPlacement)) {
        writes_failing = true;
        break;
      }
    }
  }
  ASSERT_TRUE(writes_failing);

  // The v2 rewrite is accepted into the pipeline but fails at the device.
  ASSERT_TRUE(soc.Insert("k", "v2"));
  EXPECT_FALSE(soc.Flush());
  EXPECT_GE(soc.stats().write_failures, 1u);
  // Neither v2 (never landed) nor stale v1 (bucket deallocated) is served.
  EXPECT_FALSE(soc.Lookup("k").has_value());
}

TEST_F(AsyncSocTest, RecoverBloomFiltersDrainsPendingFirst) {
  SocConfig config;
  config.size_bytes = 64 * 4096;
  config.inflight_writes = 8;
  SmallObjectCache soc(device_.get(), config);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(soc.Insert("key" + std::to_string(i), "v" + std::to_string(i)));
  }
  // The recovery scan reads flash directly; it must see every pending write.
  EXPECT_GT(soc.RecoverBloomFilters(), 0u);
  EXPECT_EQ(soc.InFlightWrites(), 0u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*soc.Lookup("key" + std::to_string(i)), "v" + std::to_string(i)) << i;
  }
}

}  // namespace
}  // namespace fdpcache
