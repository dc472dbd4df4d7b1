// Asynchronous cache-tier API: callback-based Lookup/Insert/Remove on
// NavyCache / HybridCache / ShardedCache.
//
// Covers the headline contract — a flash LookupAsync does NOT hold the shard
// mutex while the device works (a concurrent same-shard RAM hit completes
// while the flash read is parked at a gate) — plus: callbacks fire exactly
// once per op, every entry point delivers its callback with no shard lock
// held, same-key Insert→Lookup ordering through the pending-key table,
// Flush/Drain as completion barriers, ShardedCacheStats::pending_ops,
// Flush() failure propagation, SOC-bucket RMW serialization, LOC region
// reads parked asynchronously, and a multi-submitter stress with Drain
// racing callbacks (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/sharded_cache.h"
#include "src/harness/concurrent_replay.h"
#include "src/workload/workload.h"

namespace fdpcache {
namespace {

// A QueuedDevice over a plain byte array whose reads can be gated: while the
// read gate is closed every device read parks inside the backend, so tests
// can hold an async cache op "in flight on the device" indefinitely and
// observe what the cache tier does meanwhile. Writes can be made to fail for
// flush-propagation tests.
class GatedMemDevice final : public QueuedDevice {
 public:
  explicit GatedMemDevice(uint64_t size_bytes,
                          const IoQueueConfig& config = IoQueueConfig{})
      : QueuedDevice(config), data_(size_bytes, 0) {}
  ~GatedMemDevice() override {
    OpenReadGate();
    StopQueue();
  }

  void CloseReadGate() {
    std::lock_guard<std::mutex> lock(mu_);
    read_gate_open_ = false;
  }
  void OpenReadGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      read_gate_open_ = true;
    }
    gate_cv_.notify_all();
  }
  // Waits until a read is parked at the closed gate (the dispatcher popped
  // it and is inside the backend).
  bool WaitUntilReadParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return parked_cv_.wait_for(lock, std::chrono::seconds(10),
                               [this] { return parked_reads_ > 0; });
  }
  void SetFailWrites(bool fail) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_writes_ = fail;
  }

  uint64_t size_bytes() const override { return data_.size(); }
  uint64_t page_size() const override { return 4096; }

 protected:
  IoResult ExecuteWrite(uint64_t offset, const void* data, uint64_t size,
                        PlacementHandle) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fail_writes_) {
        return IoResult{false, 0};
      }
    }
    std::memcpy(&data_[offset], data, size);
    return IoResult{true, 1000};
  }
  IoResult ExecuteRead(uint64_t offset, void* out, uint64_t size) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++parked_reads_;
      parked_cv_.notify_all();
      gate_cv_.wait(lock, [this] { return read_gate_open_; });
      --parked_reads_;
    }
    std::memcpy(out, &data_[offset], size);
    return IoResult{true, 1000};
  }
  IoResult ExecuteTrim(uint64_t offset, uint64_t size) override {
    std::memset(&data_[offset], 0, size);
    return IoResult{true, 100};
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable parked_cv_;
  bool read_gate_open_ = true;
  bool fail_writes_ = false;
  uint32_t parked_reads_ = 0;
  std::vector<uint8_t> data_;
};

HybridCacheConfig GatedCacheConfig(uint64_t ram_bytes) {
  HybridCacheConfig config;
  config.ram_bytes = ram_bytes;
  config.navy.soc_fraction = 0.5;
  config.navy.loc_region_size = 256 * 1024;
  config.navy.small_item_max_bytes = 2048;
  config.navy.use_placement_handles = false;
  return config;
}

std::unique_ptr<ShardedCache> OneShardOver(GatedMemDevice* device,
                                           const HybridCacheConfig& config) {
  auto cache = std::make_unique<ShardedCache>(1, [&](uint32_t) {
    return std::make_unique<HybridCache>(device, config);
  });
  cache->AttachDevice(device);
  return cache;
}

// Spins until `done` or the deadline; async completions ride the poller.
bool AwaitTrue(const std::atomic<bool>& done, int seconds = 10) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!done.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- The acceptance contract: no shard lock across flash I/O -----------------

TEST(AsyncCacheTest, FlashLookupReleasesShardLockWhileReadParked) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));

  // Key A lives in flash only (inserted beneath the DRAM tier); key B is a
  // RAM resident of the SAME shard.
  const std::string value_a(256, 'a');
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyA", value_a));
  cache->Set("keyB", "ram-resident");

  device.CloseReadGate();
  std::atomic<bool> done{false};
  AsyncResult out;
  cache->LookupAsync("keyA", [&](AsyncResult r) {
    out = std::move(r);
    done.store(true);
  });
  // The SOC bucket read is now parked INSIDE the device backend...
  ASSERT_TRUE(device.WaitUntilReadParked());
  EXPECT_FALSE(done.load());

  // ...and the shard is still usable: a concurrent same-shard RAM hit
  // completes while the flash read is parked. If LookupAsync held the shard
  // mutex across the I/O, this future would time out.
  auto ram_hit = std::async(std::launch::async, [&] {
    std::string value;
    return cache->Get("keyB", &value) && value == "ram-resident";
  });
  ASSERT_EQ(ram_hit.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "same-shard RAM hit blocked while a flash LookupAsync was parked — "
         "the shard mutex was held across device I/O";
  EXPECT_TRUE(ram_hit.get());
  EXPECT_FALSE(done.load());
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 1u);

  device.OpenReadGate();
  ASSERT_TRUE(AwaitTrue(done));
  EXPECT_EQ(out.status, AsyncStatus::kHit);
  EXPECT_EQ(out.value, value_a);
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 0u);
}

// Every async entry point delivers its callback with no shard lock held,
// whether the op resolved under the lock (delivered before the call
// returns) or parked on a flash read (delivered by the poller). Each
// callback re-enters the one shard with a blocking Get of a key DRAM does
// not hold, which takes the shard lock: a callback fired under that lock
// deadlocks there. The body runs on its own thread so that a deadlock fails
// the binary instead of hanging it; Debug builds' lock-rank checker aborts
// on the self-deadlock first.
TEST(AsyncCacheTest, EveryEntryPointDeliversCallbacksWithNoShardLockHeld) {
  auto body = std::async(std::launch::async, [] {
    GatedMemDevice device(4 * 1024 * 1024);
    auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
    ASSERT_TRUE(cache->shard(0).navy().Insert("flash-lookup", std::string(256, 'f')));
    ASSERT_TRUE(cache->shard(0).navy().Insert("flash-remove", std::string(256, 'r')));
    cache->Set("ram-lookup", "ram-value");
    cache->Set("ram-remove", "ram-value");
    const std::thread::id caller = std::this_thread::get_id();

    struct Delivery {
      std::atomic<bool> done{false};
      AsyncStatus status = AsyncStatus::kError;
      bool on_caller = false;
    };
    const auto reenter = [&cache, caller](Delivery* d) {
      return [&cache, caller, d](AsyncResult r) {
        std::string value;
        EXPECT_FALSE(cache->Get("not-cached", &value));
        d->status = r.status;
        d->on_caller = std::this_thread::get_id() == caller;
        d->done.store(true);
      };
    };

    // LookupAsync, RAM hit: the lock-free probe serves it inline.
    Delivery ram_lookup;
    cache->LookupAsync("ram-lookup", reenter(&ram_lookup));
    EXPECT_TRUE(ram_lookup.done.load());
    EXPECT_EQ(ram_lookup.status, AsyncStatus::kHit);

    // InsertAsync, small item: resolved under the lock, delivered inline.
    Delivery small_insert;
    cache->InsertAsync("small-insert", "small-value", reenter(&small_insert));
    EXPECT_TRUE(small_insert.done.load());
    EXPECT_EQ(small_insert.status, AsyncStatus::kOk);

    // InsertAsync, oversized for the 64 KiB DRAM tier: straight to flash.
    Delivery big_insert;
    cache->InsertAsync("big-insert", std::string(100 * 1024, 'b'), reenter(&big_insert));
    ASSERT_TRUE(AwaitTrue(big_insert.done));
    EXPECT_EQ(big_insert.status, AsyncStatus::kOk);

    // RemoveAsync, RAM-only key (flash never held it).
    Delivery ram_remove;
    cache->RemoveAsync("ram-remove", reenter(&ram_remove));
    ASSERT_TRUE(AwaitTrue(ram_remove.done));
    EXPECT_EQ(ram_remove.status, AsyncStatus::kOk);

    // The flash cases park their bucket read at the closed gate, so the
    // poller, not this thread, delivers them once the gate opens.
    Delivery flash_lookup;
    device.CloseReadGate();
    cache->LookupAsync("flash-lookup", reenter(&flash_lookup));
    ASSERT_TRUE(device.WaitUntilReadParked());
    device.OpenReadGate();
    ASSERT_TRUE(AwaitTrue(flash_lookup.done));
    EXPECT_EQ(flash_lookup.status, AsyncStatus::kHit);
    EXPECT_FALSE(flash_lookup.on_caller);

    Delivery flash_remove;
    device.CloseReadGate();
    cache->RemoveAsync("flash-remove", reenter(&flash_remove));
    ASSERT_TRUE(device.WaitUntilReadParked());
    device.OpenReadGate();
    ASSERT_TRUE(AwaitTrue(flash_remove.done));
    EXPECT_EQ(flash_remove.status, AsyncStatus::kOk);
    EXPECT_FALSE(flash_remove.on_caller);
  });
  if (body.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // The deadlocked thread can never be joined, and the future's destructor
    // would wait for it: fail the whole binary now.
    std::fprintf(stderr, "an async callback was delivered under the shard lock (deadlock)\n");
    std::abort();
  }
  body.get();
}

TEST(AsyncCacheTest, BlockingSetDuringParkedLookupIsNotClobberedByPromotion) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyA", "v1-old-flash"));

  device.CloseReadGate();
  std::atomic<bool> done{false};
  cache->LookupAsync("keyA", [&](AsyncResult) { done.store(true); });
  ASSERT_TRUE(device.WaitUntilReadParked());

  // A blocking Set of the SAME key completes while the flash read is parked
  // (the blocking API bypasses the pending-key table by design).
  cache->Set("keyA", "v2-newer");

  device.OpenReadGate();
  ASSERT_TRUE(AwaitTrue(done));
  // The parked lookup's completion must not promote the old flash value
  // over the finished Set, nor clear the staleness marker the Set planted:
  // the newer value wins from now on.
  std::string value;
  ASSERT_TRUE(cache->Get("keyA", &value));
  EXPECT_EQ(value, "v2-newer");
  cache->Flush();
  ASSERT_TRUE(cache->Get("keyA", &value));
  EXPECT_EQ(value, "v2-newer");
}

TEST(AsyncCacheTest, BlockingRemoveDuringParkedLookupDoesNotResurrectValue) {
  // HybridCache directly (no poller): completions only advance when pumped,
  // so the test controls exactly when the parked lookup is stepped.
  GatedMemDevice device(4 * 1024 * 1024);
  HybridCache cache(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache.navy().Insert("keyA", "flash-value"));

  std::atomic<bool> done{false};
  AsyncResult out;
  cache.LookupAsync("keyA", [&](AsyncResult r) {
    out = std::move(r);
    done.store(true);
  });
  // The bucket read executes (gate open) and its completion is parked,
  // un-pumped. A blocking Remove now runs to completion: the bucket is
  // rewritten without the key and the rewrite retires.
  device.Drain();
  EXPECT_FALSE(done.load());
  cache.Remove("keyA");

  // Stepping the lookup must detect the retired rewrite (bucket generation
  // moved) and restart from fresh state instead of parsing the pre-remove
  // image — which would return the deleted value AND resurrect it in RAM.
  cache.DrainAsync();
  ASSERT_TRUE(done.load());
  EXPECT_EQ(out.status, AsyncStatus::kMiss);
  std::string value;
  EXPECT_FALSE(cache.Get("keyA", &value)) << "deleted value was resurrected";
}

TEST(AsyncCacheTest, LocRegionReadParksAndCompletes) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));

  // Two large items: the second seals the first one's region, so keyL1 is on
  // flash (not in the open-region RAM buffer) and its lookup needs a read.
  const std::string large1(200 * 1024, 'x');
  const std::string large2(200 * 1024, 'y');
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyL1", large1));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyL2", large2));
  ASSERT_GE(cache->shard(0).navy().stats().loc.regions_sealed, 1u);

  device.CloseReadGate();
  std::atomic<bool> done{false};
  AsyncResult out;
  cache->LookupAsync("keyL1", [&](AsyncResult r) {
    out = std::move(r);
    done.store(true);
  });
  ASSERT_TRUE(device.WaitUntilReadParked());
  EXPECT_FALSE(done.load());
  device.OpenReadGate();
  ASSERT_TRUE(AwaitTrue(done));
  EXPECT_EQ(out.status, AsyncStatus::kHit);
  EXPECT_EQ(out.value, large1);
}

// --- Same-key ordering through the pending-key table -------------------------

TEST(AsyncCacheTest, SameKeyInsertThenLookupCompleteInSubmissionOrder) {
  GatedMemDevice device(4 * 1024 * 1024);
  // DRAM budget below any item: every InsertAsync goes straight to flash and
  // parks on its SOC bucket read while the gate is closed.
  HybridCacheConfig config = GatedCacheConfig(/*ram_bytes=*/16);
  config.navy.soc_inflight_writes = 4;
  auto cache = OneShardOver(&device, config);

  device.CloseReadGate();
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto record = [&](std::string tag) {
    return [&, tag = std::move(tag)](AsyncResult r) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag + "=" +
                      (r.hit() ? r.value.substr(0, 2) : (r.ok() ? "ok" : "miss")));
    };
  };
  cache->InsertAsync("hotkey", "v1-payload", record("insert1"));
  ASSERT_TRUE(device.WaitUntilReadParked());
  cache->LookupAsync("hotkey", record("lookup1"));
  cache->InsertAsync("hotkey", "v2-payload", record("insert2"));
  cache->LookupAsync("hotkey", record("lookup2"));
  {
    std::lock_guard<std::mutex> lock(order_mu);
    EXPECT_TRUE(order.empty()) << "ops completed while the flash read was parked";
  }
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 4u);

  device.OpenReadGate();
  cache->Drain();
  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(order.size(), 4u);
  // FIFO per key: each lookup observes exactly the preceding insert's value.
  EXPECT_EQ(order[0], "insert1=ok");
  EXPECT_EQ(order[1], "lookup1=v1");
  EXPECT_EQ(order[2], "insert2=ok");
  EXPECT_EQ(order[3], "lookup2=v2");
}

// --- Barriers ----------------------------------------------------------------

TEST(AsyncCacheTest, RemoveAsyncReportsRamOnlyRemovalAsOk) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  cache->Set("ramkey", "never-spilled");  // DRAM only; flash holds nothing.

  std::atomic<bool> done{false};
  AsyncResult removed;
  cache->RemoveAsync("ramkey", [&](AsyncResult r) {
    removed = std::move(r);
    done.store(true);
  });
  ASSERT_TRUE(AwaitTrue(done));
  EXPECT_EQ(removed.status, AsyncStatus::kOk) << "RAM-only removal must report kOk";

  std::atomic<bool> done_absent{false};
  AsyncResult absent;
  cache->RemoveAsync("never-existed", [&](AsyncResult r) {
    absent = std::move(r);
    done_absent.store(true);
  });
  ASSERT_TRUE(AwaitTrue(done_absent));
  EXPECT_EQ(absent.status, AsyncStatus::kMiss);
}

TEST(AsyncCacheTest, FlushIsACompletionBarrierForParkedOps) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyA", std::string(256, 'a')));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyC", std::string(256, 'c')));

  device.CloseReadGate();
  std::atomic<int> completions{0};
  cache->LookupAsync("keyA", [&](AsyncResult) { ++completions; });
  cache->LookupAsync("keyC", [&](AsyncResult) { ++completions; });
  ASSERT_TRUE(device.WaitUntilReadParked());

  std::atomic<bool> flushed{false};
  std::atomic<bool> flush_ok{false};
  std::thread flusher([&] {
    flush_ok.store(cache->Flush());
    flushed.store(true);
  });
  // Flush must wait for the parked ops — it cannot finish at a closed gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(flushed.load());
  device.OpenReadGate();
  flusher.join();
  EXPECT_TRUE(flush_ok.load());
  // Barrier contract: every callback fired before Flush returned.
  EXPECT_EQ(completions.load(), 2);
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 0u);
}

TEST(AsyncCacheTest, PendingOpsGaugeTracksParkedOps) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyA", std::string(256, 'a')));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyC", std::string(256, 'c')));

  EXPECT_EQ(cache->Stats().pending_ops.size(), 1u);
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 0u);
  device.CloseReadGate();
  cache->LookupAsync("keyA", nullptr);
  cache->LookupAsync("keyC", nullptr);
  ASSERT_TRUE(device.WaitUntilReadParked());
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 2u);
  device.OpenReadGate();
  cache->Drain();
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 0u);
}

TEST(AsyncCacheTest, FlushPropagatesFailedAsyncWrites) {
  GatedMemDevice device(4 * 1024 * 1024);
  HybridCacheConfig config = GatedCacheConfig(/*ram_bytes=*/16);
  config.navy.soc_inflight_writes = 4;
  auto cache = OneShardOver(&device, config);

  // The bucket rewrite is submitted asynchronously and fails on the device;
  // the failure must surface at the flush barrier instead of vanishing.
  device.SetFailWrites(true);
  std::atomic<bool> done{false};
  cache->InsertAsync("doomed", "payload", [&](AsyncResult) { done.store(true); });
  ASSERT_TRUE(AwaitTrue(done));
  EXPECT_FALSE(cache->Flush());
  // The failed generation degrades to misses, never stale data.
  std::string value;
  EXPECT_FALSE(cache->Get("doomed", &value));
  device.SetFailWrites(false);
  EXPECT_TRUE(cache->Flush());
}

// --- Exactly-once callbacks + blocking/async equivalence ---------------------

TEST(AsyncCacheTest, CallbackFiresExactlyOncePerOpAcrossMixedOutcomes) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 2;
  backend_config.ssd.geometry.num_superblocks = 32;
  backend_config.ssd.geometry.pages_per_block = 16;
  backend_config.cache.ram_bytes = 32 * 1024;
  ShardedSimBackend backend(backend_config);
  ShardedCache& cache = backend.cache();

  constexpr int kOps = 600;
  std::vector<std::atomic<int>> fired(kOps);
  for (auto& f : fired) {
    f.store(0);
  }
  for (int i = 0; i < kOps; ++i) {
    const std::string key = KeyString(static_cast<uint64_t>(i % 97));
    const auto cb = [&fired, i](AsyncResult) { ++fired[i]; };
    switch (i % 3) {
      case 0:
        cache.InsertAsync(key, ValuePayload(static_cast<uint64_t>(i % 97), 0, 300), cb);
        break;
      case 1:
        cache.LookupAsync(key, cb);
        break;
      default:
        cache.RemoveAsync(key, cb);
        break;
    }
  }
  cache.Drain();
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "op " << i;
  }
}

TEST(AsyncCacheTest, AsyncLookupResultsMatchBlockingLookups) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 2;
  backend_config.ssd.geometry.num_superblocks = 32;
  backend_config.ssd.geometry.pages_per_block = 16;
  backend_config.cache.ram_bytes = 32 * 1024;
  ShardedSimBackend backend(backend_config);
  ShardedCache& cache = backend.cache();

  for (uint64_t id = 0; id < 200; ++id) {
    cache.Set(KeyString(id), ValuePayload(id, 0, 400));
  }
  // Every key resolves identically through both APIs (flash hits included).
  for (uint64_t id = 0; id < 220; ++id) {
    std::string sync_value;
    const bool sync_hit = cache.Get(KeyString(id), &sync_value);
    std::atomic<bool> done{false};
    AsyncResult async_result;
    cache.LookupAsync(KeyString(id), [&](AsyncResult r) {
      async_result = std::move(r);
      done.store(true);
    });
    ASSERT_TRUE(AwaitTrue(done)) << "key " << id;
    EXPECT_EQ(async_result.hit(), sync_hit) << "key " << id;
    if (sync_hit) {
      EXPECT_EQ(async_result.value, sync_value) << "key " << id;
    }
  }
}

// --- Multi-submitter stress with Drain racing callbacks ----------------------

TEST(AsyncCacheTest, MultiSubmitterStressWithDrainRacingCallbacks) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 4;
  backend_config.ssd.geometry.num_superblocks = 64;
  backend_config.ssd.geometry.pages_per_block = 16;
  backend_config.cache.ram_bytes = 48 * 1024;
  ShardedSimBackend backend(backend_config);
  ShardedCache& cache = backend.cache();

  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kOpsPerThread = 1500;
  std::atomic<uint64_t> completions{0};
  std::atomic<bool> stop_drainer{false};
  std::thread drainer([&] {
    while (!stop_drainer.load()) {
      cache.Drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> submitters;
  for (uint32_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t id = (t * 131 + i * 7) % 509;
        const std::string key = KeyString(id);
        const auto cb = [&completions](AsyncResult) { ++completions; };
        switch (i % 4) {
          case 0:
          case 1:
            cache.LookupAsync(key, cb);
            break;
          case 2:
            cache.InsertAsync(key, ValuePayload(id, 0, 350), cb);
            break;
          default:
            cache.RemoveAsync(key, cb);
            break;
        }
      }
    });
  }
  for (auto& thread : submitters) {
    thread.join();
  }
  stop_drainer.store(true);
  drainer.join();
  cache.Drain();
  EXPECT_EQ(completions.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(cache.Stats().TotalPendingOps(), 0u);
  // The shard counters saw every op exactly once.
  const ShardedCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.gets + stats.sets + stats.removes, kThreads * kOpsPerThread);
}

// --- Async replay through the concurrent driver ------------------------------

TEST(AsyncCacheTest, ConcurrentReplayDriverRunsAtCacheQueueDepth) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 4;
  backend_config.ssd.geometry.num_superblocks = 64;
  backend_config.ssd.geometry.pages_per_block = 16;
  backend_config.cache.ram_bytes = 48 * 1024;
  ShardedSimBackend backend(backend_config);

  ConcurrentReplayConfig replay;
  replay.num_threads = 2;
  replay.total_ops = 6000;
  replay.async_cache_queue_depth = 8;
  replay.workload.num_keys = 2000;
  replay.workload.small_value_min = 64;
  replay.workload.small_value_max = 512;
  replay.workload.large_value_min = 4096;
  replay.workload.large_value_max = 16384;
  ConcurrentReplayDriver driver(&backend.cache(), replay);
  const ConcurrentReplayReport report = driver.Run();
  EXPECT_EQ(report.ops_executed, replay.total_ops);
  EXPECT_GT(report.cache.gets, 0u);
  EXPECT_GT(report.cache.HitRatio(), 0.0);
  // The run drained: the pending gauge reads back empty.
  EXPECT_EQ(report.cache.TotalPendingOps(), 0u);
  EXPECT_EQ(backend.cache().Stats().TotalPendingOps(), 0u);
}

}  // namespace
}  // namespace fdpcache
