// Micro-benchmarks of the cache library (google-benchmark): SOC/LOC engine
// operations, hybrid get/set paths, the SOC bucket codec, and the Zipf
// sampler. These measure host CPU cost per operation.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/hybrid_cache.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/navy/bucket.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"
#include "src/workload/workload.h"
#include "src/workload/zipf.h"

namespace fdpcache {
namespace {

struct CacheFixture {
  CacheFixture() {
    SsdConfig ssd_config;
    ssd_config.geometry.pages_per_block = 32;
    ssd_config.geometry.planes_per_die = 2;
    ssd_config.geometry.num_dies = 8;
    ssd_config.geometry.num_superblocks = 64;
    ssd_config.op_fraction = 0.15;
    ssd = std::make_unique<SimulatedSsd>(ssd_config);
    nsid = *ssd->CreateNamespace(ssd->logical_capacity_bytes());
    device = std::make_unique<SimSsdDevice>(ssd.get(), nsid, &clock);
    allocator = std::make_unique<PlacementHandleAllocator>(*device);
    HybridCacheConfig config;
    config.ram_bytes = 4 * 1024 * 1024;
    config.navy.soc_fraction = 0.08;
    config.navy.loc_region_size = 512 * 1024;
    cache = std::make_unique<HybridCache>(device.get(), config, allocator.get());
  }

  VirtualClock clock;
  std::unique_ptr<SimulatedSsd> ssd;
  std::unique_ptr<SimSsdDevice> device;
  std::unique_ptr<PlacementHandleAllocator> allocator;
  std::unique_ptr<HybridCache> cache;
  uint32_t nsid = 0;
};

void BM_HybridSetSmall(benchmark::State& state) {
  CacheFixture fx;
  const std::string value(300, 'v');
  uint64_t key = 0;
  for (auto _ : state) {
    fx.cache->Set(KeyString(key++ % 100000), value);
  }
}
BENCHMARK(BM_HybridSetSmall);

void BM_HybridSetLarge(benchmark::State& state) {
  CacheFixture fx;
  const std::string value(32 * 1024, 'V');
  uint64_t key = 0;
  for (auto _ : state) {
    fx.cache->Set(KeyString(key++ % 2000), value);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32 * 1024);
}
BENCHMARK(BM_HybridSetLarge);

void BM_HybridGetRamHit(benchmark::State& state) {
  CacheFixture fx;
  fx.cache->Set("hot-key", std::string(300, 'h'));
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.cache->Get("hot-key", &value));
  }
}
BENCHMARK(BM_HybridGetRamHit);

void BM_HybridGetNvmHit(benchmark::State& state) {
  CacheFixture fx;
  // Push enough small items that early keys live only on flash.
  const std::string value(300, 'n');
  for (uint64_t k = 0; k < 50000; ++k) {
    fx.cache->Set(KeyString(k), value);
  }
  std::string out;
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.cache->Get(KeyString(key++ % 10000), &out));
    // Undo RAM promotion effects by cycling over many keys.
  }
}
BENCHMARK(BM_HybridGetNvmHit);

void BM_HybridGetMiss(benchmark::State& state) {
  CacheFixture fx;
  std::string out;
  uint64_t key = 1ull << 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.cache->Get(KeyString(key++), &out));
  }
}
BENCHMARK(BM_HybridGetMiss);

// A full SOC bucket as MetaKvCache fills it: 7 entries whose small values
// are drawn from the workload's 64-1024 B range.
struct SevenEntryBucket {
  SevenEntryBucket() {
    const KvWorkloadConfig config = KvWorkloadConfig::MetaKvCache();
    Rng rng(1);
    std::vector<uint32_t> sizes;
    uint64_t used = 0;
    do {
      sizes.clear();
      used = Bucket::kHeaderBytes;
      for (int i = 0; i < 7; ++i) {
        sizes.push_back(
            static_cast<uint32_t>(rng.NextInRange(config.small_value_min, config.small_value_max)));
        used += Bucket::EntryBytes(KeyString(i), std::string(sizes.back(), 'v'));
      }
    } while (used > kBucketBytes);
    std::vector<uint8_t> spare(kBucketBytes);
    Bucket bucket(kBucketBytes);
    for (int i = 0; i < 7; ++i) {
      bucket = *bucket.InsertInto(KeyString(i), std::string(sizes[i], 'v'), spare.data(), nullptr);
      image.swap(spare);
    }
  }

  static constexpr uint64_t kBucketBytes = 4096;
  std::vector<uint8_t> image = std::vector<uint8_t>(kBucketBytes);
};

// A SOC lookup hit once the bucket is read: validate the image, find the
// key, copy out its value.
void BM_BucketLookupInImage(benchmark::State& state) {
  const SevenEntryBucket fx;
  const std::string key = KeyString(3);
  std::string value;
  for (auto _ : state) {
    const std::optional<Bucket> bucket = Bucket::Parse(fx.image.data(), fx.kBucketBytes);
    const std::optional<std::string_view> found = bucket->Find(key);
    value.assign(found->data(), found->size());
    benchmark::DoNotOptimize(value.data());
  }
}
BENCHMARK(BM_BucketLookupInImage);

// A SOC insert once the bucket is read: validate the image, then write the
// new image (same-key check, FIFO eviction, append, checksum) to a buffer.
void BM_BucketInsertRewrite(benchmark::State& state) {
  const SevenEntryBucket fx;
  const std::string key = KeyString(100);
  const std::string value(544, 'n');  // The mean MetaKvCache small value.
  std::vector<uint8_t> out(fx.kBucketBytes);
  for (auto _ : state) {
    const std::optional<Bucket> bucket = Bucket::Parse(fx.image.data(), fx.kBucketBytes);
    uint64_t evicted = 0;
    benchmark::DoNotOptimize(bucket->InsertInto(key, value, out.data(), &evicted));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BucketInsertRewrite);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(10'000'000, 0.9);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_TraceGeneratorNext(benchmark::State& state) {
  KvWorkloadConfig config = KvWorkloadConfig::MetaKvCache();
  config.num_keys = 1'000'000;
  KvTraceGenerator gen(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_TraceGeneratorNext);

}  // namespace
}  // namespace fdpcache

BENCHMARK_MAIN();
