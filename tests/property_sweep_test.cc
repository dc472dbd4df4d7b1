// Parameterised property sweeps across configuration space: every engine
// must uphold its correctness oracle for any geometry, bucket count, region
// size, or size threshold.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/cache/hybrid_cache.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

std::unique_ptr<SimulatedSsd> MakeSsd(uint32_t pages_per_block, uint32_t planes, uint32_t dies,
                                      uint32_t superblocks, double op) {
  SsdConfig config;
  config.geometry.pages_per_block = pages_per_block;
  config.geometry.planes_per_die = planes;
  config.geometry.num_dies = dies;
  config.geometry.num_superblocks = superblocks;
  config.op_fraction = op;
  auto ssd = std::make_unique<SimulatedSsd>(config);
  ssd->CreateNamespace(ssd->logical_capacity_bytes());
  return ssd;
}

// --- FTL geometry sweep -----------------------------------------------------

struct GeometryParams {
  uint32_t pages_per_block;
  uint32_t planes;
  uint32_t dies;
  uint32_t superblocks;
  double op;
};

class FtlGeometrySweep : public ::testing::TestWithParam<GeometryParams> {};

TEST_P(FtlGeometrySweep, ChurnKeepsInvariantsAndData) {
  const GeometryParams p = GetParam();
  auto ssd = MakeSsd(p.pages_per_block, p.planes, p.dies, p.superblocks, p.op);
  const uint64_t pages = ssd->logical_capacity_bytes() / 4096;
  Rng rng(p.superblocks + p.pages_per_block);
  std::unordered_map<uint64_t, uint64_t> tags;
  std::vector<uint8_t> page(4096);
  uint64_t tag = 0;
  for (uint64_t i = 0; i < pages * 6; ++i) {
    const uint64_t lba = rng.NextBelow(pages);
    ++tag;
    std::memcpy(page.data(), &tag, sizeof(tag));
    ASSERT_TRUE(ssd->Write(1, lba, 1, page.data(), DirectiveType::kNone, 0, 0).ok());
    tags[lba] = tag;
  }
  ASSERT_EQ(ssd->ftl().CheckInvariants(), "");
  ASSERT_GE(ssd->GetFdpStatisticsLog().Dlwa(), 1.0);
  // Spot-audit data integrity across GC.
  std::vector<uint8_t> out(4096);
  for (int i = 0; i < 200; ++i) {
    const uint64_t lba = rng.NextBelow(pages);
    const auto it = tags.find(lba);
    if (it == tags.end()) {
      continue;
    }
    ASSERT_TRUE(ssd->Read(1, lba, 1, out.data(), 0).ok());
    uint64_t stored = 0;
    std::memcpy(&stored, out.data(), sizeof(stored));
    EXPECT_EQ(stored, it->second) << "lba " << lba;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, FtlGeometrySweep,
                         ::testing::Values(GeometryParams{8, 2, 2, 16, 0.25},
                                           GeometryParams{16, 2, 4, 24, 0.20},
                                           GeometryParams{32, 2, 8, 32, 0.15},
                                           GeometryParams{64, 4, 4, 16, 0.25},
                                           GeometryParams{16, 1, 1, 12, 0.30},
                                           GeometryParams{8, 4, 8, 48, 0.10}));

// --- SOC configuration sweep --------------------------------------------------

struct SocParams {
  uint64_t buckets;
  uint32_t keys;
};

class SocSweep : public ::testing::TestWithParam<SocParams> {};

TEST_P(SocSweep, OracleHoldsAcrossConfigurations) {
  const SocParams p = GetParam();
  VirtualClock clock;
  auto ssd = MakeSsd(16, 2, 4, 32, 0.2);
  SimSsdDevice device(ssd.get(), 1, &clock);
  SocConfig config;
  config.size_bytes = p.buckets * 4096;
  SmallObjectCache soc(&device, config);
  Rng rng(p.buckets * 31 + p.keys);
  std::unordered_map<std::string, std::string> oracle;
  for (int i = 0; i < 4000; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBelow(p.keys));
    std::string value(rng.NextInRange(8, 900), static_cast<char>('a' + i % 26));
    if (soc.Insert(key, value)) {
      oracle[key] = std::move(value);
    }
  }
  uint64_t hits = 0;
  for (const auto& [key, expected] : oracle) {
    const auto got = soc.Lookup(key);
    if (got.has_value()) {
      ++hits;
      ASSERT_EQ(*got, expected) << key;
    }
  }
  // The cache must retain a reasonable fraction given its capacity.
  EXPECT_GT(hits, std::min<uint64_t>(oracle.size() / 4, p.buckets));
}

INSTANTIATE_TEST_SUITE_P(Configs, SocSweep,
                         ::testing::Values(SocParams{1, 10},
                                           SocParams{8, 50},
                                           SocParams{64, 500},
                                           SocParams{512, 5000},
                                           SocParams{512, 20000}));

// --- LOC configuration sweep ---------------------------------------------------

struct LocParams {
  uint64_t region_kib;
  uint32_t regions;
  uint32_t max_item;
};

class LocSweep : public ::testing::TestWithParam<LocParams> {};

TEST_P(LocSweep, OracleHoldsAcrossConfigurations) {
  const LocParams p = GetParam();
  VirtualClock clock;
  auto ssd = MakeSsd(32, 2, 8, 64, 0.15);
  SimSsdDevice device(ssd.get(), 1, &clock);
  LocConfig config;
  config.region_size = p.region_kib * 1024;
  config.size_bytes = config.region_size * p.regions;
  LargeObjectCache loc(&device, config);
  Rng rng(p.region_kib + p.regions);
  std::unordered_map<std::string, std::string> oracle;
  for (int i = 0; i < 600; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBelow(80));
    std::string value(rng.NextInRange(1000, p.max_item), static_cast<char>('a' + i % 26));
    if (loc.Insert(key, value)) {
      oracle[key] = std::move(value);
    } else {
      oracle.erase(key);  // Rejected inserts leave the previous value... gone or stale?
      // An insert failure must not corrupt: a subsequent hit may serve the
      // older value. Drop it from the oracle to stay conservative.
    }
    if (i % 97 == 0) {
      loc.Lookup("key" + std::to_string(rng.NextBelow(80)));  // Interleaved reads.
    }
  }
  for (const auto& [key, expected] : oracle) {
    const auto got = loc.Lookup(key);
    if (got.has_value()) {
      ASSERT_EQ(*got, expected) << key;
    }
  }
  ASSERT_EQ(ssd->ftl().CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Configs, LocSweep,
                         ::testing::Values(LocParams{64, 8, 30000},
                                           LocParams{128, 4, 60000},
                                           LocParams{256, 16, 100000},
                                           LocParams{512, 3, 200000},
                                           LocParams{128, 32, 20000}));

// --- Hybrid threshold sweep ----------------------------------------------------

class HybridThresholdSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HybridThresholdSweep, RoutingThresholdNeverBreaksCorrectness) {
  const uint64_t threshold = GetParam();
  VirtualClock clock;
  auto ssd = MakeSsd(32, 2, 8, 64, 0.15);
  SimSsdDevice device(ssd.get(), 1, &clock);
  PlacementHandleAllocator allocator(device);
  HybridCacheConfig config;
  config.ram_bytes = 16 * 1024;
  config.navy.small_item_max_bytes = threshold;
  config.navy.soc_fraction = 0.10;
  config.navy.loc_region_size = 128 * 1024;
  HybridCache cache(&device, config, &allocator);
  Rng rng(threshold);
  std::unordered_map<std::string, std::string> oracle;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBelow(250));
    // Sizes straddle the threshold aggressively.
    const uint64_t size = rng.NextBool(0.5)
                              ? rng.NextInRange(10, std::max<uint64_t>(threshold, 11))
                              : rng.NextInRange(threshold + 1, threshold + 30000);
    std::string value(size, static_cast<char>('a' + i % 26));
    cache.Set(key, value);
    oracle[key] = std::move(value);
    if (i % 3 == 0) {
      std::string got;
      const std::string probe = "key" + std::to_string(rng.NextBelow(250));
      if (cache.Get(probe, &got)) {
        ASSERT_EQ(got, oracle.at(probe)) << probe;
      }
    }
  }
  ASSERT_EQ(ssd->ftl().CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Thresholds, HybridThresholdSweep,
                         ::testing::Values(256, 1024, 2048, 3500));

}  // namespace
}  // namespace fdpcache
