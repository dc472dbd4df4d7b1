#include "src/navy/loc.h"

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

class LocTest : public ::testing::Test {
 protected:
  LocTest() {
    SsdConfig ssd_config;
    ssd_config.geometry.pages_per_block = 16;
    ssd_config.geometry.planes_per_die = 2;
    ssd_config.geometry.num_dies = 4;
    ssd_config.geometry.num_superblocks = 24;  // 128 pages = 512 KiB per RU.
    ssd_config.op_fraction = 0.2;
    ssd_ = std::make_unique<SimulatedSsd>(ssd_config);
    nsid_ = *ssd_->CreateNamespace(ssd_->logical_capacity_bytes());
    device_ = std::make_unique<SimSsdDevice>(ssd_.get(), nsid_, &clock_);
  }

  LargeObjectCache MakeLoc(uint64_t size_bytes, uint64_t region_size = 128 * 1024,
                           bool trim = false) {
    LocConfig config;
    config.base_offset = 0;
    config.size_bytes = size_bytes;
    config.region_size = region_size;
    config.trim_on_evict = trim;
    return LargeObjectCache(device_.get(), config);
  }

  VirtualClock clock_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::unique_ptr<SimSsdDevice> device_;
  uint32_t nsid_ = 0;
};

TEST_F(LocTest, InsertServedFromOpenRegionBuffer) {
  auto loc = MakeLoc(8 * 128 * 1024);
  ASSERT_TRUE(loc.Insert("k", std::string(10000, 'x')));
  EXPECT_EQ(device_->stats().writes, 0u);  // Not yet flushed.
  const auto value = loc.Lookup("k");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->size(), 10000u);
}

TEST_F(LocTest, SealedRegionReadBackFromDevice) {
  auto loc = MakeLoc(8 * 128 * 1024);
  const std::string big(60000, 'y');
  ASSERT_TRUE(loc.Insert("k1", big));
  ASSERT_TRUE(loc.Insert("k2", big));
  ASSERT_TRUE(loc.Insert("k3", big));  // Doesn't fit: region 0 seals.
  EXPECT_EQ(device_->stats().writes, 1u);
  const auto value = loc.Lookup("k1");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, big);
  EXPECT_GT(device_->stats().reads, 0u);
}

TEST_F(LocTest, SequentialWritePatternToDevice) {
  auto loc = MakeLoc(8 * 128 * 1024);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(loc.Insert("key" + std::to_string(i), std::string(30000, 'z')));
  }
  // Regions seal in order; device write offsets are strictly sequential
  // until wraparound, so GC sees fully invalidated RUs (paper Insight 1).
  EXPECT_GT(loc.stats().regions_sealed, 0u);
  EXPECT_EQ(ssd_->ftl().counters().gc_relocated_pages, 0u);
}

TEST_F(LocTest, FifoEvictionRecyclesOldestRegion) {
  auto loc = MakeLoc(4 * 128 * 1024);  // 4 regions total.
  const std::string v(100000, 'a');
  // Each item ~100 KB: one region holds one item.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(loc.Insert("key" + std::to_string(i), v));
  }
  EXPECT_GT(loc.stats().regions_evicted, 0u);
  // The earliest keys are gone, the latest are present.
  EXPECT_FALSE(loc.Lookup("key0").has_value());
  EXPECT_TRUE(loc.Lookup("key7").has_value());
}

TEST_F(LocTest, RemoveDropsIndexEntry) {
  auto loc = MakeLoc(8 * 128 * 1024);
  ASSERT_TRUE(loc.Insert("k", std::string(1000, 'c')));
  EXPECT_TRUE(loc.Remove("k"));
  EXPECT_FALSE(loc.Lookup("k").has_value());
  EXPECT_FALSE(loc.Remove("k"));
}

TEST_F(LocTest, UpdateSupersedesOldCopy) {
  auto loc = MakeLoc(8 * 128 * 1024);
  ASSERT_TRUE(loc.Insert("k", std::string(5000, 'o')));
  ASSERT_TRUE(loc.Insert("k", std::string(5000, 'n')));
  const auto value = loc.Lookup("k");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ((*value)[0], 'n');
}

TEST_F(LocTest, OversizeItemRejected) {
  auto loc = MakeLoc(8 * 128 * 1024);
  EXPECT_FALSE(loc.Insert("k", std::string(200000, 'x')));
  EXPECT_EQ(loc.stats().insert_failures, 1u);
}

TEST_F(LocTest, FlushSealsPartialRegion) {
  auto loc = MakeLoc(8 * 128 * 1024);
  ASSERT_TRUE(loc.Insert("k", std::string(1000, 'f')));
  ASSERT_TRUE(loc.Flush());
  EXPECT_EQ(device_->stats().writes, 1u);
  EXPECT_TRUE(loc.Lookup("k").has_value());
}

TEST_F(LocTest, TrimOnEvictIssuesTrims) {
  auto loc = MakeLoc(4 * 128 * 1024, 128 * 1024, /*trim=*/true);
  const std::string v(100000, 'd');
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(loc.Insert("key" + std::to_string(i), v));
  }
  EXPECT_GT(device_->stats().trims, 0u);
}

TEST_F(LocTest, AlwaAccountsWholeRegionWrites) {
  auto loc = MakeLoc(8 * 128 * 1024);
  ASSERT_TRUE(loc.Insert("k", std::string(1000, 'e')));
  ASSERT_TRUE(loc.Flush());
  // One 1 KB item cost a whole 128 KiB region write.
  EXPECT_GT(loc.stats().Alwa(), 50.0);
}

TEST_F(LocTest, OracleConsistencyUnderChurn) {
  auto loc = MakeLoc(6 * 128 * 1024);
  Rng rng(17);
  std::unordered_map<std::string, std::string> oracle;
  for (int i = 0; i < 400; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBelow(60));
    std::string value(rng.NextInRange(2000, 30000), static_cast<char>('a' + i % 26));
    if (loc.Insert(key, value)) {
      oracle[key] = std::move(value);
    }
  }
  for (const auto& [key, expected] : oracle) {
    const auto got = loc.Lookup(key);
    if (got.has_value()) {
      EXPECT_EQ(*got, expected) << key;
    }
  }
}

TEST_F(LocTest, IndexMemoryReflectsDramOverhead) {
  auto loc = MakeLoc(8 * 128 * 1024);
  EXPECT_EQ(loc.IndexMemoryBytes(), 0u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(loc.Insert("key" + std::to_string(i), std::string(2000, 'm')));
  }
  EXPECT_GT(loc.IndexMemoryBytes(), 0u);
}

}  // namespace
}  // namespace fdpcache
