#include "src/navy/soc.h"

#include <gtest/gtest.h>

#include <map>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

class SocTest : public ::testing::Test {
 protected:
  SocTest() {
    SsdConfig ssd_config;
    ssd_config.geometry.pages_per_block = 16;
    ssd_config.geometry.planes_per_die = 2;
    ssd_config.geometry.num_dies = 4;
    ssd_config.geometry.num_superblocks = 24;
    ssd_config.op_fraction = 0.2;
    ssd_ = std::make_unique<SimulatedSsd>(ssd_config);
    nsid_ = *ssd_->CreateNamespace(ssd_->logical_capacity_bytes());
    device_ = std::make_unique<SimSsdDevice>(ssd_.get(), nsid_, &clock_);
  }

  SmallObjectCache MakeSoc(uint64_t size_bytes) {
    SocConfig config;
    config.base_offset = 0;
    config.size_bytes = size_bytes;
    config.placement = kNoPlacement;
    return SmallObjectCache(device_.get(), config);
  }

  VirtualClock clock_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::unique_ptr<SimSsdDevice> device_;
  uint32_t nsid_ = 0;
};

TEST_F(SocTest, InsertLookupRoundTrip) {
  auto soc = MakeSoc(64 * 4096);
  ASSERT_TRUE(soc.Insert("hello", "world"));
  const auto value = soc.Lookup("hello");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "world");
  EXPECT_EQ(soc.stats().hits, 1u);
}

TEST_F(SocTest, MissOnAbsentKey) {
  auto soc = MakeSoc(64 * 4096);
  EXPECT_FALSE(soc.Lookup("absent").has_value());
  // Bloom filter short-circuits the device read.
  EXPECT_EQ(soc.stats().bloom_rejects, 1u);
  EXPECT_EQ(device_->stats().reads, 0u);
}

TEST_F(SocTest, UpdateReplacesValue) {
  auto soc = MakeSoc(64 * 4096);
  ASSERT_TRUE(soc.Insert("k", "v1"));
  ASSERT_TRUE(soc.Insert("k", "v2"));
  EXPECT_EQ(*soc.Lookup("k"), "v2");
}

TEST_F(SocTest, RemoveDeletesItem) {
  auto soc = MakeSoc(64 * 4096);
  ASSERT_TRUE(soc.Insert("k", "v"));
  EXPECT_TRUE(soc.Remove("k"));
  EXPECT_FALSE(soc.Lookup("k").has_value());
  EXPECT_FALSE(soc.Remove("k"));
}

TEST_F(SocTest, EveryInsertWritesWholeBucket) {
  auto soc = MakeSoc(64 * 4096);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(soc.Insert("key" + std::to_string(i), "small"));
  }
  EXPECT_EQ(soc.stats().bytes_written, 10u * 4096u);
  // ALWA is large for tiny items: whole 4 KiB bucket per ~10-byte item.
  EXPECT_GT(soc.stats().Alwa(), 100.0);
}

TEST_F(SocTest, CollisionEvictsOldestInBucket) {
  // Single bucket: every key collides; FIFO eviction within the bucket.
  auto soc = MakeSoc(4096);
  EXPECT_EQ(soc.num_buckets(), 1u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(soc.Insert("key" + std::to_string(i), std::string(500, 'x')));
  }
  EXPECT_GT(soc.stats().evictions, 0u);
  EXPECT_FALSE(soc.Lookup("key0").has_value());
  EXPECT_TRUE(soc.Lookup("key9").has_value());
}

TEST_F(SocTest, TooLargeItemRejected) {
  auto soc = MakeSoc(64 * 4096);
  EXPECT_FALSE(soc.Insert("k", std::string(5000, 'x')));
  EXPECT_EQ(soc.stats().insert_failures, 1u);
}

TEST_F(SocTest, BloomFilterRebuiltOnRewrite) {
  auto soc = MakeSoc(4096);
  ASSERT_TRUE(soc.Insert("a", "1"));
  ASSERT_TRUE(soc.Insert("b", "2"));
  ASSERT_TRUE(soc.Remove("a"));
  // "a" was removed and the bloom rebuilt: lookup may still pass the bloom
  // (false positive) but must miss; "b" must still hit.
  EXPECT_FALSE(soc.Lookup("a").has_value());
  EXPECT_TRUE(soc.Lookup("b").has_value());
}

TEST_F(SocTest, UniformSpreadAcrossBuckets) {
  auto soc = MakeSoc(64 * 4096);
  std::map<uint64_t, int> hits;
  for (int i = 0; i < 6400; ++i) {
    ++hits[soc.BucketOf("key" + std::to_string(i))];
  }
  // All 64 buckets used, no bucket wildly over-loaded.
  EXPECT_EQ(hits.size(), 64u);
  for (const auto& [bucket, count] : hits) {
    EXPECT_GT(count, 50);
    EXPECT_LT(count, 200);
  }
}

TEST_F(SocTest, OracleConsistencyUnderChurn) {
  auto soc = MakeSoc(32 * 4096);
  Rng rng(5);
  std::map<std::string, std::string> oracle;  // What *may* be cached.
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "key" + std::to_string(rng.NextBelow(200));
    const std::string value = "v" + std::to_string(i);
    if (soc.Insert(key, value)) {
      oracle[key] = value;
    }
  }
  // A SOC hit must always return the latest inserted value; misses are fine
  // (bucket-FIFO eviction).
  for (const auto& [key, expected] : oracle) {
    const auto got = soc.Lookup(key);
    if (got.has_value()) {
      EXPECT_EQ(*got, expected) << key;
    }
  }
}

TEST_F(SocTest, PlacementHandleTagsWrites) {
  SocConfig config;
  config.base_offset = 0;
  config.size_bytes = 16 * 4096;
  config.placement = 3;  // RUH 2.
  SmallObjectCache soc(device_.get(), config);
  ASSERT_TRUE(soc.Insert("k", "v"));
  // The write landed in an RU owned by RUH 2.
  const auto ppn = ssd_->ftl().LookupPage(soc.BucketOf("k"));
  ASSERT_TRUE(ppn.has_value());
  const uint32_t ru = ssd_->config().geometry.SuperblockOfPpn(*ppn);
  EXPECT_EQ(ssd_->ftl().ru_info(ru).owner, 2);
}

}  // namespace
}  // namespace fdpcache
