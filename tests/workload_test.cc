#include <gtest/gtest.h>

#include <map>

#include "src/workload/workload.h"
#include "src/workload/zipf.h"

namespace fdpcache {
namespace {

TEST(ZipfTest, SamplesWithinRange) {
  ZipfSampler zipf(1000, 0.9);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t rank = zipf.Sample(rng);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 1000u);
  }
}

TEST(ZipfTest, RankOneIsMostPopular) {
  ZipfSampler zipf(10000, 1.0);
  Rng rng(2);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[1000]);
}

TEST(ZipfTest, FrequencyMatchesPowerLaw) {
  // For alpha = 1, P(1)/P(10) should be ~10.
  ZipfSampler zipf(100000, 1.0);
  Rng rng(3);
  int rank1 = 0;
  int rank10 = 0;
  for (int i = 0; i < 2000000; ++i) {
    const uint64_t r = zipf.Sample(rng);
    rank1 += r == 1;
    rank10 += r == 10;
  }
  ASSERT_GT(rank10, 0);
  EXPECT_NEAR(static_cast<double>(rank1) / rank10, 10.0, 3.0);
}

TEST(ZipfTest, AlphaZeroIsUniform) {
  ZipfSampler zipf(100, 0.0);
  Rng rng(4);
  std::map<uint64_t, int> counts;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  for (uint64_t rank = 1; rank <= 100; ++rank) {
    EXPECT_NEAR(counts[rank], kN / 100, kN / 100 * 0.25) << rank;
  }
}

TEST(ZipfTest, SingleElementDegenerate) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(5);
  EXPECT_EQ(zipf.Sample(rng), 1u);
}

TEST(KvTraceGeneratorTest, OpMixMatchesConfig) {
  KvWorkloadConfig config = KvWorkloadConfig::MetaKvCache();
  config.num_keys = 10000;
  KvTraceGenerator gen(config);
  int gets = 0;
  int sets = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const auto op = gen.Next();
    ASSERT_TRUE(op.has_value());
    gets += op->type == OpType::kGet;
    sets += op->type == OpType::kSet;
  }
  // KV Cache is 4:1 GET:SET.
  EXPECT_NEAR(static_cast<double>(gets) / sets, 4.0, 0.4);
}

TEST(KvTraceGeneratorTest, TwitterPresetIsWriteHeavy) {
  KvWorkloadConfig config = KvWorkloadConfig::TwitterCluster12();
  config.num_keys = 10000;
  KvTraceGenerator gen(config);
  int gets = 0;
  int sets = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto op = gen.Next();
    gets += op->type == OpType::kGet;
    sets += op->type == OpType::kSet;
  }
  EXPECT_NEAR(static_cast<double>(sets) / gets, 4.0, 0.4);
}

TEST(KvTraceGeneratorTest, WriteOnlyPresetHasNoGets) {
  KvWorkloadConfig config = KvWorkloadConfig::WriteOnlyKvCache();
  config.num_keys = 1000;
  KvTraceGenerator gen(config);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(gen.Next()->type, OpType::kSet);
  }
}

TEST(KvTraceGeneratorTest, SizesAreStablePerKey) {
  KvWorkloadConfig config = KvWorkloadConfig::MetaKvCache();
  config.num_keys = 1000;
  KvTraceGenerator gen(config);
  std::map<uint64_t, uint32_t> sizes;
  for (int i = 0; i < 50000; ++i) {
    const auto op = gen.Next();
    const auto it = sizes.find(op->key_id);
    if (it == sizes.end()) {
      sizes[op->key_id] = op->value_size;
    } else {
      ASSERT_EQ(it->second, op->value_size) << op->key_id;
    }
  }
}

TEST(KvTraceGeneratorTest, SmallObjectsDominate) {
  KvWorkloadConfig config = KvWorkloadConfig::MetaKvCache();
  config.num_keys = 100000;
  KvTraceGenerator gen(config);
  int small = 0;
  int total = 0;
  for (int i = 0; i < 100000; ++i) {
    const auto op = gen.Next();
    small += op->value_size <= config.small_value_max;
    ++total;
  }
  // Default mixture: ~85% of accesses are small objects.
  EXPECT_GT(static_cast<double>(small) / total, 0.8);
}

TEST(KvTraceGeneratorTest, DeterministicForSeed) {
  KvWorkloadConfig config = KvWorkloadConfig::MetaKvCache(7);
  config.num_keys = 1000;
  KvTraceGenerator a(config);
  KvTraceGenerator b(config);
  for (int i = 0; i < 1000; ++i) {
    const auto op_a = a.Next();
    const auto op_b = b.Next();
    EXPECT_EQ(op_a->key_id, op_b->key_id);
    EXPECT_EQ(op_a->type, op_b->type);
  }
}

TEST(ValuePayloadTest, DeterministicAndVersioned) {
  const std::string v1 = ValuePayload(42, 1, 100);
  EXPECT_EQ(v1.size(), 100u);
  EXPECT_EQ(v1, ValuePayload(42, 1, 100));
  EXPECT_NE(v1, ValuePayload(42, 2, 100));
  EXPECT_NE(v1, ValuePayload(43, 1, 100));
}

TEST(KeyStringTest, FixedWidthAndUnique) {
  EXPECT_EQ(KeyString(0).size(), KeyString(~0ull).size());
  EXPECT_NE(KeyString(1), KeyString(2));
}

}  // namespace
}  // namespace fdpcache
