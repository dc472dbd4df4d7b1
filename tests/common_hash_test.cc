#include "src/common/hash.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace fdpcache {
namespace {

TEST(HashTest, Mix64IsDeterministic) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
}

TEST(HashTest, Mix64ZeroIsNotZero) {
  // Mix64 is bijective; only input 0 maps to 0 for fmix64, keys are offset.
  EXPECT_NE(HashU64(0), 0u);
}

TEST(HashTest, HashStringMatchesHashBytes) {
  const std::string s = "hello world";
  EXPECT_EQ(HashString(s), HashBytes(s.data(), s.size()));
}

TEST(HashTest, EmptyStringHashStable) {
  EXPECT_EQ(HashString(""), HashString(std::string_view{}));
}

TEST(HashTest, NoCollisionsOverSequentialKeys) {
  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 100000; ++k) {
    seen.insert(HashU64(k));
  }
  EXPECT_EQ(seen.size(), 100000u);
}

TEST(HashTest, BucketDistributionIsUniform) {
  // Hashing sequential keys into 64 buckets should be close to uniform: this
  // is the property the SOC's set-associative placement depends on.
  constexpr int kBuckets = 64;
  constexpr int kKeys = 640000;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ++counts[HashU64(k) % kBuckets];
  }
  const double expect = static_cast<double>(kKeys) / kBuckets;
  for (const int c : counts) {
    EXPECT_NEAR(c, expect, expect * 0.05);
  }
}

TEST(HashTest, SmallInputPerturbationChangesHash) {
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString("abc"), HashString("abc "));
}

// HashString places every item (SOC bucket, bloom bits, RAM bucket, shard):
// a different function would move hit ratio and DLWA on every workload.
TEST(HashTest, PlacementHashIsPinned) {
  EXPECT_EQ(HashString(""), 0xefd01f60ba992926ull);
  EXPECT_EQ(HashString("hello world"), 0x7c6d8c019b6ee5d5ull);
  EXPECT_EQ(HashString("k0000000000000000"), 0xf726c55625a62e64ull);
  EXPECT_EQ(HashString("k000000000000002a"), 0xce1b1d595779ddc1ull);
  EXPECT_EQ(HashString("k000000000001e240"), 0xc2cf881096d33e9dull);
}

// ChecksumBytes is XXH64 (seed 0); these are the published reference values.
TEST(HashTest, ChecksumMatchesXxh64ReferenceVectors) {
  EXPECT_EQ(ChecksumBytes("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(ChecksumBytes("a", 1), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(ChecksumBytes("abc", 3), 0x44bc2cf5ad770999ull);
  const std::string stripes = "Nobody inspects the spammish repetition";
  EXPECT_EQ(ChecksumBytes(stripes.data(), stripes.size()), 0xfbcea83c8a378bf1ull);
}

// The SOC bucket checksum is on flash: a change to it makes every stored
// bucket read as corrupt, so it must only ever change deliberately. The
// lengths cover each path: tail bytes, one word, words + tail, one stripe,
// stripes + tail, and a full bucket payload.
TEST(HashTest, ChecksumIsPinnedAtEveryPathLength) {
  std::vector<unsigned char> bytes(4080);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  const auto checksum = [&](size_t len) { return ChecksumBytes(bytes.data(), len); };
  EXPECT_EQ(checksum(0), 0xef46db3751d8e999ull);
  EXPECT_EQ(checksum(1), 0xa96c7f0ce858bbb7ull);
  EXPECT_EQ(checksum(7), 0x2744460dd675d2c0ull);
  EXPECT_EQ(checksum(8), 0x994b676b71ce94ddull);
  EXPECT_EQ(checksum(31), 0x6711d55e306b5d8full);
  EXPECT_EQ(checksum(32), 0x07f7b8e3bc5d6e25ull);
  EXPECT_EQ(checksum(33), 0x09f85eeb4e1cbe9full);
  EXPECT_EQ(checksum(4080), 0x31a266a3950b062aull);
}

}  // namespace
}  // namespace fdpcache
