#include "src/cache/ram_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "src/cache/hybrid_cache.h"
#include "src/common/clock.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"

// Counts every heap allocation in this binary, so a test can prove what a
// write path costs in allocations.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined `delete` with malloc.
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fdpcache {
namespace {

// Allocations made by `fn`.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  const uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(RamCacheTest, PutGetRoundTrip) {
  RamCache cache(1 << 20);
  ASSERT_TRUE(cache.Put("k", "v"));
  std::string value;
  ASSERT_TRUE(cache.Get("k", &value));
  EXPECT_EQ(value, "v");
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RamCacheTest, MissOnAbsent) {
  RamCache cache(1 << 20);
  std::string value;
  EXPECT_FALSE(cache.Get("absent", &value));
}

TEST(RamCacheTest, UpdateReplacesValueAndAdjustsBytes) {
  RamCache cache(1 << 20);
  ASSERT_TRUE(cache.Put("k", std::string(100, 'a')));
  const uint64_t used_small = cache.used_bytes();
  ASSERT_TRUE(cache.Put("k", std::string(1000, 'b')));
  EXPECT_GT(cache.used_bytes(), used_small);
  EXPECT_EQ(cache.size(), 1u);
  std::string value;
  ASSERT_TRUE(cache.Get("k", &value));
  EXPECT_EQ(value, std::string(1000, 'b'));
}

TEST(RamCacheTest, EvictsLruWhenOverBudget) {
  RamCache cache(10 * (100 + 1 + RamCache::kPerItemOverhead));
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cache.Put(std::to_string(i), std::string(100, 'x')));
  }
  EXPECT_LE(cache.used_bytes(), cache.budget_bytes());
  EXPECT_GE(cache.stats().evictions, 2u);
  // Oldest entries were evicted, newest remain.
  EXPECT_FALSE(cache.Contains("0"));
  EXPECT_TRUE(cache.Contains("11"));
}

TEST(RamCacheTest, GetPromotesToMru) {
  RamCache cache(3 * (1 + 100 + RamCache::kPerItemOverhead));
  ASSERT_TRUE(cache.Put("a", std::string(100, 'x')));
  ASSERT_TRUE(cache.Put("b", std::string(100, 'x')));
  ASSERT_TRUE(cache.Put("c", std::string(100, 'x')));
  std::string value;
  ASSERT_TRUE(cache.Get("a", &value));  // Promote "a".
  ASSERT_TRUE(cache.Put("d", std::string(100, 'x')));  // Evicts LRU = "b".
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
}

TEST(RamCacheTest, EvictionCallbackReceivesItems) {
  RamCache cache(2 * (1 + 10 + RamCache::kPerItemOverhead));
  std::vector<std::string> evicted;
  cache.set_eviction_callback(
      [&](std::string_view key, std::string_view) { evicted.emplace_back(key); });
  ASSERT_TRUE(cache.Put("a", std::string(10, 'x')));
  ASSERT_TRUE(cache.Put("b", std::string(10, 'x')));
  ASSERT_TRUE(cache.Put("c", std::string(10, 'x')));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "a");
}

TEST(RamCacheTest, ItemLargerThanBudgetRejected) {
  RamCache cache(100);
  EXPECT_FALSE(cache.Put("k", std::string(200, 'x')));
  EXPECT_EQ(cache.stats().rejected_too_large, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RamCacheTest, RemoveFreesBudget) {
  RamCache cache(1 << 20);
  ASSERT_TRUE(cache.Put("k", std::string(100, 'x')));
  EXPECT_TRUE(cache.Remove("k"));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.Remove("k"));
}

TEST(RamCacheTest, UsedBytesNeverExceedsBudgetUnderChurn) {
  RamCache cache(4096);
  for (int i = 0; i < 1000; ++i) {
    cache.Put(std::to_string(i % 37), std::string(1 + i % 200, 'x'));
    ASSERT_LE(cache.used_bytes(), cache.budget_bytes());
  }
}

// The counted costs of the write path. An item is one heap block (header,
// key and value together) plus its eviction-index entry; eviction hands the
// victim to the callback as views, with no copy.
constexpr std::string_view kKey17 = "seventeen-byte-ky";
static_assert(kKey17.size() == 17);

TEST(RamCacheTest, UpdatePutAllocatesNodeAndIndexEntryOnly) {
  RamCache cache(1 << 20);
  const std::string first(100, 'a');
  const std::string second(100, 'b');
  ASSERT_TRUE(cache.Put(kKey17, first));
  EXPECT_EQ(CountAllocations([&] { ASSERT_TRUE(cache.Put(kKey17, second)); }), 2u);
  std::string value;
  ASSERT_TRUE(cache.Get(kKey17, &value));
  EXPECT_EQ(value, second);
}

TEST(RamCacheTest, EvictingInsertHandsOverViewsWithoutCopies) {
  const std::string value(100, 'x');
  RamCache cache(2 * (kKey17.size() + value.size() + RamCache::kPerItemOverhead));
  size_t evicted = 0;
  bool victim_intact = false;
  cache.set_eviction_callback([&](std::string_view key, std::string_view victim_value) {
    ++evicted;
    victim_intact = key == "first-of-17-bytes" && victim_value == value;
  });
  ASSERT_TRUE(cache.Put("first-of-17-bytes", value));
  ASSERT_TRUE(cache.Put("secnd-of-17-bytes", value));
  EXPECT_EQ(CountAllocations([&] { ASSERT_TRUE(cache.Put(kKey17, value)); }), 2u);
  EXPECT_EQ(evicted, 1u);
  EXPECT_TRUE(victim_intact);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(RamCacheTest, HybridSetOfStaleKeyAllocatesOnlyInDram) {
  SsdConfig ssd_config;
  ssd_config.geometry.pages_per_block = 16;
  ssd_config.geometry.planes_per_die = 2;
  ssd_config.geometry.num_dies = 4;
  ssd_config.geometry.num_superblocks = 32;
  ssd_config.op_fraction = 0.15;
  SimulatedSsd ssd(ssd_config);
  const uint32_t nsid = *ssd.CreateNamespace(ssd.logical_capacity_bytes());
  VirtualClock clock;
  SimSsdDevice device(&ssd, nsid, &clock);
  HybridCacheConfig config;
  config.ram_bytes = 1 << 20;
  config.navy.small_item_max_bytes = 1024;
  config.navy.soc_fraction = 0.10;
  config.navy.loc_region_size = 128 * 1024;
  HybridCache cache(&device, config);

  const std::string value(100, 'v');
  cache.Set(kKey17, value);  // First Set marks the key's flash copy stale.
  // A resident, already-stale key: the staleness probe allocates nothing,
  // so the Set costs exactly the DRAM update (node + index entry).
  EXPECT_EQ(CountAllocations([&] { cache.Set(kKey17, value); }), 2u);
  std::string out;
  ASSERT_TRUE(cache.Get(kKey17, &out));
  EXPECT_EQ(out, value);
}

}  // namespace
}  // namespace fdpcache
