#include "src/navy/bucket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <new>
#include <string>
#include <vector>

#include "src/common/rng.h"

// Counts every heap allocation in this binary, so a test can prove a code
// path allocates nothing (or exactly what it returns).
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

constexpr uint64_t kCapacity = 4096;

// A bucket that owns its image: each rewrite goes to the spare of two
// buffers, the way the SOC writes a new image beside the one it read.
class OwnedBucket {
 public:
  OwnedBucket() : images_{std::vector<uint8_t>(kCapacity), std::vector<uint8_t>(kCapacity)} {}
  // The view points into the images' heap bytes, which a move keeps.
  OwnedBucket(OwnedBucket&&) = default;
  OwnedBucket(const OwnedBucket&) = delete;

  bool Insert(std::string_view key, std::string_view value, uint64_t* evicted = nullptr) {
    return Commit(bucket_.InsertInto(key, value, Spare(), evicted));
  }
  bool Remove(std::string_view key) { return Commit(bucket_.RemoveInto(key, Spare())); }

  const Bucket& bucket() const { return bucket_; }
  const std::vector<uint8_t>& image() const { return images_[current_]; }

 private:
  uint8_t* Spare() { return images_[current_ ^ 1].data(); }
  bool Commit(const std::optional<Bucket>& next) {
    if (!next.has_value()) {
      return false;
    }
    bucket_ = *next;
    current_ ^= 1;
    return true;
  }

  std::vector<uint8_t> images_[2];
  int current_ = 0;
  Bucket bucket_{kCapacity};
};

std::optional<std::string> FindString(const Bucket& bucket, std::string_view key) {
  const std::optional<std::string_view> found = bucket.Find(key);
  if (!found.has_value()) {
    return std::nullopt;
  }
  return std::string(*found);
}

void PutU32(std::vector<uint8_t>* image, size_t at, uint32_t v) {
  std::memcpy(image->data() + at, &v, sizeof(v));
}
uint32_t GetU32(const std::vector<uint8_t>& image, size_t at) {
  uint32_t v;
  std::memcpy(&v, image.data() + at, sizeof(v));
  return v;
}

TEST(BucketTest, AllZeroStorageIsEmptyBucket) {
  std::vector<uint8_t> image(kCapacity, 0);
  const auto parsed = Bucket::Parse(image.data(), kCapacity);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_entries(), 0u);
  EXPECT_EQ(parsed->used_bytes(), Bucket::kHeaderBytes);
  EXPECT_FALSE(parsed->Find("").has_value());
}

TEST(BucketTest, RemovingTheLastEntryLeavesAValidEmptyImage) {
  OwnedBucket owned;
  ASSERT_TRUE(owned.Insert("k", "v"));
  ASSERT_TRUE(owned.Remove("k"));
  EXPECT_EQ(GetU32(owned.image(), 0), Bucket::kMagic);
  const auto parsed = Bucket::Parse(owned.image().data(), kCapacity);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_entries(), 0u);
  EXPECT_EQ(parsed->used_bytes(), Bucket::kHeaderBytes);
}

TEST(BucketTest, InsertFindRoundTrip) {
  OwnedBucket owned;
  uint64_t evicted = 0;
  ASSERT_TRUE(owned.Insert("key1", "value1", &evicted));
  ASSERT_TRUE(owned.Insert("key2", "value2", &evicted));
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(FindString(owned.bucket(), "key1"), "value1");
  EXPECT_EQ(FindString(owned.bucket(), "key2"), "value2");
  EXPECT_FALSE(owned.bucket().Find("key3").has_value());
}

TEST(BucketTest, ParsePreservesEntriesOldestFirst) {
  OwnedBucket owned;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(owned.Insert("key" + std::to_string(i), std::string(100, 'a' + i)));
  }
  const auto parsed = Bucket::Parse(owned.image().data(), kCapacity);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->num_entries(), 8u);
  int i = 0;
  for (const Bucket::Entry entry : *parsed) {
    EXPECT_EQ(entry.key, "key" + std::to_string(i));
    EXPECT_EQ(entry.value, std::string(100, 'a' + i));
    ++i;
  }
  EXPECT_EQ(i, 8);
  EXPECT_EQ(parsed->used_bytes(), owned.bucket().used_bytes());
}

TEST(BucketTest, InsertReplacesSameKey) {
  OwnedBucket owned;
  uint64_t evicted = 0;
  ASSERT_TRUE(owned.Insert("k", "old", &evicted));
  ASSERT_TRUE(owned.Insert("k", "new", &evicted));
  EXPECT_EQ(owned.bucket().num_entries(), 1u);
  EXPECT_EQ(FindString(owned.bucket(), "k"), "new");
  EXPECT_EQ(evicted, 0u);  // Replacement is not an eviction.
}

TEST(BucketTest, FifoEvictionWhenFull) {
  OwnedBucket owned;
  uint64_t evicted = 0;
  // ~500-byte entries: 8 fit, the 9th evicts the oldest.
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(owned.Insert("key" + std::to_string(i), std::string(480, 'x'), &evicted));
  }
  EXPECT_EQ(evicted, 1u);
  EXPECT_FALSE(owned.bucket().Find("key0").has_value());
  EXPECT_TRUE(owned.bucket().Find("key1").has_value());
  EXPECT_TRUE(owned.bucket().Find("key8").has_value());
  EXPECT_LE(owned.bucket().used_bytes(), kCapacity);
}

TEST(BucketTest, OversizeEntryRejectedWithoutTouchingTheOutput) {
  OwnedBucket owned;
  std::vector<uint8_t> out(kCapacity, 0xee);
  EXPECT_FALSE(owned.bucket().InsertInto("k", std::string(5000, 'x'), out.data(), nullptr));
  EXPECT_EQ(out, std::vector<uint8_t>(kCapacity, 0xee));
  EXPECT_FALSE(owned.bucket().RemoveInto("absent", out.data()));
  EXPECT_EQ(out, std::vector<uint8_t>(kCapacity, 0xee));
  // Exactly-fitting entry accepted.
  const uint64_t max_value = kCapacity - Bucket::kHeaderBytes - Bucket::kPerEntryOverhead - 1;
  EXPECT_TRUE(owned.Insert("k", std::string(max_value, 'x')));
  EXPECT_EQ(owned.bucket().used_bytes(), kCapacity);
}

TEST(BucketTest, RemoveFreesSpace) {
  OwnedBucket owned;
  ASSERT_TRUE(owned.Insert("k", std::string(1000, 'x')));
  const uint64_t used = owned.bucket().used_bytes();
  EXPECT_TRUE(owned.Remove("k"));
  EXPECT_LT(owned.bucket().used_bytes(), used);
  EXPECT_FALSE(owned.Remove("k"));
}

TEST(BucketTest, CorruptedChecksumRejected) {
  OwnedBucket owned;
  ASSERT_TRUE(owned.Insert("k", "v"));
  std::vector<uint8_t> image = owned.image();
  image[Bucket::kHeaderBytes + 2] ^= 0xff;  // Flip a byte inside the payload.
  EXPECT_FALSE(Bucket::Parse(image.data(), kCapacity).has_value());
}

TEST(BucketTest, CorruptedMagicRejected) {
  std::vector<uint8_t> image(kCapacity, 0);
  image[0] = 0xde;
  image[1] = 0xad;
  EXPECT_FALSE(Bucket::Parse(image.data(), kCapacity).has_value());
}

TEST(BucketTest, TruncatedPayloadLengthRejected) {
  OwnedBucket owned;
  ASSERT_TRUE(owned.Insert("k", "v"));
  std::vector<uint8_t> image = owned.image();
  PutU32(&image, 12, 1u << 30);  // Claim a payload larger than the capacity.
  EXPECT_FALSE(Bucket::Parse(image.data(), kCapacity).has_value());
}

TEST(BucketTest, EntryCountMustMatchThePayload) {
  OwnedBucket owned;
  ASSERT_TRUE(owned.Insert("a", "1"));
  ASSERT_TRUE(owned.Insert("b", "2"));
  for (const uint32_t count : {0u, 1u, 3u, 0xffffffffu}) {
    std::vector<uint8_t> image = owned.image();
    PutU32(&image, 8, count);
    EXPECT_FALSE(Bucket::Parse(image.data(), kCapacity).has_value()) << count;
  }
}

// Flipping any single header or payload byte of a valid image is rejected:
// the checksum covers the payload and the structural checks the header.
TEST(BucketTest, SingleByteCorruptionSweep) {
  OwnedBucket owned;
  Rng rng(7);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(owned.Insert("key" + std::to_string(i),
                             std::string(rng.NextInRange(64, 1024), static_cast<char>('a' + i))));
  }
  const uint64_t used = owned.bucket().used_bytes();
  ASSERT_GT(used, kCapacity / 2);
  for (uint64_t at = 0; at < used; ++at) {
    for (const uint8_t flip : {0x01, 0x80, 0xff}) {
      std::vector<uint8_t> image = owned.image();
      image[at] ^= flip;
      ASSERT_FALSE(Bucket::Parse(image.data(), kCapacity).has_value())
          << "byte " << at << " ^ " << int{flip};
    }
  }
}

// Reference model: the FIFO bucket as a deque of owned entries, serialized
// the way the on-flash format is specified.
class ModelBucket {
 public:
  bool Insert(const std::string& key, const std::string& value, uint64_t* evicted) {
    const uint64_t need = Bucket::EntryBytes(key, value);
    if (Bucket::kHeaderBytes + need > kCapacity) {
      return false;
    }
    Remove(key);
    while (used_ + need > kCapacity) {
      used_ -= Bucket::EntryBytes(entries_.front().first, entries_.front().second);
      entries_.pop_front();
      ++*evicted;
    }
    entries_.emplace_back(key, value);
    used_ += need;
    return true;
  }
  bool Remove(const std::string& key) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        used_ -= Bucket::EntryBytes(it->first, it->second);
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }
  const std::string* Find(const std::string& key) const {
    for (const auto& [k, v] : entries_) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  std::vector<uint8_t> Serialize() const {
    std::vector<uint8_t> image(kCapacity, 0);
    size_t at = Bucket::kHeaderBytes;
    for (const auto& [k, v] : entries_) {
      const uint16_t key_size = static_cast<uint16_t>(k.size());
      const uint32_t value_size = static_cast<uint32_t>(v.size());
      std::memcpy(image.data() + at, &key_size, 2);
      std::memcpy(image.data() + at + 2, &value_size, 4);
      std::memcpy(image.data() + at + 6, k.data(), k.size());
      std::memcpy(image.data() + at + 6 + k.size(), v.data(), v.size());
      at += Bucket::EntryBytes(k, v);
    }
    PutU32(&image, 0, Bucket::kMagic);
    PutU32(&image, 8, static_cast<uint32_t>(entries_.size()));
    PutU32(&image, 12, static_cast<uint32_t>(at - Bucket::kHeaderBytes));
    return image;
  }
  size_t size() const { return entries_.size(); }
  uint64_t used_bytes() const { return used_; }

 private:
  std::deque<std::pair<std::string, std::string>> entries_;
  uint64_t used_ = Bucket::kHeaderBytes;
};

TEST(BucketTest, MatchesDequeModelUnderRandomOps) {
  Rng rng(20250404);
  for (int trial = 0; trial < 20; ++trial) {
    OwnedBucket owned;
    ModelBucket model;
    uint64_t evicted = 0;
    uint64_t model_evicted = 0;
    bool written = false;  // The all-zero initial image has no header.
    std::vector<std::string> keys;
    for (int k = 0; k < 12; ++k) {
      keys.push_back(std::string(rng.NextInRange(1, 20), static_cast<char>('A' + k)));
    }
    for (int op = 0; op < 400; ++op) {
      const std::string& key = keys[rng.NextBelow(keys.size())];
      const uint64_t kind = rng.NextBelow(10);
      if (kind < 6) {  // Insert or replace.
        const std::string value(rng.NextInRange(1, 2000),
                                static_cast<char>('a' + rng.NextBelow(26)));
        const bool ok = owned.Insert(key, value, &evicted);
        ASSERT_EQ(ok, model.Insert(key, value, &model_evicted));
        written |= ok;
      } else if (kind < 8) {
        const bool ok = owned.Remove(key);
        ASSERT_EQ(ok, model.Remove(key));
        written |= ok;
      }
      // Every op (finds included) checks the whole observable state.
      for (const std::string& k : keys) {
        const std::string* want = model.Find(k);
        const std::optional<std::string_view> got = owned.bucket().Find(k);
        ASSERT_EQ(got.has_value(), want != nullptr) << "trial " << trial << " op " << op;
        if (want != nullptr) {
          ASSERT_EQ(*got, *want);
        }
      }
      ASSERT_EQ(owned.bucket().num_entries(), model.size());
      ASSERT_EQ(owned.bucket().used_bytes(), model.used_bytes());
      ASSERT_EQ(evicted, model_evicted);
      if (written) {
        std::vector<uint8_t> image = owned.image();
        PutU32(&image, 4, 0);  // The checksum field is the codec's own.
        ASSERT_EQ(image, model.Serialize()) << "trial " << trial << " op " << op;
        ASSERT_TRUE(Bucket::Parse(owned.image().data(), kCapacity).has_value());
      }
    }
  }
}

// A bucket like the SOC's under MetaKvCache: 7 entries of 64-780 B.
OwnedBucket SevenEntryBucket() {
  OwnedBucket owned;
  for (int i = 0; i < 7; ++i) {
    const std::string key = "key" + std::to_string(1000 + i);
    EXPECT_TRUE(owned.Insert(key, std::string(64 + 116 * i, 'v')));
  }
  EXPECT_EQ(owned.bucket().num_entries(), 7u);
  return owned;
}

TEST(BucketTest, LookupAllocatesOnlyTheReturnedValue) {
  const OwnedBucket owned = SevenEntryBucket();
  const uint64_t before = g_allocations.load();
  const std::optional<Bucket> parsed = Bucket::Parse(owned.image().data(), kCapacity);
  const std::optional<std::string_view> found = parsed->Find("key1003");
  const std::string value(*found);
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_GE(value.size(), 64u);
  EXPECT_EQ(allocations, 1u);
}

TEST(BucketTest, RewritesIntoCallerBuffersAllocateNothing) {
  const OwnedBucket owned = SevenEntryBucket();
  std::vector<uint8_t> inserted(kCapacity);
  std::vector<uint8_t> removed(kCapacity);
  const std::string key = "key2000";
  const std::string value(1200, 'n');  // Evicts the two oldest entries.
  uint64_t evicted = 0;
  const uint64_t before = g_allocations.load();
  const std::optional<Bucket> parsed = Bucket::Parse(owned.image().data(), kCapacity);
  const std::optional<Bucket> after_insert =
      parsed->InsertInto(key, value, inserted.data(), &evicted);
  const std::optional<Bucket> after_remove = after_insert->RemoveInto(key, removed.data());
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(evicted, 2u);
  ASSERT_TRUE(after_insert.has_value());
  EXPECT_EQ(after_insert->Find(key), value);
  ASSERT_TRUE(after_remove.has_value());
  EXPECT_FALSE(after_remove->Find(key).has_value());
}

}  // namespace
}  // namespace fdpcache
