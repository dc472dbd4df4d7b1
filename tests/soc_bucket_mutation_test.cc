// Malformed-input hardening for the SOC bucket parser. Seeded mutations
// corrupt valid bucket images (flipped bytes, rewritten entry counts,
// payload lengths and entry size fields), and the test usually re-seals the
// checksum afterwards, so the structural bounds checks are what gets
// exercised, not only the checksum. Every image must either be rejected or
// parse into entries that exactly fill the payload inside the image, and a
// rewrite of any accepted image must itself parse. Images live in
// exactly-sized heap buffers, so under ASan any read outside them aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/navy/bucket.h"

namespace fdpcache {
namespace {

constexpr uint64_t kCapacity = 4096;

uint32_t GetU32(const std::vector<uint8_t>& image, size_t at) {
  uint32_t v;
  std::memcpy(&v, image.data() + at, sizeof(v));
  return v;
}
void PutU32(std::vector<uint8_t>* image, size_t at, uint32_t v) {
  std::memcpy(image->data() + at, &v, sizeof(v));
}
void PutU16(std::vector<uint8_t>* image, size_t at, uint16_t v) {
  std::memcpy(image->data() + at, &v, sizeof(v));
}

// A valid image holding a random FIFO of entries (keys 0-24 B, values
// 0-2000 B, so buckets hold from one to dozens of entries).
std::vector<uint8_t> RandomValidImage(Rng* rng) {
  std::vector<uint8_t> image(kCapacity);
  std::vector<uint8_t> spare(kCapacity);
  Bucket bucket(kCapacity);
  const uint64_t inserts = rng->NextInRange(1, 40);
  for (uint64_t i = 0; i < inserts; ++i) {
    const std::string key(rng->NextBelow(25), static_cast<char>('a' + rng->NextBelow(26)));
    const uint64_t value_size = rng->NextBool(0.5) ? rng->NextBelow(64) : rng->NextBelow(2001);
    std::string value(value_size, '\0');
    for (char& c : value) {
      c = static_cast<char>(rng->Next());
    }
    if (const std::optional<Bucket> next = bucket.InsertInto(key, value, spare.data(), nullptr)) {
      bucket = *next;
      image.swap(spare);
    }
  }
  return image;
}

// Offsets of the entry headers of a valid image (before any mutation).
std::vector<size_t> EntryOffsets(const std::vector<uint8_t>& image) {
  std::vector<size_t> offsets;
  const std::optional<Bucket> bucket = Bucket::Parse(image.data(), kCapacity);
  for (Bucket::Iterator it = bucket->begin(); it != bucket->end(); ++it) {
    offsets.push_back(static_cast<size_t>(it.position() - image.data()));
  }
  return offsets;
}

// A value near `v`, or a random one, or an extreme.
uint32_t Perturb(Rng* rng, uint32_t v) {
  switch (rng->NextBelow(4)) {
    case 0:
      return v + static_cast<uint32_t>(rng->NextInRange(1, 8));
    case 1:
      return v - static_cast<uint32_t>(rng->NextInRange(1, 8));
    case 2:
      return static_cast<uint32_t>(rng->Next());
    default:
      return rng->NextBool(0.5) ? 0u : 0xffffffffu;
  }
}

void Mutate(Rng* rng, std::vector<uint8_t>* image, const std::vector<size_t>& entries) {
  const uint32_t payload_len = GetU32(*image, 12);
  switch (rng->NextBelow(5)) {
    case 0: {  // Flip a byte anywhere in the header or payload.
      const uint64_t span = std::min<uint64_t>(Bucket::kHeaderBytes + payload_len, kCapacity);
      (*image)[rng->NextBelow(span)] ^= static_cast<uint8_t>(rng->NextInRange(1, 255));
      break;
    }
    case 1:  // Rewrite the entry count.
      PutU32(image, 8, Perturb(rng, GetU32(*image, 8)));
      break;
    case 2: {  // Rewrite the payload length, often to just past the capacity.
      uint32_t len = Perturb(rng, payload_len);
      if (rng->NextBool(0.3)) {
        len = static_cast<uint32_t>(kCapacity - Bucket::kHeaderBytes + rng->NextBelow(3));
      }
      PutU32(image, 12, len);
      break;
    }
    case 3:  // Rewrite one entry's key or value size.
      if (!entries.empty()) {
        const size_t at = entries[rng->NextBelow(entries.size())];
        if (rng->NextBool(0.5)) {
          uint16_t key_size;
          std::memcpy(&key_size, image->data() + at, sizeof(key_size));
          PutU16(image, at, static_cast<uint16_t>(Perturb(rng, key_size)));
        } else {
          PutU32(image, at + 2, Perturb(rng, GetU32(*image, at + 2)));
        }
      }
      break;
    default:  // Truncate or extend the payload to an entry boundary.
      if (!entries.empty()) {
        const size_t at = entries[rng->NextBelow(entries.size())];
        PutU32(image, 12, static_cast<uint32_t>(at - Bucket::kHeaderBytes));
      }
      break;
  }
}

// Re-seals the checksum over the (possibly bogus) payload length, clamped
// to the image, as a writer that trusted the mutated header would have.
void Reseal(std::vector<uint8_t>* image) {
  const uint64_t len = std::min<uint64_t>(GetU32(*image, 12), kCapacity - Bucket::kHeaderBytes);
  const uint64_t checksum = ChecksumBytes(image->data() + Bucket::kHeaderBytes, len);
  PutU32(image, 4, static_cast<uint32_t>(checksum));
}

// An accepted image must describe itself exactly and stay inside its buffer.
void CheckAccepted(const std::vector<uint8_t>& image, const Bucket& bucket) {
  const auto* lo = reinterpret_cast<const char*>(image.data());
  const auto* hi = lo + image.size();
  uint64_t sum = 0;
  size_t count = 0;
  for (const Bucket::Entry entry : bucket) {
    ASSERT_GE(entry.key.data(), lo);
    ASSERT_LE(entry.value.data() + entry.value.size(), hi);
    sum += entry.bytes();
    ++count;
  }
  EXPECT_EQ(count, bucket.num_entries());
  EXPECT_EQ(Bucket::kHeaderBytes + sum, bucket.used_bytes());
  EXPECT_LE(bucket.used_bytes(), kCapacity);
  if (GetU32(image, 0) != 0) {
    EXPECT_EQ(sum, GetU32(image, 12));
    EXPECT_EQ(count, GetU32(image, 8));
  }
}

TEST(SocBucketMutationTest, MutatedImagesAreRejectedOrSelfConsistent) {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (int round = 0; round < 500; ++round) {
      const std::vector<uint8_t> valid = RandomValidImage(&rng);
      const std::vector<size_t> entries = EntryOffsets(valid);
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<uint8_t> image = valid;
        const uint64_t mutations = rng.NextInRange(1, 3);
        for (uint64_t m = 0; m < mutations; ++m) {
          Mutate(&rng, &image, entries);
        }
        if (rng.NextBool(0.9)) {
          Reseal(&image);
        }
        const std::optional<Bucket> bucket = Bucket::Parse(image.data(), kCapacity);
        if (!bucket.has_value()) {
          ++rejected;
          continue;
        }
        ++accepted;
        ASSERT_NO_FATAL_FAILURE(CheckAccepted(image, *bucket)) << "seed " << seed;
        // Rewrites of an accepted image are valid images again.
        std::vector<uint8_t> out(kCapacity);
        const std::optional<Bucket> rewritten =
            bucket->InsertInto("mutation-probe", std::string(rng.NextBelow(600), 'p'),
                               out.data(), nullptr);
        ASSERT_TRUE(rewritten.has_value());
        ASSERT_TRUE(Bucket::Parse(out.data(), kCapacity).has_value());
        if (bucket->num_entries() > 0) {
          const std::string key((*bucket->begin()).key);
          ASSERT_TRUE(bucket->RemoveInto(key, out.data()).has_value());
          ASSERT_TRUE(Bucket::Parse(out.data(), kCapacity).has_value());
        }
      }
    }
  }
  // The mutations must reach both verdicts: value-byte flips with a re-sealed
  // checksum are legal images, and most structural edits are not.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 10000u);
  std::printf("mutated images: %llu accepted, %llu rejected\n",
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(rejected));
}

}  // namespace
}  // namespace fdpcache
