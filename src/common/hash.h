// 64-bit hashing for keys and bucket placement, and the checksum of on-flash
// images.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace fdpcache {

// Final avalanche mixer from MurmurHash3 (fmix64); a strong bijective mixer.
constexpr uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

// FNV-1a over bytes, finished with Mix64 for better high-bit diffusion.
// This is the placement hash (SOC buckets, bloom bits, RAM buckets, shard
// routing): changing it moves every item, and with them hit ratio and DLWA.
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return Mix64(h);
}

inline uint64_t HashString(std::string_view s) { return HashBytes(s.data(), s.size()); }

// Hash of an integer key (used for synthetic keyed workloads).
constexpr uint64_t HashU64(uint64_t key) { return Mix64(key + 0x9e3779b97f4a7c15ull); }

namespace hash_internal {

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

constexpr uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

constexpr uint64_t Round(uint64_t acc, uint64_t input) {
  return Rotl(acc + input * kPrime2, 31) * kPrime1;
}

constexpr uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

inline uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Load32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace hash_internal

// Checksum of an on-flash image: XXH64 with seed 0, loading words in native
// byte order (so it matches the reference XXH64 on little-endian hosts).
// Four independent multiply-rotate lanes consume 32-byte stripes, then
// 8-byte words, a 4-byte word and single tail bytes fold into the merged
// accumulator — about a word per cycle where FNV-1a takes several cycles per
// byte. Not a placement hash: only integrity checks may use it.
inline uint64_t ChecksumBytes(const void* data, size_t len) {
  using namespace hash_internal;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (const unsigned char* limit = end - 32; p <= limit; p += 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = kPrime5;
  }
  h += len;
  for (; end - p >= 8; p += 8) {
    h = Rotl(h ^ Round(0, Load64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = Rotl(h ^ (Load32(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = Rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace fdpcache

#endif  // SRC_COMMON_HASH_H_
