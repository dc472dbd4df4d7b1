#include "src/navy/bucket.h"

#include "src/common/hash.h"

namespace fdpcache {

namespace {

uint32_t PayloadChecksum(const uint8_t* payload, uint64_t len) {
  return static_cast<uint32_t>(ChecksumBytes(payload, len));
}

void PutU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
uint16_t GetU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// memcpy that tolerates the null data() of an empty string_view.
void Append(const void* src, size_t n, uint8_t** out) {
  if (n > 0) {
    std::memcpy(*out, src, n);
    *out += n;
  }
}

}  // namespace

std::optional<Bucket> Bucket::Parse(const uint8_t* image, uint64_t capacity_bytes) {
  const uint32_t magic = GetU32(image);
  if (magic == 0) {
    // Never written (deallocated reads return zeroes): an empty bucket.
    return Bucket(capacity_bytes);
  }
  if (magic != kMagic) {
    return std::nullopt;
  }
  const uint32_t checksum = GetU32(image + 4);
  const uint32_t num_entries = GetU32(image + 8);
  const uint32_t payload_len = GetU32(image + 12);
  if (kHeaderBytes + payload_len > capacity_bytes) {
    return std::nullopt;
  }
  const uint8_t* payload = image + kHeaderBytes;
  if (PayloadChecksum(payload, payload_len) != checksum) {
    return std::nullopt;
  }
  // Every entry must lie inside the payload, and together they must fill
  // it exactly; `left` is what remains after the entries walked so far.
  uint64_t left = payload_len;
  for (uint32_t i = 0; i < num_entries; ++i) {
    if (left < kPerEntryOverhead) {
      return std::nullopt;
    }
    const uint8_t* p = payload + (payload_len - left);
    const uint64_t bytes = kPerEntryOverhead + GetU16(p) + uint64_t{GetU32(p + 2)};
    if (bytes > left) {
      return std::nullopt;
    }
    left -= bytes;
  }
  if (left != 0) {
    return std::nullopt;
  }
  return Bucket(capacity_bytes, payload, payload_len, num_entries);
}

Bucket::Iterator Bucket::FindEntry(std::string_view key) const {
  Iterator it = begin();
  while (it != end() && (*it).key != key) {
    ++it;
  }
  return it;
}

std::optional<std::string_view> Bucket::Find(std::string_view key) const {
  const Iterator it = FindEntry(key);
  if (it == end()) {
    return std::nullopt;
  }
  return (*it).value;
}

std::optional<Bucket> Bucket::InsertInto(std::string_view key, std::string_view value,
                                         uint8_t* out, uint64_t* evicted) const {
  const uint64_t need = EntryBytes(key, value);
  if (kHeaderBytes + need > capacity_) {
    return std::nullopt;
  }
  // Replace semantics: the same-key entry goes first, and is not counted as
  // an eviction.
  const Iterator same = FindEntry(key);
  const bool replacing = same != end();
  uint64_t used = used_bytes() - (replacing ? (*same).bytes() : 0);
  uint32_t count = num_entries_ - (replacing ? 1 : 0);
  // FIFO eviction: drop the oldest entries until the new one fits.
  Iterator keep = begin();
  for (; keep != end() && used + need > capacity_; ++keep) {
    if (keep != same) {
      used -= (*keep).bytes();
      --count;
      if (evicted != nullptr) {
        ++*evicted;
      }
    }
  }
  // The survivors are [keep, end) minus the same-key entry if it lies there.
  const uint8_t* skip_begin = payload_end_;
  const uint8_t* skip_end = payload_end_;
  if (replacing && keep.position() <= same.position()) {
    skip_begin = same.position();
    skip_end = skip_begin + (*same).bytes();
  }
  uint8_t* p = out + kHeaderBytes;
  Append(keep.position(), static_cast<size_t>(skip_begin - keep.position()), &p);
  Append(skip_end, static_cast<size_t>(payload_end_ - skip_end), &p);
  AppendEntry(key, value, &p);
  return Seal(out, p, count + 1);
}

std::optional<Bucket> Bucket::RemoveInto(std::string_view key, uint8_t* out) const {
  const Iterator victim = FindEntry(key);
  if (victim == end()) {
    return std::nullopt;
  }
  const uint8_t* victim_end = victim.position() + (*victim).bytes();
  uint8_t* p = out + kHeaderBytes;
  Append(payload_, static_cast<size_t>(victim.position() - payload_), &p);
  Append(victim_end, static_cast<size_t>(payload_end_ - victim_end), &p);
  return Seal(out, p, num_entries_ - 1);
}

void Bucket::AppendEntry(std::string_view key, std::string_view value, uint8_t** out) {
  PutU16(*out, static_cast<uint16_t>(key.size()));
  PutU32(*out + 2, static_cast<uint32_t>(value.size()));
  *out += kPerEntryOverhead;
  Append(key.data(), key.size(), out);
  Append(value.data(), value.size(), out);
}

Bucket Bucket::Seal(uint8_t* image, uint8_t* payload_end, uint32_t num_entries) const {
  uint8_t* payload = image + kHeaderBytes;
  const uint64_t payload_len = static_cast<uint64_t>(payload_end - payload);
  std::memset(payload_end, 0, capacity_ - kHeaderBytes - payload_len);
  PutU32(image, kMagic);
  PutU32(image + 4, PayloadChecksum(payload, payload_len));
  PutU32(image + 8, num_entries);
  PutU32(image + 12, static_cast<uint32_t>(payload_len));
  return Bucket(capacity_, payload, payload_len, num_entries);
}

}  // namespace fdpcache
