// On-flash bucket format for the small object cache.
//
// A bucket is a fixed-size page (4 KiB by default) holding a FIFO of small
// key/value entries. Inserting evicts from the front until the new entry
// fits — CacheLib's BigHash behaviour. The serialized form carries a magic
// and checksum so torn or corrupted buckets degrade to empty instead of
// returning garbage.
//
// Image layout (native byte order, zero-padded to the capacity):
//   header   u32 magic | u32 checksum | u32 num_entries | u32 payload_len
//   payload  num_entries x { u16 key_size | u32 value_size | key | value },
//            oldest first; payload_len is the sum of the entry sizes
// The checksum is the low 32 bits of ChecksumBytes over the payload.
//
// `Bucket` is a validated read-only view of one image: it owns no entry
// bytes. Lookups copy out only the matched value, and an insert or remove
// writes the whole new image into a separate buffer in one pass.
#ifndef SRC_NAVY_BUCKET_H_
#define SRC_NAVY_BUCKET_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

namespace fdpcache {

class Bucket {
 public:
  static constexpr uint32_t kMagic = 0x534f4342;  // "BCOS"
  static constexpr uint64_t kHeaderBytes = 16;
  static constexpr uint64_t kPerEntryOverhead = 6;  // u16 key size + u32 value size.

  struct Entry {
    std::string_view key;
    std::string_view value;
    uint64_t bytes() const { return EntryBytes(key, value); }
  };

  // Walks the entries of a validated image, oldest first.
  class Iterator {
   public:
    explicit Iterator(const uint8_t* p) : p_(p) {}
    Entry operator*() const;
    Iterator& operator++() {
      p_ += (**this).bytes();
      return *this;
    }
    bool operator==(const Iterator& other) const { return p_ == other.p_; }
    bool operator!=(const Iterator& other) const { return p_ != other.p_; }
    const uint8_t* position() const { return p_; }

   private:
    const uint8_t* p_;
  };

  // An empty bucket (never-written storage, or contents found corrupt).
  explicit Bucket(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  // Validates a serialized image of `capacity_bytes`: magic, payload length,
  // checksum, and that the entries exactly fill the payload. All-zero
  // (never-written) storage is an empty bucket; anything else invalid is
  // nullopt, which callers count and treat as empty. The view borrows
  // `image`, which must outlive it.
  static std::optional<Bucket> Parse(const uint8_t* image, uint64_t capacity_bytes);

  // The value stored under `key`, as a view into the image.
  std::optional<std::string_view> Find(std::string_view key) const;

  // Writes the image of this bucket with (key, value) inserted to `out`
  // (capacity bytes, not overlapping this bucket's image), replacing any
  // entry with the same key and dropping the oldest entries until the new
  // one fits. Returns the view of `out`, or nullopt (leaving `out`
  // untouched) when the entry cannot fit even an empty bucket. *evicted
  // counts the entries dropped to make room; a replacement is not one.
  std::optional<Bucket> InsertInto(std::string_view key, std::string_view value, uint8_t* out,
                                   uint64_t* evicted) const;

  // Writes the image of this bucket without `key` to `out` (as InsertInto).
  // Returns nullopt, leaving `out` untouched, when `key` is absent.
  std::optional<Bucket> RemoveInto(std::string_view key, uint8_t* out) const;

  Iterator begin() const { return Iterator(payload_); }
  Iterator end() const { return Iterator(payload_end_); }

  uint64_t used_bytes() const { return kHeaderBytes + payload_len(); }
  uint64_t capacity_bytes() const { return capacity_; }
  size_t num_entries() const { return num_entries_; }

  static uint64_t EntryBytes(std::string_view key, std::string_view value) {
    return kPerEntryOverhead + key.size() + value.size();
  }

 private:
  Bucket(uint64_t capacity, const uint8_t* payload, uint64_t payload_len, uint32_t num_entries)
      : capacity_(capacity),
        payload_(payload),
        payload_end_(payload + payload_len),
        num_entries_(num_entries) {}

  uint64_t payload_len() const { return static_cast<uint64_t>(payload_end_ - payload_); }

  // The entry stored under `key`, or end().
  Iterator FindEntry(std::string_view key) const;
  // Writes `key`/`value` as one entry at `*out` and advances it.
  static void AppendEntry(std::string_view key, std::string_view value, uint8_t** out);
  // Zero-pads `image` after `payload_end`, fills in the header and returns
  // the view of the finished image.
  Bucket Seal(uint8_t* image, uint8_t* payload_end, uint32_t num_entries) const;

  uint64_t capacity_;
  // Both null for an empty bucket, so no pointer arithmetic touches null.
  const uint8_t* payload_ = nullptr;
  const uint8_t* payload_end_ = nullptr;
  uint32_t num_entries_ = 0;
};

inline Bucket::Entry Bucket::Iterator::operator*() const {
  uint16_t key_size;
  uint32_t value_size;
  std::memcpy(&key_size, p_, sizeof(key_size));
  std::memcpy(&value_size, p_ + sizeof(key_size), sizeof(value_size));
  const char* key = reinterpret_cast<const char*>(p_ + kPerEntryOverhead);
  return Entry{std::string_view(key, key_size), std::string_view(key + key_size, value_size)};
}

}  // namespace fdpcache

#endif  // SRC_NAVY_BUCKET_H_
