// Small Object Cache: a set-associative flash cache for tiny items
// (CacheLib's BigHash; paper §2.3).
//
// The key is hashed uniformly to one of N fixed 4 KiB buckets; every insert
// rewrites the whole bucket in place. This gives near-zero DRAM overhead for
// billions of objects at the cost of a random small-write pattern to the SSD
// — exactly the stream the paper segregates with its own reclaim unit handle.
//
// With `inflight_writes > 0` bucket rewrites are batched through the device
// submission queue: each rewrite is Submit()ted and parked in a small
// pending ring; reads of a pending bucket are served from its buffer (the
// newest pending write wins), and completions are reaped when the ring
// fills, on Flush(), or opportunistically at the next store. A failed write
// deallocates the affected bucket (and clears its bloom bits) so the lost
// generation degrades to misses, never to stale or wrong data.
#ifndef SRC_NAVY_SOC_H_
#define SRC_NAVY_SOC_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/navy/bloom_filter.h"
#include "src/navy/bucket.h"
#include "src/navy/device.h"

namespace fdpcache {

// One device page per bucket.
constexpr uint32_t kSocBucketSize = 4096;

struct SocConfig {
  uint64_t base_offset = 0;  // Byte offset of the SOC area on the device.
  uint64_t size_bytes = 0;   // Total SOC size; must be a bucket multiple.
  PlacementHandle placement = kNoPlacement;
  // Maximum bucket rewrites whose device writes may be outstanding at once.
  // 0 = synchronous rewrites (legacy behaviour: StoreBucket blocks and
  // surfaces device errors as insert failures).
  uint32_t inflight_writes = 0;
  // Device queue pair carrying every request this engine issues. All of one
  // SOC's I/O must share a queue pair: failed-write trims and overlapping
  // bucket rewrites rely on per-QP FIFO ordering.
  uint32_t queue_pair = 0;
};

struct SocStats {
  uint64_t inserts = 0;
  uint64_t insert_failures = 0;   // Item too large or device error.
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t bloom_rejects = 0;     // Negative lookups served without I/O.
  uint64_t evictions = 0;         // Entries dropped by bucket overflow.
  uint64_t removes = 0;
  uint64_t corrupt_buckets = 0;   // Checksum/format failures (treated empty).
  uint64_t bytes_written = 0;     // Device bytes (whole buckets).
  uint64_t item_bytes_written = 0;  // Logical item payload bytes.
  uint64_t pending_buffer_hits = 0;  // Bucket loads served from a pending write's buffer.
  uint64_t write_failures = 0;       // Async bucket writes that failed (old bucket remains).

  // Application-level write amplification of the SOC (paper Eq. 2): whole
  // buckets are written per small item.
  double Alwa() const {
    return item_bytes_written == 0
               ? 1.0
               : static_cast<double>(bytes_written) / static_cast<double>(item_bytes_written);
  }
};

class SmallObjectCache {
 public:
  // `device` must outlive the cache.
  SmallObjectCache(Device* device, const SocConfig& config);
  // Retires any pending bucket writes (`device` must still be alive).
  ~SmallObjectCache();

  // Inserts a small item; the whole target bucket is rewritten. Fails when
  // the item cannot fit a bucket or on device errors.
  bool Insert(std::string_view key, std::string_view value);

  std::optional<std::string> Lookup(std::string_view key);

  // Removes the item if present (rewrites the bucket). Returns presence.
  bool Remove(std::string_view key);

  // --- Split-step API (async cache tier) -------------------------------------
  // Each operation splits into a Start step (bloom filters, pending-buffer
  // consult, read planning — everything resolvable without touching the
  // device) and a Finish step (parse + bucket rewrite). When Start returns
  // needs_read, the caller reads kSocBucketSize bytes at `offset` however it
  // likes — Submit() and park for the async path, a blocking Read for the
  // sync one — and then calls the matching Finish with the buffer. The
  // blocking Insert/Lookup/Remove above drive exactly these steps, so both
  // paths share one implementation (and one set of stat counters).
  struct ReadPlan {
    bool needs_read = false;
    uint64_t bucket_id = 0;
    uint64_t offset = 0;               // Device offset of the bucket.
    // Bucket rewrite generation at Start, revalidated at LookupFinish (the
    // SOC counterpart of the LOC's seal_seq check).
    uint64_t bucket_gen = 0;
    // Resolved result when needs_read is false:
    std::optional<std::string> value;  // Lookup only.
    bool ok = false;                   // Insert/Remove only.
  };
  enum class FinishStatus : uint8_t { kHit, kMiss, kRetry };

  // `count_lookup` is false on a kRetry restart so one logical lookup is
  // counted once in the stats.
  ReadPlan LookupStart(std::string_view key, bool count_lookup = true);
  // `io_ok` is the device read's success. If a pending rewrite of the bucket
  // appeared while the read was in flight, its buffer supersedes `buffer`
  // (newest wins, same as the blocking path); if a rewrite was submitted AND
  // retired meanwhile (the pending list no longer shows it), the buffer may
  // describe pre-rewrite flash with nothing left to prove it stale — the
  // per-bucket generation counter catches exactly that case and returns
  // kRetry, telling the caller to restart from LookupStart. Impossible on
  // the blocking path, where nothing interleaves.
  FinishStatus LookupFinish(std::string_view key, const ReadPlan& plan,
                            const uint8_t* buffer, bool io_ok, std::string* value);

  ReadPlan InsertStart(std::string_view key, std::string_view value);
  bool InsertFinish(std::string_view key, std::string_view value, uint64_t bucket_id,
                    const uint8_t* buffer, bool io_ok);

  ReadPlan RemoveStart(std::string_view key);
  bool RemoveFinish(std::string_view key, uint64_t bucket_id, const uint8_t* buffer,
                    bool io_ok);

  // Cheap bloom-filter check; false means the key is definitely absent.
  bool MayContain(std::string_view key) const;

  // Retires every pending bucket write (a barrier before direct device
  // inspection or shutdown). Returns false if any write failed during this
  // drain (the affected buckets were deallocated — misses, not stale hits).
  bool Flush();

  // Bucket rewrites submitted but not yet retired.
  uint32_t InFlightWrites() const { return static_cast<uint32_t>(pending_.size()); }

  // Warm restart: the SOC's on-flash format is self-describing, so a new
  // instance over an existing device only needs its bloom filters rebuilt.
  // Scans every bucket (device reads); returns buckets found non-empty.
  uint64_t RecoverBloomFilters();

  uint64_t num_buckets() const { return num_buckets_; }
  uint64_t BucketOf(std::string_view key) const;
  const SocStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SocStats{}; }
  uint64_t MemoryBytes() const { return blooms_.MemoryBytes(); }

 private:
  // A bucket rewrite whose device write is still outstanding; `buffer`
  // backs the submitted IoRequest and serves loads until it retires.
  struct PendingWrite {
    uint64_t bucket_id = 0;
    CompletionToken token = kInvalidToken;
    std::vector<uint8_t> buffer;
  };

  // Writes `image` (a pool buffer holding the new bucket, viewed by
  // `bucket`) to the bucket's slot, synchronously or through the pending
  // ring, and refills the bucket's bloom bits from it.
  bool StoreBucket(uint64_t bucket_id, const Bucket& bucket, std::vector<uint8_t> image);
  void RefillBloom(uint64_t bucket_id, const Bucket& bucket);

  // Validates a raw bucket image; corrupted contents count and become empty.
  Bucket ParseBucket(const uint8_t* image);
  // The newest pending write's image of `bucket_id` (counted as a buffer
  // hit), or nullptr when none is pending.
  const uint8_t* PendingImage(uint64_t bucket_id);
  // Rewrites `bucket` with the insert/remove applied into a pool buffer and
  // stores it; the shared tail of the blocking ops and the Finish steps.
  bool CommitInsert(std::string_view key, std::string_view value, uint64_t bucket_id,
                    const Bucket& bucket);
  bool CommitRemove(std::string_view key, uint64_t bucket_id, const Bucket& bucket);

  // Newest pending write for `bucket_id`, or nullptr.
  const PendingWrite* FindPending(uint64_t bucket_id) const;
  // Reaps the oldest pending write (waiting for it when `blocking`).
  bool RetireOldest(bool blocking);
  void ReapCompleted();

  std::vector<uint8_t> AcquireBuffer();

  Device* device_;
  SocConfig config_;
  uint64_t num_buckets_;
  // Rewrite generation per bucket, bumped at every StoreBucket: lets a
  // parked async lookup detect that its device read is stale because a
  // rewrite retired while it was in flight (8 bytes/bucket, the same order
  // of DRAM as the bloom filters).
  std::vector<uint64_t> bucket_gens_;
  BucketBloomFilters blooms_;
  std::vector<uint8_t> scratch_;  // Read buffer of the blocking ops.
  std::deque<PendingWrite> pending_;
  // Spare bucket buffers: each rewrite builds its new image in one.
  std::vector<std::vector<uint8_t>> buffer_pool_;
  SocStats stats_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_SOC_H_
