#include "src/navy/soc.h"

#include "src/common/hash.h"

namespace fdpcache {

SmallObjectCache::SmallObjectCache(Device* device, const SocConfig& config)
    : device_(device),
      config_(config),
      num_buckets_(config.size_bytes / kSocBucketSize),
      bucket_gens_(num_buckets_, 0),
      blooms_(num_buckets_),
      scratch_(kSocBucketSize) {}

uint64_t SmallObjectCache::BucketOf(std::string_view key) const {
  return HashString(key) % num_buckets_;
}

SmallObjectCache::~SmallObjectCache() { Flush(); }

std::vector<uint8_t> SmallObjectCache::AcquireBuffer() {
  if (buffer_pool_.empty()) {
    return std::vector<uint8_t>(kSocBucketSize);
  }
  std::vector<uint8_t> buffer = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  return buffer;
}

const SmallObjectCache::PendingWrite* SmallObjectCache::FindPending(uint64_t bucket_id) const {
  // Newest wins: the same bucket may have several overlapping rewrites in
  // flight, and FIFO execution makes the last-submitted the final content.
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    if (it->bucket_id == bucket_id) {
      return &*it;
    }
  }
  return nullptr;
}

bool SmallObjectCache::RetireOldest(bool blocking) {
  if (pending_.empty()) {
    return false;
  }
  PendingWrite& front = pending_.front();
  IoResult result;
  if (blocking) {
    result = device_->Wait(front.token);
  } else {
    const std::optional<IoResult> polled = device_->Poll(front.token);
    if (!polled.has_value()) {
      return false;
    }
    result = *polled;
  }
  const uint64_t bucket_id = front.bucket_id;
  buffer_pool_.push_back(std::move(front.buffer));
  pending_.pop_front();
  if (!result.ok) {
    ++stats_.write_failures;
    // The rewrite never reached flash, so the PREVIOUS bucket content is
    // still there in valid format — serving it would be a stale hit, not a
    // miss. Deallocate the bucket (and clear its bloom bits) so the failed
    // generation degrades to misses; skip when a newer rewrite of the same
    // bucket is still queued behind us, since that one supersedes this and
    // a trim submitted now would execute after it (FIFO).
    if (FindPending(bucket_id) == nullptr) {
      device_->Trim(config_.base_offset + bucket_id * kSocBucketSize, kSocBucketSize,
                    config_.queue_pair);
      blooms_.ClearBucket(bucket_id);
    }
  }
  return true;
}

void SmallObjectCache::ReapCompleted() {
  while (RetireOldest(/*blocking=*/false)) {
  }
}

bool SmallObjectCache::Flush() {
  const uint64_t failures_before = stats_.write_failures;
  while (!pending_.empty()) {
    RetireOldest(/*blocking=*/true);
  }
  return stats_.write_failures == failures_before;
}

const uint8_t* SmallObjectCache::PendingImage(uint64_t bucket_id) {
  const PendingWrite* pending = FindPending(bucket_id);
  if (pending == nullptr) {
    return nullptr;
  }
  ++stats_.pending_buffer_hits;
  return pending->buffer.data();
}

Bucket SmallObjectCache::ParseBucket(const uint8_t* image) {
  std::optional<Bucket> bucket = Bucket::Parse(image, kSocBucketSize);
  if (!bucket.has_value()) {
    ++stats_.corrupt_buckets;
    return Bucket(kSocBucketSize);
  }
  return *bucket;
}

void SmallObjectCache::RefillBloom(uint64_t bucket_id, const Bucket& bucket) {
  blooms_.ClearBucket(bucket_id);
  for (const Bucket::Entry entry : bucket) {
    blooms_.Add(bucket_id, HashString(entry.key));
  }
}

bool SmallObjectCache::StoreBucket(uint64_t bucket_id, const Bucket& bucket,
                                   std::vector<uint8_t> image) {
  ++bucket_gens_[bucket_id];
  const uint64_t offset = config_.base_offset + bucket_id * kSocBucketSize;
  // `bucket` views `image`'s heap bytes, which stay put (and unmodified)
  // whether the vector parks in the pending ring or returns to the pool.
  if (config_.inflight_writes == 0) {
    // Synchronous rewrite: device errors surface to the caller immediately.
    const bool written = device_->Write(offset, image.data(), kSocBucketSize, config_.placement,
                                        config_.queue_pair);
    buffer_pool_.push_back(std::move(image));
    if (!written) {
      return false;
    }
  } else {
    ReapCompleted();
    while (pending_.size() >= config_.inflight_writes) {
      RetireOldest(/*blocking=*/true);
    }
    PendingWrite entry;
    entry.bucket_id = bucket_id;
    entry.buffer = std::move(image);
    entry.token = device_->Submit(IoRequest::MakeWrite(offset, entry.buffer.data(), kSocBucketSize,
                                                       config_.placement, config_.queue_pair));
    pending_.push_back(std::move(entry));
  }
  stats_.bytes_written += kSocBucketSize;
  RefillBloom(bucket_id, bucket);
  return true;
}

bool SmallObjectCache::CommitInsert(std::string_view key, std::string_view value,
                                    uint64_t bucket_id, const Bucket& bucket) {
  // The new image goes to a pool buffer: never a pending write's buffer or a
  // read buffer, so it cannot alias `bucket`'s image.
  std::vector<uint8_t> image = AcquireBuffer();
  uint64_t evicted = 0;
  const std::optional<Bucket> rewritten = bucket.InsertInto(key, value, image.data(), &evicted);
  if (!rewritten.has_value()) {
    buffer_pool_.push_back(std::move(image));
    ++stats_.insert_failures;
    return false;
  }
  if (!StoreBucket(bucket_id, *rewritten, std::move(image))) {
    ++stats_.insert_failures;
    return false;
  }
  stats_.evictions += evicted;
  ++stats_.inserts;
  stats_.item_bytes_written += key.size() + value.size();
  return true;
}

SmallObjectCache::ReadPlan SmallObjectCache::InsertStart(std::string_view key,
                                                         std::string_view value) {
  ReadPlan plan;
  if (num_buckets_ == 0) {
    ++stats_.insert_failures;
    return plan;
  }
  plan.bucket_id = BucketOf(key);
  plan.offset = config_.base_offset + plan.bucket_id * kSocBucketSize;
  if (const uint8_t* image = PendingImage(plan.bucket_id)) {
    plan.ok = CommitInsert(key, value, plan.bucket_id, ParseBucket(image));
    return plan;
  }
  plan.needs_read = true;
  return plan;
}

bool SmallObjectCache::InsertFinish(std::string_view key, std::string_view value,
                                    uint64_t bucket_id, const uint8_t* buffer, bool io_ok) {
  // A newer rewrite of this bucket submitted while the read was in flight
  // supersedes the device image we read: its buffer is the freshest.
  const uint8_t* image = PendingImage(bucket_id);
  if (image == nullptr) {
    if (!io_ok) {
      ++stats_.insert_failures;
      return false;
    }
    image = buffer;
  }
  return CommitInsert(key, value, bucket_id, ParseBucket(image));
}

bool SmallObjectCache::Insert(std::string_view key, std::string_view value) {
  const ReadPlan plan = InsertStart(key, value);
  if (!plan.needs_read) {
    return plan.ok;
  }
  const bool io_ok =
      device_->Read(plan.offset, scratch_.data(), kSocBucketSize, config_.queue_pair);
  return InsertFinish(key, value, plan.bucket_id, scratch_.data(), io_ok);
}

SmallObjectCache::ReadPlan SmallObjectCache::LookupStart(std::string_view key,
                                                         bool count_lookup) {
  ReadPlan plan;
  if (count_lookup) {
    ++stats_.lookups;
  }
  if (num_buckets_ == 0) {
    return plan;
  }
  plan.bucket_id = BucketOf(key);
  plan.offset = config_.base_offset + plan.bucket_id * kSocBucketSize;
  plan.bucket_gen = bucket_gens_[plan.bucket_id];
  if (!blooms_.MayContain(plan.bucket_id, HashString(key))) {
    ++stats_.bloom_rejects;
    return plan;
  }
  if (const uint8_t* image = PendingImage(plan.bucket_id)) {
    if (const std::optional<std::string_view> found = ParseBucket(image).Find(key)) {
      ++stats_.hits;
      plan.value.emplace(*found);
    }
    return plan;
  }
  plan.needs_read = true;
  return plan;
}

SmallObjectCache::FinishStatus SmallObjectCache::LookupFinish(std::string_view key,
                                                              const ReadPlan& plan,
                                                              const uint8_t* buffer,
                                                              bool io_ok, std::string* value) {
  const uint8_t* image = PendingImage(plan.bucket_id);
  if (image == nullptr) {
    if (bucket_gens_[plan.bucket_id] != plan.bucket_gen) {
      // A rewrite of this bucket was submitted AND retired while the read
      // was parked: the image we read is pre-rewrite flash (e.g. it may
      // still show a key a completed Remove deleted). Restart from fresh
      // state.
      return FinishStatus::kRetry;
    }
    if (!io_ok) {
      return FinishStatus::kMiss;
    }
    image = buffer;
  }
  const std::optional<std::string_view> found = ParseBucket(image).Find(key);
  if (!found.has_value()) {
    return FinishStatus::kMiss;
  }
  ++stats_.hits;
  value->assign(found->data(), found->size());
  return FinishStatus::kHit;
}

std::optional<std::string> SmallObjectCache::Lookup(std::string_view key) {
  bool first_attempt = true;
  for (;;) {
    const ReadPlan plan = LookupStart(key, first_attempt);
    first_attempt = false;
    if (!plan.needs_read) {
      return plan.value;
    }
    const bool io_ok =
        device_->Read(plan.offset, scratch_.data(), kSocBucketSize, config_.queue_pair);
    std::string value;
    switch (LookupFinish(key, plan, scratch_.data(), io_ok, &value)) {
      case FinishStatus::kHit:
        return value;
      case FinishStatus::kMiss:
        return std::nullopt;
      case FinishStatus::kRetry:
        break;  // Unreachable single-threaded; restart defensively.
    }
  }
}

uint64_t SmallObjectCache::RecoverBloomFilters() {
  Flush();  // The scan below reads the device directly.
  uint64_t populated = 0;
  for (uint64_t bucket_id = 0; bucket_id < num_buckets_; ++bucket_id) {
    blooms_.ClearBucket(bucket_id);
    const uint64_t offset = config_.base_offset + bucket_id * kSocBucketSize;
    if (!device_->Read(offset, scratch_.data(), kSocBucketSize, config_.queue_pair)) {
      continue;
    }
    const Bucket bucket = ParseBucket(scratch_.data());
    if (bucket.num_entries() == 0) {
      continue;
    }
    ++populated;
    RefillBloom(bucket_id, bucket);
  }
  return populated;
}

bool SmallObjectCache::MayContain(std::string_view key) const {
  if (num_buckets_ == 0) {
    return false;
  }
  return blooms_.MayContain(BucketOf(key), HashString(key));
}

bool SmallObjectCache::CommitRemove(std::string_view key, uint64_t bucket_id,
                                    const Bucket& bucket) {
  std::vector<uint8_t> image = AcquireBuffer();
  const std::optional<Bucket> rewritten = bucket.RemoveInto(key, image.data());
  if (!rewritten.has_value()) {
    buffer_pool_.push_back(std::move(image));
    return false;
  }
  if (!StoreBucket(bucket_id, *rewritten, std::move(image))) {
    return false;
  }
  ++stats_.removes;
  return true;
}

SmallObjectCache::ReadPlan SmallObjectCache::RemoveStart(std::string_view key) {
  ReadPlan plan;
  if (num_buckets_ == 0) {
    return plan;
  }
  plan.bucket_id = BucketOf(key);
  plan.offset = config_.base_offset + plan.bucket_id * kSocBucketSize;
  // Definite absence needs no read-modify-write at all — this keeps async
  // removes of never-inserted keys (a first-class replay op) from claiming
  // the bucket and parking a full bucket read.
  if (!blooms_.MayContain(plan.bucket_id, HashString(key))) {
    ++stats_.bloom_rejects;
    return plan;
  }
  if (const uint8_t* image = PendingImage(plan.bucket_id)) {
    plan.ok = CommitRemove(key, plan.bucket_id, ParseBucket(image));
    return plan;
  }
  plan.needs_read = true;
  return plan;
}

bool SmallObjectCache::RemoveFinish(std::string_view key, uint64_t bucket_id,
                                    const uint8_t* buffer, bool io_ok) {
  const uint8_t* image = PendingImage(bucket_id);
  if (image == nullptr) {
    if (!io_ok) {
      return false;
    }
    image = buffer;
  }
  return CommitRemove(key, bucket_id, ParseBucket(image));
}

bool SmallObjectCache::Remove(std::string_view key) {
  const ReadPlan plan = RemoveStart(key);
  if (!plan.needs_read) {
    return plan.ok;
  }
  const bool io_ok =
      device_->Read(plan.offset, scratch_.data(), kSocBucketSize, config_.queue_pair);
  return RemoveFinish(key, plan.bucket_id, scratch_.data(), io_ok);
}

}  // namespace fdpcache
