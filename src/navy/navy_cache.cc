#include "src/navy/navy_cache.h"

#include "src/common/units.h"

namespace fdpcache {

namespace {

AsyncResult MakeHit(std::string value) {
  AsyncResult r;
  r.status = AsyncStatus::kHit;
  r.value = std::move(value);
  return r;
}

AsyncResult MakeStatus(AsyncStatus status) {
  AsyncResult r;
  r.status = status;
  return r;
}

}  // namespace

NavyCache::NavyCache(Device* device, const NavyConfig& config,
                     PlacementHandleAllocator* allocator, AdmissionPolicy* admission)
    : device_(device), config_(config), admission_(admission) {
  const uint64_t total = config_.size_bytes == 0 ? device_->size_bytes() : config_.size_bytes;
  // SOC gets its fraction rounded to whole buckets; LOC gets whole regions.
  soc_size_ = RoundUp(static_cast<uint64_t>(static_cast<double>(total) * config_.soc_fraction),
                      kSocBucketSize);
  const uint64_t loc_space = total - soc_size_;
  loc_size_ = loc_space / config_.loc_region_size * config_.loc_region_size;

  if (config_.use_placement_handles && allocator != nullptr) {
    soc_handle_ = allocator->Allocate();
    loc_handle_ = allocator->Allocate();
  }

  soc_qp_ = config_.queue_pair;
  loc_qp_ = config_.loc_queue_pair.value_or(config_.queue_pair);

  SocConfig soc;
  soc.base_offset = config_.base_offset;
  soc.size_bytes = soc_size_;
  soc.placement = soc_handle_;
  soc.inflight_writes = config_.soc_inflight_writes;
  soc.queue_pair = soc_qp_;
  soc_ = std::make_unique<SmallObjectCache>(device_, soc);

  LocConfig loc;
  loc.base_offset = config_.base_offset + soc_size_;
  loc.size_bytes = loc_size_;
  loc.region_size = config_.loc_region_size;
  loc.placement = loc_handle_;
  loc.trim_on_evict = config_.loc_trim_on_evict;
  loc.inflight_regions = config_.loc_inflight_regions;
  loc.queue_pair = loc_qp_;
  loc_ = std::make_unique<LargeObjectCache>(device_, loc);
}

NavyCache::~NavyCache() { DrainAsync(); }

void NavyCache::SettleBucketFor(std::string_view key) {
  if (busy_buckets_.empty() || soc_->num_buckets() == 0) {
    return;
  }
  const uint64_t bucket_id = soc_->BucketOf(key);
  while (busy_buckets_.count(bucket_id) > 0) {
    PumpAsyncBlocking();
  }
}

bool NavyCache::Insert(std::string_view key, std::string_view value) {
  if (admission_ != nullptr && !admission_->Accept(key, key.size() + value.size())) {
    ++admission_rejects_;
    return false;
  }
  bool ok;
  uint64_t bytes_before;
  if (IsSmall(key, value)) {
    // An async read-modify-write of this bucket may be parked; settle it so
    // the blocking rewrite below cannot lose its update.
    SettleBucketFor(key);
    bytes_before = soc_->stats().bytes_written;
    ok = soc_->Insert(key, value);
    if (admission_ != nullptr) {
      admission_->OnBytesWritten(soc_->stats().bytes_written - bytes_before);
    }
    // A small item supersedes any stale large copy and vice versa.
    if (ok) {
      loc_->Remove(key);
    }
  } else {
    bytes_before = loc_->stats().bytes_written;
    ok = loc_->Insert(key, value);
    if (admission_ != nullptr) {
      admission_->OnBytesWritten(loc_->stats().bytes_written - bytes_before);
    }
    // Drop any stale small copy; the bloom filter makes the common case free.
    if (ok && soc_->MayContain(key)) {
      SettleBucketFor(key);
      soc_->Remove(key);
    }
  }
  return ok;
}

std::optional<std::string> NavyCache::Lookup(std::string_view key) {
  // Try the SOC first (small items dominate lookups in the paper's
  // workloads); fall through to the LOC.
  auto value = soc_->Lookup(key);
  if (value.has_value()) {
    return value;
  }
  return loc_->Lookup(key);
}

bool NavyCache::Remove(std::string_view key) {
  SettleBucketFor(key);
  const bool soc_removed = soc_->Remove(key);
  const bool loc_removed = loc_->Remove(key);
  return soc_removed || loc_removed;
}

// --- Asynchronous engine ------------------------------------------------------

void NavyCache::Complete(AsyncCallback cb, AsyncResult result) {
  --pending_async_;
  if (cb) {
    cb(std::move(result));
  }
}

void NavyCache::FinishOp(std::unique_ptr<AsyncOp> op, AsyncResult result) {
  AsyncCallback cb = std::move(op->cb);
  op.reset();
  Complete(std::move(cb), std::move(result));
}

void NavyCache::ParkOp(std::unique_ptr<AsyncOp> op, uint64_t offset, uint64_t size,
                       uint32_t qp) {
  op->buffer.resize(size);
  op->token = device_->Submit(IoRequest::MakeRead(offset, op->buffer.data(), size, qp));
  parked_.push_back(std::move(op));
}

void NavyCache::LookupAsync(std::string_view key, AsyncCallback cb) {
  ++pending_async_;
  auto op = std::make_unique<AsyncOp>();
  op->key = std::string(key);
  op->cb = std::move(cb);
  StartSocLookup(std::move(op));
}

void NavyCache::StartSocLookup(std::unique_ptr<AsyncOp> op) {
  SmallObjectCache::ReadPlan plan = soc_->LookupStart(op->key);
  if (plan.needs_read) {
    op->stage = AsyncOp::Stage::kSocLookupRead;
    op->bucket_id = plan.bucket_id;
    op->soc_plan = plan;
    ParkOp(std::move(op), plan.offset, kSocBucketSize, soc_qp_);
    return;
  }
  if (plan.value.has_value()) {
    FinishOp(std::move(op), MakeHit(std::move(*plan.value)));
    return;
  }
  StartLocLookup(std::move(op));
}

void NavyCache::StartLocLookup(std::unique_ptr<AsyncOp> op) {
  LargeObjectCache::ReadPlan plan = loc_->LookupStart(op->key);
  if (plan.kind == LargeObjectCache::ReadPlan::Kind::kMiss) {
    FinishOp(std::move(op), MakeStatus(AsyncStatus::kMiss));
    return;
  }
  if (plan.kind == LargeObjectCache::ReadPlan::Kind::kReady) {
    FinishOp(std::move(op), MakeHit(std::move(plan.value)));
    return;
  }
  op->stage = AsyncOp::Stage::kLocLookupRead;
  op->loc_plan = plan;
  ParkOp(std::move(op), plan.offset, plan.size, loc_qp_);
}

void NavyCache::InsertAsync(std::string_view key, std::string_view value, AsyncCallback cb) {
  ++pending_async_;
  if (admission_ != nullptr && !admission_->Accept(key, key.size() + value.size())) {
    ++admission_rejects_;
    Complete(std::move(cb), MakeStatus(AsyncStatus::kRejected));
    return;
  }
  if (IsSmall(key, value)) {
    auto op = std::make_unique<AsyncOp>();
    op->stage = AsyncOp::Stage::kSocInsertRead;
    op->key = std::string(key);
    op->value = std::string(value);
    op->cb = std::move(cb);
    StartSocRmw(std::move(op));
    return;
  }
  const uint64_t bytes_before = loc_->stats().bytes_written;
  const bool ok = loc_->Insert(key, value);
  if (admission_ != nullptr) {
    admission_->OnBytesWritten(loc_->stats().bytes_written - bytes_before);
  }
  if (ok && soc_->MayContain(key)) {
    // Scrub the stale small copy through the async RMW machinery; the
    // insert's callback fires once the scrub resolves. loc_removed = true
    // forces the final status to kOk — the insert itself succeeded whether
    // or not the SOC really held a stale copy.
    auto op = std::make_unique<AsyncOp>();
    op->stage = AsyncOp::Stage::kSocRemoveRead;
    op->key = std::string(key);
    op->loc_removed = true;
    op->cb = std::move(cb);
    StartSocRmw(std::move(op));
    return;
  }
  Complete(std::move(cb), MakeStatus(ok ? AsyncStatus::kOk : AsyncStatus::kError));
}

void NavyCache::RemoveAsync(std::string_view key, AsyncCallback cb) {
  ++pending_async_;
  const bool loc_removed = loc_->Remove(key);
  auto op = std::make_unique<AsyncOp>();
  op->stage = AsyncOp::Stage::kSocRemoveRead;
  op->key = std::string(key);
  op->loc_removed = loc_removed;
  op->cb = std::move(cb);
  StartSocRmw(std::move(op));
}

void NavyCache::StartSocRmw(std::unique_ptr<AsyncOp> op) {
  if (soc_->num_buckets() > 0) {
    op->bucket_id = soc_->BucketOf(op->key);
    if (busy_buckets_.count(op->bucket_id) > 0) {
      // Another RMW holds this bucket's read-modify-write cycle; run after
      // it so neither rewrite loses the other's update.
      bucket_waiters_[op->bucket_id].push_back(std::move(op));
      return;
    }
  }
  if (op->stage == AsyncOp::Stage::kSocInsertRead) {
    const uint64_t bytes_before = soc_->stats().bytes_written;
    const SmallObjectCache::ReadPlan plan = soc_->InsertStart(op->key, op->value);
    if (!plan.needs_read) {
      // Resolved from a pending write buffer (or an unconfigured SOC): the
      // rewrite is already submitted, no bucket read needed.
      if (admission_ != nullptr) {
        admission_->OnBytesWritten(soc_->stats().bytes_written - bytes_before);
      }
      if (plan.ok) {
        loc_->Remove(op->key);
      }
      FinishOp(std::move(op), MakeStatus(plan.ok ? AsyncStatus::kOk : AsyncStatus::kError));
      return;
    }
    busy_buckets_.insert(plan.bucket_id);
    op->bucket_id = plan.bucket_id;
    ParkOp(std::move(op), plan.offset, kSocBucketSize, soc_qp_);
    return;
  }
  const SmallObjectCache::ReadPlan plan = soc_->RemoveStart(op->key);
  if (!plan.needs_read) {
    const bool removed = plan.ok || op->loc_removed;
    FinishOp(std::move(op), MakeStatus(removed ? AsyncStatus::kOk : AsyncStatus::kMiss));
    return;
  }
  busy_buckets_.insert(plan.bucket_id);
  op->bucket_id = plan.bucket_id;
  ParkOp(std::move(op), plan.offset, kSocBucketSize, soc_qp_);
}

void NavyCache::StepOp(std::unique_ptr<AsyncOp> op, const IoResult& io) {
  switch (op->stage) {
    case AsyncOp::Stage::kSocLookupRead: {
      std::string value;
      switch (soc_->LookupFinish(op->key, op->soc_plan, op->buffer.data(), io.ok, &value)) {
        case SmallObjectCache::FinishStatus::kHit:
          FinishOp(std::move(op), MakeHit(std::move(value)));
          return;
        case SmallObjectCache::FinishStatus::kMiss:
          StartLocLookup(std::move(op));
          return;
        case SmallObjectCache::FinishStatus::kRetry:
          // The bucket was rewritten-and-retired while the read was parked;
          // restart the SOC stage from fresh state (bloom filters and the
          // pending list now reflect the rewrite).
          StartSocLookup(std::move(op));
          return;
      }
      return;
    }
    case AsyncOp::Stage::kLocLookupRead: {
      std::string value;
      switch (loc_->LookupFinish(op->key, op->loc_plan, op->buffer.data(), io.ok, &value)) {
        case LargeObjectCache::FinishStatus::kHit:
          FinishOp(std::move(op), MakeHit(std::move(value)));
          return;
        case LargeObjectCache::FinishStatus::kMiss:
          FinishOp(std::move(op), MakeStatus(AsyncStatus::kMiss));
          return;
        case LargeObjectCache::FinishStatus::kRetry:
          // The entry moved while the read was parked; restart from the
          // fresh index state (usually resolves from a RAM buffer now).
          StartLocLookup(std::move(op));
          return;
      }
      return;
    }
    case AsyncOp::Stage::kSocInsertRead: {
      const uint64_t bucket_id = op->bucket_id;
      const uint64_t bytes_before = soc_->stats().bytes_written;
      const bool ok =
          soc_->InsertFinish(op->key, op->value, bucket_id, op->buffer.data(), io.ok);
      if (admission_ != nullptr) {
        admission_->OnBytesWritten(soc_->stats().bytes_written - bytes_before);
      }
      if (ok) {
        loc_->Remove(op->key);
      }
      ReleaseBucket(bucket_id);
      FinishOp(std::move(op), MakeStatus(ok ? AsyncStatus::kOk : AsyncStatus::kError));
      return;
    }
    case AsyncOp::Stage::kSocRemoveRead: {
      const uint64_t bucket_id = op->bucket_id;
      const bool soc_removed =
          soc_->RemoveFinish(op->key, bucket_id, op->buffer.data(), io.ok);
      const bool removed = soc_removed || op->loc_removed;
      ReleaseBucket(bucket_id);
      FinishOp(std::move(op), MakeStatus(removed ? AsyncStatus::kOk : AsyncStatus::kMiss));
      return;
    }
  }
}

void NavyCache::ReleaseBucket(uint64_t bucket_id) {
  busy_buckets_.erase(bucket_id);
  auto it = bucket_waiters_.find(bucket_id);
  while (it != bucket_waiters_.end() && !it->second.empty() &&
         busy_buckets_.count(bucket_id) == 0) {
    std::unique_ptr<AsyncOp> next = std::move(it->second.front());
    it->second.pop_front();
    // May resolve inline (continue the loop), or re-claim the bucket and
    // park (the busy check above ends the loop). Re-entrant callbacks can
    // mutate the waiter map, so re-find after every start.
    StartSocRmw(std::move(next));
    it = bucket_waiters_.find(bucket_id);
  }
  if (it != bucket_waiters_.end() && it->second.empty()) {
    bucket_waiters_.erase(it);
  }
}

size_t NavyCache::PumpAsync() {
  size_t completed = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < parked_.size(); ++i) {
      const std::optional<IoResult> io = device_->Poll(parked_[i]->token);
      if (!io.has_value()) {
        continue;
      }
      std::unique_ptr<AsyncOp> op = std::move(parked_[i]);
      parked_.erase(parked_.begin() + static_cast<long>(i));
      StepOp(std::move(op), *io);
      ++completed;
      progress = true;
      break;  // Stepping may mutate parked_ (callbacks re-enter); rescan.
    }
  }
  return completed;
}

void NavyCache::PumpAsyncBlocking() {
  if (parked_.empty()) {
    return;
  }
  std::unique_ptr<AsyncOp> op = std::move(parked_.front());
  parked_.pop_front();
  const IoResult io = device_->Wait(op->token);
  StepOp(std::move(op), io);
  PumpAsync();
}

void NavyCache::DrainAsync() {
  while (pending_async_ > 0) {
    if (parked_.empty()) {
      // Queued waiters only exist behind a parked claimant, so this means
      // every remaining callback already fired during the last step.
      break;
    }
    PumpAsyncBlocking();
  }
}

// --- Barriers / persistence ---------------------------------------------------

bool NavyCache::Flush() {
  DrainAsync();
  const bool soc_ok = soc_->Flush();
  return loc_->Flush() && soc_ok;
}

bool NavyCache::ReapPending() {
  DrainAsync();
  // SOC Flush only retires pending bucket rewrites (there is no open-region
  // equivalent to seal), so it is already the drain-only barrier.
  const bool soc_ok = soc_->Flush();
  return loc_->RetireInFlight() && soc_ok;
}

bool NavyCache::Persist(std::string* state) {
  DrainAsync();
  soc_->Flush();  // Everything referenced by the persisted state is on-device.
  return loc_->SerializeState(state);
}

bool NavyCache::Recover(const std::string& state) {
  DrainAsync();
  if (!loc_->RestoreState(state)) {
    return false;
  }
  soc_->RecoverBloomFilters();
  return true;
}

void NavyCache::ResetStats() {
  soc_->ResetStats();
  loc_->ResetStats();
  admission_rejects_ = 0;
}

NavyStats NavyCache::stats() const {
  NavyStats stats;
  stats.soc = soc_->stats();
  stats.loc = loc_->stats();
  stats.admission_rejects = admission_rejects_;
  return stats;
}

}  // namespace fdpcache
