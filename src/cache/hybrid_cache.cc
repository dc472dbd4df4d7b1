#include "src/cache/hybrid_cache.h"

#include "src/obs/trace.h"

namespace fdpcache {

HybridCache::HybridCache(Device* device, const HybridCacheConfig& config,
                         PlacementHandleAllocator* allocator, AdmissionPolicy* admission)
    : ram_(config.ram_bytes),
      navy_(std::make_unique<NavyCache>(device, config.navy, allocator, admission)) {
  ram_.set_eviction_callback(
      [this](std::string_view key, std::string_view value) { OnRamEviction(key, value); });
}

HybridCache::~HybridCache() { DrainAsync(); }

void HybridCache::Set(std::string_view key, std::string_view value) {
  // Begins a request trace unless an outer layer (ShardedCache) already did;
  // downstream flash/device spans attach through the thread-local trace.
  obs::ScopedRequest trace(obs::TraceOp::kSet);
  stats_.sets.fetch_add(1, std::memory_order_relaxed);
  // The freshest copy now lives in RAM; any flash copy is stale until the
  // item is spilled again. Re-marking a key that is already stale allocates
  // nothing.
  nvm_stale_.insert(KeyString(key));
  if (!ram_.Put(key, value)) {
    // Item larger than the whole DRAM budget: write straight to flash, and
    // drop any older (smaller) RAM copy that would otherwise serve stale.
    ram_.Remove(key);
    if (navy_->Insert(key, value)) {
      nvm_stale_.erase(KeyString(key));
    }
  }
  DrainRunnable();
}

const std::string& HybridCache::KeyString(std::string_view key) {
  key_buffer_.assign(key.data(), key.size());
  return key_buffer_;
}

void HybridCache::OnRamEviction(std::string_view key, std::string_view value) {
  // DRAM eviction spills to flash (subject to admission). On success the
  // flash copy is current again. Inside an async operation the spill rides
  // the async machinery — the flash read-modify-write parks instead of
  // blocking, and the pending-key claim makes a racing lookup of the evicted
  // key wait for the spill rather than miss.
  if (in_async_context_) {
    QueuedOp op;
    op.kind = QueuedOp::Kind::kSpill;
    op.key = std::string(key);
    op.value = std::string(value);
    // The spill is caused by (and charged to) the request that evicted.
    op.trace_id = obs::CurrentTraceId();
    EnqueueOp(std::move(op));
    return;
  }
  if (navy_->Insert(key, value)) {
    nvm_stale_.erase(KeyString(key));
  }
}

bool HybridCache::Get(std::string_view key, std::string* value) {
  obs::ScopedRequest trace(obs::TraceOp::kGet);
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  bool ram_hit;
  {
    obs::ScopedSpan probe(obs::TraceStage::kRamProbe,
                          static_cast<uint8_t>(obs::TraceOp::kGet));
    ram_hit = ram_.Get(key, value);
  }
  if (ram_hit) {
    stats_.ram_hits.fetch_add(1, std::memory_order_relaxed);
    DrainRunnable();
    return true;
  }
  stats_.nvm_lookups.fetch_add(1, std::memory_order_relaxed);
  if (nvm_stale_.count(KeyString(key)) == 0) {
    auto flash_value = navy_->Lookup(key);
    if (flash_value.has_value()) {
      stats_.nvm_hits.fetch_add(1, std::memory_order_relaxed);
      // Promote to DRAM, like CacheLib's NVM-hit insertion. The promoted
      // copy matches flash, so the flash copy stays current. Skipped while
      // an async op holds this key's claim: promoting the pre-op flash
      // state would e.g. resurrect a key an in-flight RemoveAsync is about
      // to delete (returning the value is still fine — this Get overlaps
      // the async op). Free for purely blocking users (claims stay empty).
      if (key_claims_.find(KeyString(key)) == key_claims_.end()) {
        ram_.Put(key, *flash_value);
        nvm_stale_.erase(KeyString(key));
      }
      // DRAM holds its own copy now. A caller buffer that fits is kept, so
      // a caller reusing one string keeps its capacity; a smaller one is
      // replaced by the flash buffer instead of a fresh copy.
      if (value != nullptr) {
        if (value->capacity() >= flash_value->size()) {
          value->assign(*flash_value);
        } else {
          *value = std::move(*flash_value);
        }
      }
      // The flash lookup may have settled parked async ops (SettleBucketFor
      // on the spill path), unblocking same-key waiters; run them now like
      // every other blocking entry point does.
      DrainRunnable();
      return true;
    }
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  DrainRunnable();
  return false;
}

bool HybridCache::TryRamGet(std::string_view key, std::string* value) {
  // Gate: any pending async op disables the fast path (see header). A racing
  // op that arrives after this load is concurrent with this lookup, so
  // serving the RAM state stays linearizable.
  if (pending_async_.load(std::memory_order_acquire) != 0) {
    return false;
  }
  if (!ram_.Get(key, value)) {
    // Counts nothing: the caller re-runs the full locked Get, which counts
    // the get and classifies the miss against nvm_stale_/flash state.
    return false;
  }
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  stats_.ram_hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void HybridCache::Remove(std::string_view key) {
  obs::ScopedRequest trace(obs::TraceOp::kRemove);
  ram_.Remove(key);
  navy_->Remove(key);
  nvm_stale_.erase(KeyString(key));
  DrainRunnable();
}

// --- Asynchronous path --------------------------------------------------------

AsyncCallback EndSpanOnDelivery(obs::RequestSpan span, obs::TraceOp op, AsyncCallback cb) {
  if (!span) {
    return cb;
  }
  return [span, op, cb = std::move(cb)](AsyncResult r) {
    obs::EndRequestSpan(span, op);
    if (cb) {
      cb(std::move(r));
    }
  };
}

void HybridCache::LookupAsync(std::string_view key, AsyncCallback cb) {
  SubmitAsync(QueuedOp::Kind::kLookup, obs::TraceOp::kGet, key, {}, std::move(cb));
}

void HybridCache::InsertAsync(std::string_view key, std::string_view value, AsyncCallback cb) {
  SubmitAsync(QueuedOp::Kind::kInsert, obs::TraceOp::kSet, key, value, std::move(cb));
}

void HybridCache::RemoveAsync(std::string_view key, AsyncCallback cb) {
  SubmitAsync(QueuedOp::Kind::kRemove, obs::TraceOp::kRemove, key, {}, std::move(cb));
}

void HybridCache::SubmitAsync(QueuedOp::Kind kind, obs::TraceOp trace_op, std::string_view key,
                              std::string_view value, AsyncCallback cb) {
  obs::RequestSpan span = obs::BeginRequestSpanIfIdle();
  obs::TraceScope tscope(span.id);
  QueuedOp op;
  op.kind = kind;
  op.key = std::string(key);
  op.value = std::string(value);
  op.trace_id = obs::CurrentTraceId();
  op.cb = EndSpanOnDelivery(span, trace_op, std::move(cb));
  EnqueueOp(std::move(op));
  DrainRunnable();
}

void HybridCache::EnqueueOp(QueuedOp op) {
  pending_async_.fetch_add(1, std::memory_order_release);
  const auto it = key_claims_.find(op.key);
  if (it != key_claims_.end()) {
    // An op on this key is in flight; run after it (same-key FIFO).
    it->second.push_back(std::move(op));
    return;
  }
  key_claims_.emplace(op.key, std::deque<QueuedOp>{});
  RunOp(std::move(op));
}

void HybridCache::RunOp(QueuedOp op) {
  // Ops may have waited behind a same-key claim since their entry point
  // returned; re-install their trace so downstream spans (flash park, device
  // submit) attach to the right request.
  obs::TraceScope tscope(op.trace_id);
  AsyncScope scope(this);
  switch (op.kind) {
    case QueuedOp::Kind::kLookup:
      RunLookup(std::move(op));
      return;
    case QueuedOp::Kind::kInsert:
      RunInsert(std::move(op));
      return;
    case QueuedOp::Kind::kRemove:
      RunRemove(std::move(op));
      return;
    case QueuedOp::Kind::kSpill:
      RunFlashInsert(std::move(op));
      return;
  }
}

template <typename Then>
AsyncCallback HybridCache::AfterFlash(obs::TraceOp op, Then then) {
  const uint64_t trace_id = obs::CurrentTraceId();
  const uint64_t park_start = (trace_id != 0 && obs::TracingEnabled()) ? obs::NowNs() : 0;
  return [this, op, trace_id, park_start, then = std::move(then)](AsyncResult r) mutable {
    obs::TraceScope cb_scope(trace_id);
    if (park_start != 0) {
      obs::RecordSpan(trace_id, obs::TraceStage::kFlashPark, park_start, obs::NowNs(),
                      static_cast<uint8_t>(op));
    }
    AsyncScope inner(this);
    then(std::move(r));
  };
}

void HybridCache::RunLookup(QueuedOp op) {
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  std::string ram_value;
  bool ram_hit;
  {
    obs::ScopedSpan probe(obs::TraceStage::kRamProbe,
                          static_cast<uint8_t>(obs::TraceOp::kGet));
    ram_hit = ram_.Get(op.key, &ram_value);
  }
  if (ram_hit) {
    stats_.ram_hits.fetch_add(1, std::memory_order_relaxed);
    AsyncResult r;
    r.status = AsyncStatus::kHit;
    r.value = std::move(ram_value);
    FinishOp(op.key, std::move(op.cb), std::move(r));
    return;
  }
  stats_.nvm_lookups.fetch_add(1, std::memory_order_relaxed);
  if (nvm_stale_.count(op.key) > 0) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    FinishOp(op.key, std::move(op.cb), AsyncResult{});
    return;
  }
  auto done = [this, key = op.key, cb = std::move(op.cb)](AsyncResult r) mutable {
    if (r.hit()) {
      stats_.nvm_hits.fetch_add(1, std::memory_order_relaxed);
      // Finish-time revalidation: a blocking Set of this key may have
      // completed while the flash read was parked (the blocking API bypasses
      // the pending-key table), leaving a NEWER value in RAM and the flash
      // copy marked stale. Promoting then would clobber the newer value and
      // clearing the marker would un-stale a stale flash copy; returning the
      // older value itself stays linearizable (the write overlapped this
      // lookup). Only promote into an untouched slot.
      if (!ram_.Contains(key) && nvm_stale_.count(key) == 0) {
        // Promote to DRAM; evictions this causes spill asynchronously.
        ram_.Put(key, r.value);
      }
    } else {
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
    }
    FinishOp(key, std::move(cb), std::move(r));
  };
  navy_->LookupAsync(op.key, AfterFlash(obs::TraceOp::kGet, std::move(done)));
}

void HybridCache::RunInsert(QueuedOp op) {
  stats_.sets.fetch_add(1, std::memory_order_relaxed);
  nvm_stale_.insert(op.key);
  if (ram_.Put(op.key, op.value)) {
    AsyncResult r;
    r.status = AsyncStatus::kOk;
    FinishOp(op.key, std::move(op.cb), std::move(r));
    return;
  }
  // Oversized for the DRAM budget: straight to flash, like the blocking path,
  // dropping any older (smaller) RAM copy that would otherwise serve stale.
  ram_.Remove(op.key);
  RunFlashInsert(std::move(op));
}

void HybridCache::RunFlashInsert(QueuedOp op) {
  auto done = [this, key = op.key, cb = std::move(op.cb)](AsyncResult r) mutable {
    // The flash copy is current again, unless a blocking Set re-populated RAM
    // with a newer value while this write was parked: then keep the marker.
    if (r.ok() && !ram_.Contains(key)) {
      nvm_stale_.erase(key);
    }
    FinishOp(key, std::move(cb), std::move(r));
  };
  navy_->InsertAsync(op.key, op.value, AfterFlash(obs::TraceOp::kSet, std::move(done)));
}

void HybridCache::RunRemove(QueuedOp op) {
  // A RAM-resident item counts as removed even when flash holds no copy
  // (items that never spilled), so the DRAM tier's verdict folds into the
  // final status below.
  const bool ram_removed = ram_.Remove(op.key);
  auto done = [this, key = op.key, ram_removed, cb = std::move(op.cb)](AsyncResult r) mutable {
    // If a blocking Set re-created the key while the remove's flash RMW was
    // parked, its RAM copy is the freshest state and its flash copy is
    // stale — the marker the Set planted must survive this remove.
    if (!ram_.Contains(key)) {
      nvm_stale_.erase(key);
    }
    if (ram_removed && r.status == AsyncStatus::kMiss) {
      r.status = AsyncStatus::kOk;
    }
    FinishOp(key, std::move(cb), std::move(r));
  };
  navy_->RemoveAsync(op.key, AfterFlash(obs::TraceOp::kRemove, std::move(done)));
}

void HybridCache::FinishOp(const std::string& key, AsyncCallback cb, AsyncResult result) {
  const auto it = key_claims_.find(key);
  if (it != key_claims_.end()) {
    if (it->second.empty()) {
      key_claims_.erase(it);
    } else {
      // Hand the claim to the next same-key op; it runs from DrainRunnable.
      runnable_.push_back(std::move(it->second.front()));
      it->second.pop_front();
    }
  }
  pending_async_.fetch_sub(1, std::memory_order_release);
  if (cb) {
    cb(std::move(result));
  }
}

void HybridCache::DrainRunnable() {
  if (draining_runnable_) {
    return;  // The outermost frame owns the loop.
  }
  draining_runnable_ = true;
  while (!runnable_.empty()) {
    QueuedOp op = std::move(runnable_.front());
    runnable_.pop_front();
    RunOp(std::move(op));
  }
  draining_runnable_ = false;
}

size_t HybridCache::PumpAsync(bool blocking) {
  if (blocking) {
    navy_->PumpAsyncBlocking();
  } else {
    navy_->PumpAsync();
  }
  DrainRunnable();
  // Ride the pending-op pump for deferred reclamation: free DRAM nodes whose
  // readers have all exited. Memory-only — no observable cache state
  // changes, so blocking-path determinism is unaffected.
  if (ram_.deferred_nodes() > 0) {
    ram_.ReapDeferred();
  }
  return pending_async_.load(std::memory_order_relaxed);
}

void HybridCache::DrainAsync() {
  for (;;) {
    DrainRunnable();
    if (pending_async_.load(std::memory_order_relaxed) == 0) {
      if (ram_.deferred_nodes() > 0) {
        ram_.ReapDeferred();
      }
      return;
    }
    if (navy_->pending_async_ops() > 0) {
      navy_->PumpAsyncBlocking();
      continue;
    }
    if (!runnable_.empty()) {
      continue;
    }
    // No parked flash work and nothing runnable: every remaining "pending"
    // op would have to be queued behind a claim that no active op holds —
    // impossible by construction; bail out rather than spin.
    return;
  }
}

HybridCacheStats HybridCache::stats() const {
  HybridCacheStats snapshot;
  snapshot.gets = stats_.gets.load(std::memory_order_relaxed);
  snapshot.sets = stats_.sets.load(std::memory_order_relaxed);
  snapshot.ram_hits = stats_.ram_hits.load(std::memory_order_relaxed);
  snapshot.nvm_lookups = stats_.nvm_lookups.load(std::memory_order_relaxed);
  snapshot.nvm_hits = stats_.nvm_hits.load(std::memory_order_relaxed);
  snapshot.misses = stats_.misses.load(std::memory_order_relaxed);
  return snapshot;
}

void HybridCache::ResetStats() {
  stats_.gets.store(0, std::memory_order_relaxed);
  stats_.sets.store(0, std::memory_order_relaxed);
  stats_.ram_hits.store(0, std::memory_order_relaxed);
  stats_.nvm_lookups.store(0, std::memory_order_relaxed);
  stats_.nvm_hits.store(0, std::memory_order_relaxed);
  stats_.misses.store(0, std::memory_order_relaxed);
  navy_->ResetStats();
}

}  // namespace fdpcache
