#include "src/cache/sharded_cache.h"

#include <chrono>

#include "src/common/hash.h"
#include "src/obs/trace.h"

namespace fdpcache {
namespace {

// Mixed into the key hash before shard selection so that shard routing and
// SOC bucket placement (both derived from HashString) stay independent.
constexpr uint64_t kShardSeed = 0x5ca1ab1e0ddba11ull;

// Poller fallback period: parked ops still make progress at this cadence
// even when no attached device fires completion hooks.
constexpr std::chrono::milliseconds kPollFallback{10};

}  // namespace

double ShardedCacheStats::ShardImbalance() const {
  uint64_t total = 0;
  uint64_t max_ops = 0;
  for (const uint64_t ops : shard_ops) {
    total += ops;
    max_ops = max_ops < ops ? ops : max_ops;
  }
  if (total == 0 || shard_ops.empty()) {
    return 1.0;
  }
  const double mean = static_cast<double>(total) / static_cast<double>(shard_ops.size());
  return static_cast<double>(max_ops) / mean;
}

ShardedCache::ShardedCache(uint32_t num_shards, const ShardFactory& factory) {
  // A zero shard count is a config error; clamp rather than divide by zero in
  // ShardIndexFor (mirrors ConcurrentReplayDriver's num_threads handling).
  num_shards = num_shards == 0 ? 1 : num_shards;
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->cache = factory(i);
    shards_.push_back(std::move(shard));
  }
  poller_ = std::thread([this] { PollerLoop(); });
}

ShardedCache::~ShardedCache() {
  // Detach the completion hooks first so no NEW device completion can load
  // one; draining below never depends on the hook (it uses blocking Waits).
  for (Device* device : devices_) {
    device->SetCompletionHook(nullptr);
  }
  // Complete (and fire callbacks for) every outstanding async op while the
  // devices beneath the shards are still alive. Callbacks may legally
  // submit new ops mid-drain, so loop until every shard reads quiescent (a
  // callback chain that resubmits forever is a caller bug and would hang
  // any barrier).
  for (bool pending = true; pending;) {
    Drain();
    pending = false;
    for (auto& shard : shards_) {
      LockShard(*shard);
      fdp::MutexLock lock(&shard->mu, fdp::kAdoptLock);
      pending = pending || shard->cache->pending_async_ops() > 0;
    }
  }
  // An engine write still executing may have loaded the hook before the
  // detach; Drain() returns only once every completion — hook invocation
  // included — has finished (the device fires the hook before releasing its
  // active slot), so after this no thread can touch the poller state.
  for (Device* device : devices_) {
    device->Drain();
  }
  {
    fdp::MutexLock lock(&poll_mu_);
    poller_stop_ = true;
  }
  poll_cv_.NotifyAll();
  if (poller_.joinable()) {
    poller_.join();
  }
}

uint32_t ShardedCache::ShardIndexFor(std::string_view key, uint32_t num_shards) {
  return static_cast<uint32_t>(Mix64(HashString(key) ^ kShardSeed) % num_shards);
}

void ShardedCache::LockShard(Shard& shard, const char* site) {
  shard.lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
  // The span's destructor runs AFTER Lock() returns, so it measures exactly
  // the mutex acquisition wait.
  obs::ScopedSpan wait(obs::TraceStage::kShardLockWait);
  shard.mu.Lock(site);
}

// NO_THREAD_SAFETY_ANALYSIS (see header): invoked from the type-erased
// StageInto callback, which HybridCache only ever calls with the shard lock
// held; the analysis cannot follow a std::function, so assert the guard.
void ShardedCache::AppendFired(Shard& shard, AsyncCallback cb, AsyncResult result) {
  shard.mu.AssertHeld();
  shard.fired.emplace_back(std::move(cb), std::move(result));
}

void ShardedCache::TakeFired(Shard& shard, FiredList* out) {
  if (!shard.fired.empty()) {
    out->insert(out->end(), std::make_move_iterator(shard.fired.begin()),
                std::make_move_iterator(shard.fired.end()));
    shard.fired.clear();
    ++shard.firing;
  }
}

void ShardedCache::FireTaken(Shard& shard, FiredList* fired) {
  if (fired->empty()) {
    return;
  }
  for (auto& [cb, result] : *fired) {
    if (cb) {
      cb(std::move(result));
    }
  }
  fired->clear();
  {
    LockShard(shard);
    fdp::MutexLock lock(&shard.mu, fdp::kAdoptLock);
    --shard.firing;
  }
  shard.fire_cv.NotifyAll();
}

AsyncCallback ShardedCache::StageInto(Shard& shard, obs::RequestSpan span, obs::TraceOp op,
                                      AsyncCallback cb) {
  // Runs under the shard lock (HybridCache resolves ops under the caller's
  // lock); defer the user callback to whoever flushes shard.fired next.
  return [&shard, cb = EndSpanOnDelivery(span, op, std::move(cb))](AsyncResult result) mutable {
    AppendFired(shard, std::move(cb), std::move(result));
  };
}

template <typename Call>
bool ShardedCache::RunLocked(Shard& shard, Call&& call, bool wake_poller, const char* site) {
  FiredList fired;
  bool pending = false;
  {
    LockShard(shard, site);
    fdp::MutexLock lock(&shard.mu, fdp::kAdoptLock);
    call(*shard.cache);
    pending = shard.cache->pending_async_ops() > 0;
    TakeFired(shard, &fired);
  }
  if (pending && wake_poller) {
    NotifyPoller();
  }
  FireTaken(shard, &fired);
  return pending;
}

bool ShardedCache::ProbeRam(Shard& shard, std::string_view key, std::string* value) {
  obs::ScopedSpan probe(obs::TraceStage::kRamProbe, static_cast<uint8_t>(obs::TraceOp::kGet));
  return shard.cache->TryRamGet(key, value);
}

void ShardedCache::Set(std::string_view key, std::string_view value) {
  Shard& shard = ShardFor(key);
  obs::ScopedRequest trace(obs::TraceOp::kSet);
  // Any DRAM eviction this triggers spills to flash from inside the call,
  // still under this shard's lock — safe, because the spill path only
  // touches this shard's own tiers (RamCache::Put fires its eviction
  // callbacks after releasing its own locks; see HybridCache::OnRamEviction).
  RunLocked(shard, [&](HybridCache& cache) { cache.Set(key, value); });
}

bool ShardedCache::Get(std::string_view key, std::string* value) {
  Shard& shard = ShardFor(key);
  obs::ScopedRequest trace(obs::TraceOp::kGet);
  // Lock-free fast path: the overwhelming majority of gets hit DRAM, and a
  // RAM hit needs none of the under-lock state. On a miss we fall through
  // to the FULL locked Get — including its RAM re-check — because deciding
  // flash promotion on stale RAM state could clobber a newer concurrent Set.
  if (ProbeRam(shard, key, value)) {
    return true;
  }
  bool hit = false;
  RunLocked(shard, [&](HybridCache& cache) { hit = cache.Get(key, value); });
  return hit;
}

void ShardedCache::Remove(std::string_view key) {
  Shard& shard = ShardFor(key);
  obs::ScopedRequest trace(obs::TraceOp::kRemove);
  RunLocked(shard, [&](HybridCache& cache) {
    cache.Remove(key);
    shard.removes.fetch_add(1, std::memory_order_relaxed);
  });
}

void ShardedCache::LookupAsync(std::string_view key, AsyncCallback cb) {
  Shard& shard = ShardFor(key);
  obs::RequestSpan span = obs::BeginRequestSpanIfIdle();
  obs::TraceScope tscope(span.id);
  // Lock-free fast path, same contract as the locked inline completion: the
  // callback fires before the call returns, with no shard lock held.
  // TryRamGet's pending-op gate keeps same-key FIFO intact — if ANY async
  // op is pending on this shard the probe declines and we queue normally.
  std::string ram_value;
  if (ProbeRam(shard, key, &ram_value)) {
    obs::EndRequestSpan(span, obs::TraceOp::kGet);
    if (cb) {
      AsyncResult result;
      result.status = AsyncStatus::kHit;
      result.value = std::move(ram_value);
      cb(std::move(result));
    }
    return;
  }
  RunLocked(shard, [&](HybridCache& cache) {
    cache.LookupAsync(key, StageInto(shard, span, obs::TraceOp::kGet, std::move(cb)));
  });
}

void ShardedCache::InsertAsync(std::string_view key, std::string_view value,
                               AsyncCallback cb) {
  Shard& shard = ShardFor(key);
  obs::RequestSpan span = obs::BeginRequestSpanIfIdle();
  obs::TraceScope tscope(span.id);
  RunLocked(shard, [&](HybridCache& cache) {
    cache.InsertAsync(key, value, StageInto(shard, span, obs::TraceOp::kSet, std::move(cb)));
  });
}

void ShardedCache::RemoveAsync(std::string_view key, AsyncCallback cb) {
  Shard& shard = ShardFor(key);
  obs::RequestSpan span = obs::BeginRequestSpanIfIdle();
  obs::TraceScope tscope(span.id);
  RunLocked(shard, [&](HybridCache& cache) {
    cache.RemoveAsync(key, StageInto(shard, span, obs::TraceOp::kRemove, std::move(cb)));
    shard.removes.fetch_add(1, std::memory_order_relaxed);
  });
}

bool ShardedCache::DrainShard(Shard& shard, bool flush_navy) {
  FiredList fired;
  bool ok = true;
  {
    LockShard(shard);
    fdp::MutexLock lock(&shard.mu, fdp::kAdoptLock);
    // Complete parked async ops first (their callbacks fire below), then —
    // for Flush() — seal + retire the shard's write pipeline.
    shard.cache->DrainAsync();
    if (flush_navy) {
      ok = shard.cache->navy().Flush();
    }
    TakeFired(shard, &fired);
    // The barrier covers callback DELIVERY too: another thread (usually
    // the poller) may have taken a batch out of shard.fired and still be
    // invoking it. Wait until only our own batch (if any) is in flight.
    const uint32_t own = fired.empty() ? 0u : 1u;
    while (shard.firing != own) {
      shard.fire_cv.Wait(&shard.mu);
    }
  }
  FireTaken(shard, &fired);
  return ok;
}

void ShardedCache::Drain() {
  // One pass suffices for the barrier: DrainAsync completes everything the
  // shard had accepted when we took its lock, and ops submitted after the
  // barrier began are explicitly not covered.
  for (auto& shard : shards_) {
    DrainShard(*shard, /*flush_navy=*/false);
  }
}

void ShardedCache::AttachDevice(Device* device) {
  if (device != nullptr) {
    devices_.push_back(device);
    device->SetCompletionHook([this] { NotifyPoller(); });
  }
}

bool ShardedCache::Flush() {
  bool ok = true;
  for (auto& shard : shards_) {
    ok = DrainShard(*shard, /*flush_navy=*/true) && ok;
  }
  // Cross-QP barrier: each shard only reaped its own tokens above; draining
  // the devices guarantees no queue pair still holds unexecuted work.
  for (Device* device : devices_) {
    device->Drain();
  }
  return ok;
}

void ShardedCache::NotifyPoller() {
  // Coalesce wakeups: the first completion of a burst pays the mutex + cv
  // signal; everything that lands before the poller clears the flag rides
  // the same sweep for free (batched callback delivery).
  if (poll_pending_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  {
    fdp::MutexLock lock(&poll_mu_);
    ++poll_signal_;
  }
  poll_cv_.NotifyOne();
}

bool ShardedCache::PumpShards() {
  bool any_pending = false;
  for (auto& shard : shards_) {
    if (shard->cache->pending_async_ops() == 0) {
      continue;
    }
    const auto pump = [](HybridCache& cache) { cache.PumpAsync(); };
    if (RunLocked(*shard, pump, /*wake_poller=*/false)) {
      any_pending = true;
    }
  }
  return any_pending;
}

void ShardedCache::PollerLoop() {
  fdp::MutexLock lock(&poll_mu_);
  uint64_t seen = 0;
  bool pending = false;
  for (;;) {
    if (pending) {
      // Work is parked: wait for a completion signal, but re-scan on a
      // timer as a fallback for devices without completion hooks. A timeout
      // falls through to a sweep even though no signal arrived.
      if (!poller_stop_ && poll_signal_ == seen) {
        poll_cv_.WaitFor(&poll_mu_, kPollFallback);
      }
    } else {
      while (!poller_stop_ && poll_signal_ == seen) {
        poll_cv_.Wait(&poll_mu_);
      }
    }
    if (poller_stop_) {
      return;
    }
    seen = poll_signal_;
    lock.Unlock();
    // Clear BEFORE sweeping: a completion that lands during the sweep must
    // raise a fresh signal (we may already be past its shard), while one
    // that landed before the clear is covered by this sweep.
    poll_pending_.store(false, std::memory_order_seq_cst);
    pending = PumpShards();
    lock.Lock();
  }
}

ShardedCacheStats ShardedCache::Stats() const {
  ShardedCacheStats out;
  out.shard_ops.reserve(shards_.size());
  out.pending_ops.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const HybridCacheStats s = shard->cache->stats();
    const RamCacheStats ram = shard->cache->ram().stats();
    const uint64_t removes = shard->removes.load(std::memory_order_relaxed);
    out.Merge(s);
    out.removes += removes;
    out.shard_lock_acquisitions +=
        shard->lock_acquisitions.load(std::memory_order_relaxed);
    out.ram_optimistic_retries += ram.optimistic_retries;
    out.ram_lock_acquisitions += ram.lock_acquisitions;
    out.shard_ops.push_back(s.gets + s.sets + removes);
    out.pending_ops.push_back(shard->cache->pending_async_ops());
  }
  return out;
}

void ShardedCache::ResetStats() {
  for (auto& shard : shards_) {
    RunLocked(*shard, [&](HybridCache& cache) {
      cache.ResetStats();
      shard->removes.store(0, std::memory_order_relaxed);
    });
  }
}

}  // namespace fdpcache
