#include "src/navy/loc.h"

#include <algorithm>
#include <cstring>

namespace fdpcache {

namespace {

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

}  // namespace

LargeObjectCache::LargeObjectCache(Device* device, const LocConfig& config)
    : device_(device),
      config_(config),
      num_regions_(static_cast<uint32_t>(config.size_bytes / config.region_size)),
      regions_(num_regions_),
      open_buffer_(config.region_size, 0) {
  free_regions_.reserve(num_regions_);
  for (uint32_t r = num_regions_; r-- > 1;) {
    free_regions_.push_back(r);
  }
  open_region_ = 0;
}

LargeObjectCache::~LargeObjectCache() { DrainInFlight(); }

std::vector<uint8_t> LargeObjectCache::AcquireBuffer() {
  if (buffer_pool_.empty()) {
    return std::vector<uint8_t>(config_.region_size, 0);
  }
  std::vector<uint8_t> buffer = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  std::fill(buffer.begin(), buffer.end(), 0);
  return buffer;
}

void LargeObjectCache::ReleaseBuffer(std::vector<uint8_t> buffer) {
  buffer_pool_.push_back(std::move(buffer));
}

const LargeObjectCache::InFlightRegion* LargeObjectCache::FindInFlight(uint32_t region) const {
  // Newest entry wins; after an evict-and-refill cycle a region can appear
  // twice and only the latest buffer matches the index.
  for (auto it = inflight_.rbegin(); it != inflight_.rend(); ++it) {
    if (it->region == region) {
      return &*it;
    }
  }
  return nullptr;
}

void LargeObjectCache::DropRegionContents(uint32_t region) {
  RegionInfo& info = regions_[region];
  for (const std::string& key : info.keys) {
    const auto it = index_.find(key);
    if (it != index_.end() && it->second.region == region) {
      index_.erase(it);
      ++stats_.items_evicted;
    }
  }
  info.keys.clear();
  info.sealed = false;
  info.seal_seq = 0;
}

bool LargeObjectCache::RetireOldest(bool blocking, uint32_t* failed_region) {
  *failed_region = kNoFailure;
  if (inflight_.empty()) {
    return false;
  }
  InFlightRegion& front = inflight_.front();
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
  const uint32_t region = front.region;
  ReleaseBuffer(std::move(front.buffer));
  inflight_.pop_front();
  if (!result.ok) {
    ++stats_.regions_write_failed;
    // Back out the seal-time accounting so async-mode stats (and Alwa())
    // match the sync path, which only counts regions that reached flash.
    stats_.bytes_written -= config_.region_size;
    --stats_.regions_sealed;
    DropRegionContents(region);
    *failed_region = region;
  }
  return true;
}

void LargeObjectCache::ReapCompleted() {
  uint32_t failed = kNoFailure;
  while (RetireOldest(/*blocking=*/false, &failed)) {
    if (failed != kNoFailure) {
      free_regions_.push_back(failed);
    }
  }
}

void LargeObjectCache::RetireRegion(uint32_t region) {
  while (FindInFlight(region) != nullptr) {
    uint32_t failed = kNoFailure;
    RetireOldest(/*blocking=*/true, &failed);
    // Failed regions retired on the way go back to the free list — except
    // the target itself, which the caller is about to recycle.
    if (failed != kNoFailure && failed != region) {
      free_regions_.push_back(failed);
    }
  }
}

bool LargeObjectCache::DrainInFlight() {
  bool ok = true;
  while (!inflight_.empty()) {
    uint32_t failed = kNoFailure;
    RetireOldest(/*blocking=*/true, &failed);
    if (failed != kNoFailure) {
      free_regions_.push_back(failed);
      ok = false;
    }
  }
  return ok;
}

uint64_t LargeObjectCache::IndexMemoryBytes() const {
  // Rough DRAM accounting: map node + key + location record. This is the
  // "LOC tracks objects in DRAM" overhead the paper contrasts with the SOC.
  uint64_t bytes = 0;
  for (const auto& [key, loc] : index_) {
    bytes += key.size() + sizeof(ItemLoc) + 48;
  }
  return bytes;
}

bool LargeObjectCache::Insert(std::string_view key, std::string_view value) {
  if (num_regions_ < 2) {
    ++stats_.insert_failures;
    return false;
  }
  const uint64_t need = ItemBytes(key, value);
  if (need > config_.region_size) {
    ++stats_.insert_failures;
    return false;
  }
  if (open_offset_ + need > config_.region_size) {
    if (!SealAndRotate()) {
      ++stats_.insert_failures;
      return false;
    }
  }
  uint8_t* p = open_buffer_.data() + open_offset_;
  PutU32(p, kItemMagic);
  PutU16(p + 4, static_cast<uint16_t>(key.size()));
  PutU32(p + 6, static_cast<uint32_t>(value.size()));
  std::memcpy(p + kItemHeaderBytes, key.data(), key.size());
  std::memcpy(p + kItemHeaderBytes + key.size(), value.data(), value.size());

  ItemLoc loc;
  loc.region = open_region_;
  loc.offset = static_cast<uint32_t>(open_offset_);
  loc.length = static_cast<uint32_t>(need);
  index_[std::string(key)] = loc;
  regions_[open_region_].keys.emplace_back(key);

  open_offset_ += need;
  ++stats_.inserts;
  stats_.item_bytes_written += key.size() + value.size();
  return true;
}

bool LargeObjectCache::SealAndRotate() {
  // Write the full region (CacheLib writes whole regions; the unused tail is
  // part of the LOC's application-level write amplification).
  if (config_.inflight_regions == 0) {
    // Synchronous seal: block on the device write; failure aborts the seal.
    if (!device_->Write(RegionBase(open_region_), open_buffer_.data(), config_.region_size,
                        config_.placement, config_.queue_pair)) {
      return false;
    }
    std::fill(open_buffer_.begin(), open_buffer_.end(), 0);
  } else {
    // Asynchronous seal: hand the buffer to the in-flight ring and submit
    // without waiting; reads of this region are served from the ring until
    // the write retires. Reap completed writes first, then make room.
    ReapCompleted();
    while (inflight_.size() >= config_.inflight_regions) {
      uint32_t failed = kNoFailure;
      RetireOldest(/*blocking=*/true, &failed);
      if (failed != kNoFailure) {
        free_regions_.push_back(failed);
      }
    }
    InFlightRegion entry;
    entry.region = open_region_;
    entry.buffer = std::move(open_buffer_);
    entry.token = device_->Submit(IoRequest::MakeWrite(RegionBase(open_region_),
                                                       entry.buffer.data(), config_.region_size,
                                                       config_.placement, config_.queue_pair));
    inflight_.push_back(std::move(entry));
    open_buffer_ = AcquireBuffer();
  }
  stats_.bytes_written += config_.region_size;
  RegionInfo& sealed = regions_[open_region_];
  sealed.sealed = true;
  sealed.seal_seq = ++seal_seq_;
  ++stats_.regions_sealed;

  uint32_t next;
  if (!free_regions_.empty()) {
    next = free_regions_.back();
    free_regions_.pop_back();
  } else {
    next = PickEvictionVictim();
    EvictRegion(next);
  }
  open_region_ = next;
  open_offset_ = 0;
  return true;
}

uint32_t LargeObjectCache::PickEvictionVictim() {
  uint32_t best = 0;
  uint64_t best_seq = ~0ull;
  for (uint32_t r = 0; r < num_regions_; ++r) {
    if (r == open_region_ || !regions_[r].sealed) {
      continue;
    }
    if (regions_[r].seal_seq < best_seq) {
      best_seq = regions_[r].seal_seq;
      best = r;
    }
  }
  return best;
}

void LargeObjectCache::EvictRegion(uint32_t region) {
  // The region's space is about to be recycled: its own device write must
  // not still be outstanding (a late-landing write would clobber the reused
  // region and a failed one would drop the wrong keys).
  RetireRegion(region);
  RegionInfo& info = regions_[region];
  for (const std::string& key : info.keys) {
    const auto it = index_.find(key);
    if (it != index_.end() && it->second.region == region) {
      index_.erase(it);
      ++stats_.items_evicted;
    }
  }
  info.keys.clear();
  info.sealed = false;
  info.seal_seq = 0;
  if (config_.trim_on_evict) {
    device_->Trim(RegionBase(region), config_.region_size, config_.queue_pair);
  }
  ++stats_.regions_evicted;
}

LargeObjectCache::ReadPlan LargeObjectCache::LookupStart(std::string_view key,
                                                         bool count_lookup) {
  ReadPlan plan;
  if (count_lookup) {
    ++stats_.lookups;
  }
  const auto it = index_.find(std::string(key));
  if (it == index_.end()) {
    return plan;
  }
  const ItemLoc loc = it->second;
  plan.region = loc.region;
  plan.item_offset = loc.offset;
  plan.item_length = loc.length;
  plan.region_seal_seq = regions_[loc.region].seal_seq;
  const InFlightRegion* inflight =
      loc.region == open_region_ ? nullptr : FindInFlight(loc.region);
  if (loc.region == open_region_ || inflight != nullptr) {
    // Served from RAM: either the open region's buffer or a sealed region
    // whose device write is still in flight.
    const uint8_t* p =
        (inflight != nullptr ? inflight->buffer.data() : open_buffer_.data()) + loc.offset;
    const uint16_t key_size = GetU16(p + 4);
    const uint32_t value_size = GetU32(p + 6);
    plan.value.assign(reinterpret_cast<const char*>(p + kItemHeaderBytes + key_size),
                      value_size);
    if (inflight != nullptr) {
      ++stats_.inflight_buffer_hits;
    }
    ++stats_.hits;
    plan.kind = ReadPlan::Kind::kReady;
    return plan;
  }
  // Page-aligned read spanning the item.
  const uint64_t page = device_->page_size();
  const uint64_t item_start = RegionBase(loc.region) + loc.offset;
  const uint64_t aligned_start = item_start / page * page;
  const uint64_t aligned_end = (item_start + loc.length + page - 1) / page * page;
  plan.kind = ReadPlan::Kind::kNeedsRead;
  plan.offset = aligned_start;
  plan.size = aligned_end - aligned_start;
  plan.buffer_skip = item_start - aligned_start;
  return plan;
}

LargeObjectCache::FinishStatus LargeObjectCache::LookupFinish(std::string_view key,
                                                              const ReadPlan& plan,
                                                              const uint8_t* buffer,
                                                              bool io_ok, std::string* value) {
  // Revalidate before parsing: while the read was parked the entry may have
  // been evicted with its region (gone → miss) or its region recycled and
  // resealed (seal_seq moved → the buffer describes stale flash; retry from
  // fresh state). Impossible on the blocking path, where nothing interleaves.
  const auto it = index_.find(std::string(key));
  if (it == index_.end()) {
    return FinishStatus::kMiss;
  }
  const ItemLoc loc = it->second;
  if (loc.region != plan.region || loc.offset != plan.item_offset ||
      loc.length != plan.item_length ||
      regions_[loc.region].seal_seq != plan.region_seal_seq) {
    return FinishStatus::kRetry;
  }
  if (!io_ok) {
    return FinishStatus::kMiss;
  }
  const uint8_t* p = buffer + plan.buffer_skip;
  if (GetU32(p) != kItemMagic) {
    ++stats_.corrupt_items;
    index_.erase(it);
    return FinishStatus::kMiss;
  }
  const uint16_t key_size = GetU16(p + 4);
  const uint32_t value_size = GetU32(p + 6);
  if (key_size != key.size() ||
      std::memcmp(p + kItemHeaderBytes, key.data(), key.size()) != 0) {
    ++stats_.corrupt_items;
    index_.erase(it);
    return FinishStatus::kMiss;
  }
  value->assign(reinterpret_cast<const char*>(p + kItemHeaderBytes + key_size), value_size);
  ++stats_.hits;
  return FinishStatus::kHit;
}

std::optional<std::string> LargeObjectCache::Lookup(std::string_view key) {
  bool first_attempt = true;
  for (;;) {
    ReadPlan plan = LookupStart(key, first_attempt);
    first_attempt = false;
    if (plan.kind == ReadPlan::Kind::kMiss) {
      return std::nullopt;
    }
    if (plan.kind == ReadPlan::Kind::kReady) {
      return std::move(plan.value);
    }
    std::vector<uint8_t> buf(plan.size);
    const bool io_ok = device_->Read(plan.offset, buf.data(), buf.size(), config_.queue_pair);
    std::string value;
    switch (LookupFinish(key, plan, buf.data(), io_ok, &value)) {
      case FinishStatus::kHit:
        return value;
      case FinishStatus::kMiss:
        return std::nullopt;
      case FinishStatus::kRetry:
        break;  // Unreachable single-threaded; restart defensively.
    }
  }
}

bool LargeObjectCache::Remove(std::string_view key) {
  const auto it = index_.find(std::string(key));
  if (it == index_.end()) {
    return false;
  }
  index_.erase(it);
  ++stats_.removes;
  return true;
}

bool LargeObjectCache::Flush() {
  bool ok = true;
  if (open_offset_ != 0) {
    ok = SealAndRotate();
  }
  return DrainInFlight() && ok;
}

bool LargeObjectCache::RetireInFlight() { return DrainInFlight(); }

namespace {
constexpr uint32_t kStateMagic = 0x4c4f4353;  // "SCOL"
constexpr uint32_t kStateVersion = 1;

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
bool TakeU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + sizeof(*v) > in.size()) {
    return false;
  }
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}
bool TakeU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + sizeof(*v) > in.size()) {
    return false;
  }
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}
}  // namespace

bool LargeObjectCache::SerializeState(std::string* out) {
  if (!Flush()) {
    return false;
  }
  out->clear();
  AppendU32(out, kStateMagic);
  AppendU32(out, kStateVersion);
  AppendU32(out, num_regions_);
  AppendU64(out, static_cast<uint64_t>(config_.region_size));
  AppendU64(out, seal_seq_);
  AppendU32(out, open_region_);
  // Region metadata (keys lists are reconstructed from the index below).
  for (const RegionInfo& region : regions_) {
    AppendU64(out, region.seal_seq);
    AppendU32(out, region.sealed ? 1 : 0);
  }
  // Index entries.
  AppendU64(out, index_.size());
  for (const auto& [key, loc] : index_) {
    AppendU32(out, static_cast<uint32_t>(key.size()));
    out->append(key);
    AppendU32(out, loc.region);
    AppendU32(out, loc.offset);
    AppendU32(out, loc.length);
  }
  return true;
}

bool LargeObjectCache::RestoreState(const std::string& blob) {
  DrainInFlight();  // A fresh instance has none; defensive for reuse.
  size_t pos = 0;
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t num_regions = 0;
  uint64_t region_size = 0;
  if (!TakeU32(blob, &pos, &magic) || magic != kStateMagic ||
      !TakeU32(blob, &pos, &version) || version != kStateVersion ||
      !TakeU32(blob, &pos, &num_regions) || num_regions != num_regions_ ||
      !TakeU64(blob, &pos, &region_size) || region_size != config_.region_size) {
    return false;
  }
  if (!TakeU64(blob, &pos, &seal_seq_)) {
    return false;
  }
  uint32_t open_region = 0;
  if (!TakeU32(blob, &pos, &open_region) || open_region >= num_regions_) {
    return false;
  }
  for (RegionInfo& region : regions_) {
    uint64_t seq = 0;
    uint32_t sealed = 0;
    if (!TakeU64(blob, &pos, &seq) || !TakeU32(blob, &pos, &sealed)) {
      return false;
    }
    region.seal_seq = seq;
    region.sealed = sealed != 0;
    region.keys.clear();
  }
  uint64_t entries = 0;
  if (!TakeU64(blob, &pos, &entries)) {
    return false;
  }
  index_.clear();
  for (uint64_t i = 0; i < entries; ++i) {
    uint32_t key_size = 0;
    if (!TakeU32(blob, &pos, &key_size) || pos + key_size > blob.size()) {
      return false;
    }
    std::string key = blob.substr(pos, key_size);
    pos += key_size;
    ItemLoc loc;
    if (!TakeU32(blob, &pos, &loc.region) || !TakeU32(blob, &pos, &loc.offset) ||
        !TakeU32(blob, &pos, &loc.length) || loc.region >= num_regions_) {
      return false;
    }
    regions_[loc.region].keys.push_back(key);
    index_[std::move(key)] = loc;
  }
  // Rebuild the free list: everything never sealed and not open is free.
  free_regions_.clear();
  for (uint32_t r = num_regions_; r-- > 0;) {
    if (!regions_[r].sealed && r != open_region) {
      free_regions_.push_back(r);
    }
  }
  open_region_ = open_region;
  open_offset_ = 0;
  std::fill(open_buffer_.begin(), open_buffer_.end(), 0);
  return true;
}

}  // namespace fdpcache
