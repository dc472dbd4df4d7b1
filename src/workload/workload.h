// Synthetic KV-cache workloads parameterised to the paper's traces.
//
// The paper replays sampled production traces: Meta "KV Cache" (read-heavy,
// GET:SET 4:1), Twitter cluster12 (write-heavy, SET:GET 4:1), and a derived
// write-only KV Cache. Those traces are not redistributable at this scale,
// so presets generate equivalent streams: Zipfian popularity over a fixed
// key space, small-object-dominated sizes with a large-object tail, and the
// published op mixes. The DLWA mechanics depend only on these properties.
#ifndef SRC_WORKLOAD_WORKLOAD_H_
#define SRC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/workload/zipf.h"

namespace fdpcache {

enum class OpType : uint8_t { kGet = 0, kSet = 1, kDelete = 2 };

struct Op {
  OpType type = OpType::kGet;
  uint64_t key_id = 0;       // Stable key identity.
  uint32_t value_size = 0;   // Value payload bytes for this key.
};

struct KvWorkloadConfig {
  uint64_t num_keys = 1'000'000;
  double zipf_alpha = 0.9;
  // Op mix; fractions must sum to <= 1 (remainder: deletes).
  double get_fraction = 0.8;
  double set_fraction = 0.2;
  // Fraction of keys that are small objects. The paper's caches hold
  // "billions of frequently accessed small items and millions of
  // infrequently accessed large items": small objects dominate *counts*
  // while large objects dominate *bytes* — with these defaults ~85% of
  // accesses are small objects but ~94% of SET payload bytes belong to
  // large objects, so the LOC carries the majority of device write bytes.
  double small_key_fraction = 0.85;
  uint32_t small_value_min = 64;
  uint32_t small_value_max = 1024;
  uint32_t large_value_min = 24 * 1024;
  uint32_t large_value_max = 72 * 1024;
  uint64_t seed = 1;

  // --- Presets matching the paper's three workloads (§6.1) -----------------

  // Meta KV Cache: read-intensive, GETs outnumber SETs 4:1.
  static KvWorkloadConfig MetaKvCache(uint64_t seed = 1) {
    KvWorkloadConfig c;
    c.get_fraction = 0.8;
    c.set_fraction = 0.2;
    c.seed = seed;
    return c;
  }

  // Twitter cluster12: write-intensive, SETs outnumber GETs 4:1.
  static KvWorkloadConfig TwitterCluster12(uint64_t seed = 1) {
    KvWorkloadConfig c;
    c.get_fraction = 0.2;
    c.set_fraction = 0.8;
    c.zipf_alpha = 1.0;  // Twitter's cluster popularity is more skewed.
    c.seed = seed;
    return c;
  }

  // WO KV Cache: the paper's stress workload (GETs removed from KV Cache).
  static KvWorkloadConfig WriteOnlyKvCache(uint64_t seed = 1) {
    KvWorkloadConfig c;
    c.get_fraction = 0.0;
    c.set_fraction = 1.0;
    c.seed = seed;
    return c;
  }
};

// Deterministic generator over the config: same seed, same stream.
class KvTraceGenerator {
 public:
  explicit KvTraceGenerator(const KvWorkloadConfig& config);

  // The next op; the stream is infinite, so it is never nullopt.
  std::optional<Op> Next();

  // Stable per-key properties.
  bool IsSmallKey(uint64_t key_id) const;
  uint32_t ValueSizeOf(uint64_t key_id) const;

  const KvWorkloadConfig& config() const { return config_; }

 private:
  KvWorkloadConfig config_;
  ZipfSampler zipf_;
  Rng rng_;
};

// Materialises the string key for a key id ("k" + fixed-width hex).
std::string KeyString(uint64_t key_id);

// Deterministic value payload for (key, version): the replayer uses it to
// verify end-to-end integrity without storing expected values.
std::string ValuePayload(uint64_t key_id, uint64_t version, uint32_t size);

}  // namespace fdpcache

#endif  // SRC_WORKLOAD_WORKLOAD_H_
