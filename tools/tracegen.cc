// tracegen: generate, inspect, and sample CSV op traces.
//
//   tracegen gen --preset=kvcache --ops=1000000 --keys=500000 --out=trace.csv
//   tracegen info trace.csv
//   tracegen sample --in=trace.csv --out=small.csv --rate=0.1
#include <cstdio>
#include <map>
#include <string>

#include "src/common/rng.h"
#include "src/workload/trace_io.h"
#include "src/workload/workload.h"
#include "tools/flags.h"

namespace fdpcache {
namespace {

// Call once every flag of the command has been read.
bool FlagsOk(const Flags& flags) {
  const std::string error = flags.Error();
  if (!error.empty()) {
    std::fprintf(stderr, "tracegen: %s\n", error.c_str());
  }
  return error.empty();
}

int Generate(const Flags& flags) {
  KvWorkloadConfig config;
  const std::string preset = flags.GetString("preset", "kvcache");
  if (preset == "kvcache") {
    config = KvWorkloadConfig::MetaKvCache();
  } else if (preset == "twitter") {
    config = KvWorkloadConfig::TwitterCluster12();
  } else if (preset == "wokv") {
    config = KvWorkloadConfig::WriteOnlyKvCache();
  } else {
    std::fprintf(stderr, "unknown --preset=%s\n", preset.c_str());
    return 2;
  }
  config.num_keys = flags.GetUint("keys", 1'000'000);
  config.seed = flags.GetUint("seed", 1);
  config.zipf_alpha = flags.GetDouble("alpha", config.zipf_alpha);
  const uint64_t ops = flags.GetUint("ops", 1'000'000);
  const std::string out = flags.GetString("out", "trace.csv");
  if (!FlagsOk(flags)) {
    return 2;
  }

  KvTraceGenerator gen(config);
  TraceFileWriter writer(out);
  if (!writer.ok()) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  for (uint64_t i = 0; i < ops; ++i) {
    if (!writer.Append(*gen.Next())) {
      std::fprintf(stderr, "write failed at op %llu\n", static_cast<unsigned long long>(i));
      return 1;
    }
  }
  std::printf("wrote %llu ops (%s preset, %llu keys) to %s\n",
              static_cast<unsigned long long>(ops), preset.c_str(),
              static_cast<unsigned long long>(config.num_keys), out.c_str());
  return 0;
}

int Info(const std::string& path) {
  TraceFileReader reader(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  uint64_t counts[3] = {};
  uint64_t total_bytes = 0;
  uint64_t small = 0;
  uint64_t total = 0;
  std::map<uint64_t, uint32_t> key_sizes;
  while (const auto op = reader.Next()) {
    ++counts[static_cast<int>(op->type)];
    total_bytes += op->value_size;
    small += op->value_size <= 2048;
    ++total;
    key_sizes[op->key_id] = op->value_size;
  }
  if (total == 0) {
    std::printf("%s: empty trace\n", path.c_str());
    return 0;
  }
  uint64_t footprint = 0;
  for (const auto& [key, size] : key_sizes) {
    footprint += size;
  }
  std::printf("%s:\n", path.c_str());
  std::printf("  ops        : %llu (GET %llu / SET %llu / DEL %llu)\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(counts[0]),
              static_cast<unsigned long long>(counts[1]),
              static_cast<unsigned long long>(counts[2]));
  std::printf("  keys       : %zu distinct, footprint %.1f MiB\n", key_sizes.size(),
              static_cast<double>(footprint) / 1048576.0);
  std::printf("  small ops  : %.1f%% (<= 2 KiB)\n",
              100.0 * static_cast<double>(small) / static_cast<double>(total));
  std::printf("  avg value  : %.0f B\n",
              static_cast<double>(total_bytes) / static_cast<double>(total));
  std::printf("  parse errs : %llu\n",
              static_cast<unsigned long long>(reader.parse_errors()));
  return 0;
}

int Sample(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string out = flags.GetString("out", "sampled.csv");
  const double rate = flags.GetDouble("rate", 0.1);
  if (!FlagsOk(flags)) {
    return 2;
  }
  TraceFileReader reader(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "cannot open %s\n", in.c_str());
    return 1;
  }
  TraceFileWriter writer(out);
  if (!writer.ok()) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  // Sample by key (keep whole key streams), like the paper's sampled traces.
  const auto threshold = static_cast<uint64_t>(rate * 1e9);
  uint64_t kept = 0;
  while (const auto op = reader.Next()) {
    if (HashU64(op->key_id) % 1'000'000'000ull < threshold) {
      writer.Append(*op);
      ++kept;
    }
  }
  std::printf("kept %llu ops at key-sampling rate %.2f -> %s\n",
              static_cast<unsigned long long>(kept), rate, out.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: tracegen gen|info|sample [--flags]\n"
                 "  gen    --preset=kvcache|twitter|wokv --ops=N --keys=N --out=F\n"
                 "  info   <file>\n"
                 "  sample --in=F --out=F --rate=0.1\n");
    return 2;
  }
  const std::string& command = flags.positional()[0];
  if (command == "gen") {
    return Generate(flags);
  }
  if (command == "info" && flags.positional().size() > 1) {
    return FlagsOk(flags) ? Info(flags.positional()[1]) : 2;
  }
  if (command == "sample") {
    return Sample(flags);
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace fdpcache

int main(int argc, char** argv) { return fdpcache::Run(argc, argv); }
