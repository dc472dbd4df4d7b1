// Micro-benchmarks of the simulated SSD substrate (google-benchmark):
// raw write/read/trim dispatch cost, GC-heavy churn, and FTL invariant
// checking. These measure simulator CPU cost, not simulated device time.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/rng.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

SsdConfig MicroSsdConfig(double op_fraction = 0.25) {
  SsdConfig config;
  config.geometry.pages_per_block = 32;
  config.geometry.planes_per_die = 2;
  config.geometry.num_dies = 8;
  config.geometry.num_superblocks = 64;
  config.op_fraction = op_fraction;
  return config;
}

void BM_SequentialWrite(benchmark::State& state) {
  SimulatedSsd ssd(MicroSsdConfig());
  ssd.CreateNamespace(ssd.logical_capacity_bytes());
  const uint64_t pages = ssd.logical_capacity_bytes() / ssd.page_size();
  std::vector<uint8_t> data(4096, 42);
  uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ssd.Write(1, lba, 1, data.data(), DirectiveType::kNone, 0, 0));
    lba = (lba + 1) % pages;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_SequentialWrite);

void BM_RandomWriteWithGc(benchmark::State& state) {
  // OP fraction from the benchmark argument (12% / 25% / 50%): less spare
  // space means more GC work per host write.
  SimulatedSsd ssd(MicroSsdConfig(static_cast<double>(state.range(0)) / 100.0));
  ssd.CreateNamespace(ssd.logical_capacity_bytes());
  const uint64_t pages = ssd.logical_capacity_bytes() / ssd.page_size();
  std::vector<uint8_t> data(4096, 7);
  Rng rng(1);
  // Pre-fill so GC is active from the first measured iteration.
  for (uint64_t i = 0; i < pages; ++i) {
    ssd.Write(1, i, 1, data.data(), DirectiveType::kNone, 0, 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ssd.Write(1, rng.NextBelow(pages), 1, data.data(), DirectiveType::kNone, 0, 0));
  }
  state.counters["dlwa"] = ssd.GetFdpStatisticsLog().Dlwa();
}
BENCHMARK(BM_RandomWriteWithGc)->Arg(12)->Arg(25)->Arg(50);

void BM_RandomRead(benchmark::State& state) {
  SimulatedSsd ssd(MicroSsdConfig());
  ssd.CreateNamespace(ssd.logical_capacity_bytes());
  const uint64_t pages = ssd.logical_capacity_bytes() / ssd.page_size();
  std::vector<uint8_t> data(4096, 3);
  for (uint64_t i = 0; i < pages; ++i) {
    ssd.Write(1, i, 1, data.data(), DirectiveType::kNone, 0, 0);
  }
  Rng rng(2);
  std::vector<uint8_t> out(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssd.Read(1, rng.NextBelow(pages), 1, out.data(), 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_RandomRead);

void BM_PlacementDirectiveWrite(benchmark::State& state) {
  SimulatedSsd ssd(MicroSsdConfig());
  ssd.CreateNamespace(ssd.logical_capacity_bytes());
  const uint64_t pages = ssd.logical_capacity_bytes() / ssd.page_size();
  std::vector<uint8_t> data(4096, 9);
  uint64_t lba = 0;
  uint16_t ruh = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssd.Write(1, lba, 1, data.data(), DirectiveType::kDataPlacement,
                                       EncodeDspec({0, ruh}), 0));
    lba = (lba + 1) % pages;
    ruh = static_cast<uint16_t>((ruh + 1) % 8);
  }
}
BENCHMARK(BM_PlacementDirectiveWrite);

void BM_Deallocate(benchmark::State& state) {
  SimulatedSsd ssd(MicroSsdConfig());
  ssd.CreateNamespace(ssd.logical_capacity_bytes());
  const uint64_t pages = ssd.logical_capacity_bytes() / ssd.page_size();
  std::vector<uint8_t> data(4096, 1);
  uint64_t lba = 0;
  for (auto _ : state) {
    ssd.Write(1, lba, 1, data.data(), DirectiveType::kNone, 0, 0);
    benchmark::DoNotOptimize(ssd.Deallocate(1, lba, 1, 0));
    lba = (lba + 1) % pages;
  }
}
BENCHMARK(BM_Deallocate);

void BM_InvariantCheck(benchmark::State& state) {
  SimulatedSsd ssd(MicroSsdConfig());
  ssd.CreateNamespace(ssd.logical_capacity_bytes());
  const uint64_t pages = ssd.logical_capacity_bytes() / ssd.page_size();
  std::vector<uint8_t> data(4096, 5);
  Rng rng(3);
  for (uint64_t i = 0; i < pages * 2; ++i) {
    ssd.Write(1, rng.NextBelow(pages), 1, data.data(), DirectiveType::kNone, 0, 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssd.ftl().CheckInvariants());
  }
}
BENCHMARK(BM_InvariantCheck);

}  // namespace
}  // namespace fdpcache

BENCHMARK_MAIN();
