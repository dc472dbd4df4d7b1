// DeviceStack: the one place the harnesses build a device.
//
// A stack is one Device on any backend together with everything it owns:
// the VirtualClock its completions are recorded against, the SimulatedSsd on
// the simulator, the PlacementHandleAllocator every consumer draws from, and
// the temp backing file on kFile/kUring. The device is cut into equal
// page-aligned partitions — ExperimentRunner gives one to each tenant,
// ShardedSimBackend one to each shard — so one deployment lays out the same
// bytes on every backend.
#ifndef SRC_HARNESS_DEVICE_STACK_H_
#define SRC_HARNESS_DEVICE_STACK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/clock.h"
#include "src/navy/device.h"
#include "src/navy/placement.h"
#include "src/navy/queued_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {

// Which device implementation backs the stack.
//  kSim:   the simulated FDP SSD (virtual-clock latencies, FDP statistics,
//          GC/DLWA telemetry) — the default, and the only backend whose
//          metrics cover the paper's DLWA/FDP claims.
//  kFile:  FileDevice on a regular file or block device — synchronous
//          pread/pwrite under the queue-pair pipeline, wall-clock latencies.
//  kUring: UringFileDevice — io_uring when the kernel has it (thread-pool
//          fallback otherwise), same file/block-device backing.
// Every backend exposes the same partitions of the same byte range; FDP
// placement, DLWA, GC and energy metrics are reported as zeros/unity on
// kFile/kUring since a plain file has none.
enum class DeviceBackend : uint8_t { kSim, kFile, kUring };

const char* DeviceBackendName(DeviceBackend backend);

// Logical capacity of the SSD `ssd` describes, without building one: what
// SimulatedSsd::logical_capacity_bytes() reports, and what kFile/kUring
// stacks are sized against so a utilization means the same on every backend.
uint64_t LogicalCapacityBytes(const SsdConfig& ssd);

struct DeviceStackConfig {
  DeviceBackend backend = DeviceBackend::kSim;
  // The simulated device on kSim. On every backend its geometry fixes the
  // page size and the logical capacity the partitions must fit in.
  SsdConfig ssd;
  IoQueueConfig queue;
  // The device is `partitions` byte ranges of `partition_bytes` each, rounded
  // up to whole pages: partition i owns [i * P, (i + 1) * P). The stack
  // throws when P is 0 or the partitions exceed the logical capacity.
  uint32_t partitions = 1;
  uint64_t partition_bytes = 0;
  // kFile/kUring backing: a regular file (created/grown as needed) or an
  // existing block device (never truncated). Empty = a temp file under /tmp,
  // removed with the stack.
  std::string path;
  // Ask for O_DIRECT on kFile/kUring (downgraded where the filesystem
  // refuses, e.g. tmpfs).
  bool direct_io = false;
};

class DeviceStack {
 public:
  // Throws std::runtime_error when the device cannot be provisioned. A
  // throwing constructor leaves no temp file behind.
  explicit DeviceStack(const DeviceStackConfig& config);

  Device& device() { return *device_; }
  VirtualClock& clock() { return clock_; }
  PlacementHandleAllocator& allocator() { return *allocator_; }
  // The simulated SSD beneath the device; null on kFile/kUring.
  SimulatedSsd* ssd() { return ssd_.get(); }
  // Page-aligned size of each partition (P above).
  uint64_t partition_bytes() const { return partition_bytes_; }

 private:
  // A temp backing file's path; its destructor removes the file. Declared
  // first so the file outlives the device that has it open.
  struct TempFile {
    ~TempFile();
    std::string path;
  };

  TempFile temp_file_;
  VirtualClock clock_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::unique_ptr<Device> device_;
  std::unique_ptr<PlacementHandleAllocator> allocator_;
  uint64_t partition_bytes_ = 0;
};

}  // namespace fdpcache

#endif  // SRC_HARNESS_DEVICE_STACK_H_
