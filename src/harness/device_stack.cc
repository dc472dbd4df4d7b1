#include "src/harness/device_stack.h"

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/common/units.h"
#include "src/ftl/ftl.h"
#include "src/navy/file_device.h"
#include "src/navy/sim_ssd_device.h"
#include "src/navy/uring_file_device.h"

namespace fdpcache {

const char* DeviceBackendName(DeviceBackend backend) {
  switch (backend) {
    case DeviceBackend::kSim:
      return "sim";
    case DeviceBackend::kFile:
      return "file";
    case DeviceBackend::kUring:
      return "uring";
  }
  return "sim";
}

uint64_t LogicalCapacityBytes(const SsdConfig& ssd) {
  return Ftl::LogicalPages(ssd.geometry, ssd.op_fraction) * ssd.geometry.page_size_bytes;
}

DeviceStack::TempFile::~TempFile() {
  if (!path.empty()) {
    std::remove(path.c_str());
  }
}

DeviceStack::DeviceStack(const DeviceStackConfig& config) {
  const uint64_t page = config.ssd.geometry.page_size_bytes;
  const uint64_t logical = LogicalCapacityBytes(config.ssd);
  partition_bytes_ = RoundUp(config.partition_bytes, page);
  if (config.partitions == 0 || partition_bytes_ == 0 ||
      partition_bytes_ > logical / config.partitions) {
    // A partition needs at least one page.
    std::ostringstream msg;
    msg << "device too small: " << config.partitions << " partition(s) of "
        << std::max(partition_bytes_, page) << " bytes do not fit its " << logical
        << "-byte logical capacity; increase num_superblocks, or reduce the partition count "
           "(tenants, shards) or size (utilization)";
    throw std::runtime_error(msg.str());
  }
  const uint64_t size_bytes = partition_bytes_ * config.partitions;

  if (config.backend == DeviceBackend::kSim) {
    ssd_ = std::make_unique<SimulatedSsd>(config.ssd);
    // Cannot fail: the partitions fit the logical capacity (checked above).
    const uint32_t nsid = *ssd_->CreateNamespace(size_bytes);
    device_ = std::make_unique<SimSsdDevice>(ssd_.get(), nsid, &clock_, config.queue);
  } else {
    FileBackingOptions backing;
    backing.path = config.path;
    if (backing.path.empty()) {
      char temp_template[] = "/tmp/fdpbench_backing_XXXXXX";
      const int fd = ::mkstemp(temp_template);
      if (fd < 0) {
        throw std::runtime_error(
            "cannot create a temp backing file under /tmp; pass an explicit device path");
      }
      ::close(fd);
      temp_file_.path = temp_template;
      backing.path = temp_file_.path;
    }
    backing.size_bytes = size_bytes;
    backing.page_size = page;
    backing.direct_io = config.direct_io;
    if (config.backend == DeviceBackend::kFile) {
      auto device = std::make_unique<FileDevice>(backing, config.queue);
      if (!device->ok()) {
        throw std::runtime_error(device->error());
      }
      device_ = std::move(device);
    } else {
      UringFileDevice::Options options;
      options.backing = backing;
      auto device = std::make_unique<UringFileDevice>(options, config.queue);
      if (!device->ok()) {
        throw std::runtime_error(device->error());
      }
      device_ = std::move(device);
    }
  }
  // A plain file exposes no placement handles: the allocator then hands out
  // kNoPlacement and the caches run FDP-off.
  allocator_ = std::make_unique<PlacementHandleAllocator>(*device_);
}

}  // namespace fdpcache
