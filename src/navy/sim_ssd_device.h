// Device implementation over the simulated FDP SSD.
//
// Mirrors the paper's FDP-aware I/O management (§5.4): placement handles are
// translated to FDP placement identifiers, attached to writes as DTYPE/DSPEC
// directive fields, and submitted to the device. Reads are unchanged.
//
// I/O flows through the QueuedDevice multi-queue-pair pipeline, so any
// number of threads (ShardedCache shards in particular) can submit against
// one device — each on its own SQ/CQ pair — while the dispatcher arbitrates
// across the queues and executes inline (exec_lanes = 0, per-QP submission
// order) or fans popped requests out to die-affine execution lanes
// (exec_lanes > 0; the SimulatedSsd serializes FTL work internally but
// overlaps payload copies, and QueuedDevice's conflict tracker parks
// overlapping same-QP requests until their predecessors retire).
#ifndef SRC_NAVY_SIM_SSD_DEVICE_H_
#define SRC_NAVY_SIM_SSD_DEVICE_H_

#include "src/common/clock.h"
#include "src/navy/queued_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {

class SimSsdDevice final : public QueuedDevice {
 public:
  // Exposes namespace `nsid` of `ssd` as a flat byte space. The clock is
  // shared with the driving harness; device completions are recorded against
  // it. Neither pointer is owned and both must outlive the device.
  SimSsdDevice(SimulatedSsd* ssd, uint32_t nsid, VirtualClock* clock,
               const IoQueueConfig& queue_config = IoQueueConfig{});
  ~SimSsdDevice() override;

  uint64_t size_bytes() const override { return size_bytes_; }
  uint64_t page_size() const override { return page_size_; }

  FdpCapabilities QueryFdp() const override { return ssd_->IdentifyFdp(); }
  uint32_t NumPlacementHandles() const override;

  SimulatedSsd* ssd() { return ssd_; }

 protected:
  IoResult ExecuteWrite(uint64_t offset, const void* data, uint64_t size,
                        PlacementHandle handle) override;
  IoResult ExecuteRead(uint64_t offset, void* out, uint64_t size) override;
  IoResult ExecuteTrim(uint64_t offset, uint64_t size) override;

 private:
  // Translates a placement handle to the NVMe directive fields.
  void TranslateHandle(PlacementHandle handle, DirectiveType* dtype, uint16_t* dspec) const;

  SimulatedSsd* ssd_;
  uint32_t nsid_;
  VirtualClock* clock_;
  uint64_t size_bytes_;
  uint64_t page_size_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_SIM_SSD_DEVICE_H_
