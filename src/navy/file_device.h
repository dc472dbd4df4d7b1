// File-backed Device: the cache library runs against a regular file (or a
// block device path) with no FDP and no simulation. Useful for examples,
// integration tests, and as the seam where a real io_uring/NVMe passthru
// backend slots in (see src/navy/uring_file_device.h for the async one).
// I/O goes through the same QueuedDevice multi-queue-pair pipeline as the
// simulated SSD, so it is safe for concurrent submitters; with
// IoQueueConfig::exec_lanes > 0 the positioned pread/pwrite calls run
// concurrently from the lane pool's workers (they share the one fd safely),
// ordered per queue pair by QueuedDevice's conflict tracker.
// Completion latencies are wall-clock.
//
// Opening semantics (src/navy/file_backing.h): an EXISTING file or block
// device is opened in place — never truncated (a block device cannot even
// be resized; an existing regular file is grown when too small, never
// shrunk). Size/alignment problems fail construction with a message in
// error() instead of UB at first I/O.
#ifndef SRC_NAVY_FILE_DEVICE_H_
#define SRC_NAVY_FILE_DEVICE_H_

#include <string>

#include "src/navy/file_backing.h"
#include "src/navy/queued_device.h"

namespace fdpcache {

class FileDevice final : public QueuedDevice {
 public:
  // Convenience: create-if-missing, buffered IO. Check ok() after
  // construction; error() says why when not.
  FileDevice(const std::string& path, uint64_t size_bytes, uint64_t page_size = 4096,
             const IoQueueConfig& queue_config = IoQueueConfig{});
  // Full control over open semantics (existing block device, O_DIRECT, ...).
  FileDevice(const FileBackingOptions& options,
             const IoQueueConfig& queue_config = IoQueueConfig{});
  ~FileDevice() override;

  FileDevice(const FileDevice&) = delete;
  FileDevice& operator=(const FileDevice&) = delete;

  bool ok() const { return backing_.ok(); }
  const std::string& error() const { return backing_.error; }
  bool direct_io() const { return backing_.direct_io; }
  bool is_block_device() const { return backing_.is_block_device; }

  uint64_t size_bytes() const override { return backing_.size_bytes; }
  uint64_t page_size() const override { return backing_.page_size; }

 protected:
  IoResult ExecuteWrite(uint64_t offset, const void* data, uint64_t size,
                        PlacementHandle handle) override;
  IoResult ExecuteRead(uint64_t offset, void* out, uint64_t size) override;
  IoResult ExecuteTrim(uint64_t offset, uint64_t size) override;

 private:
  FileBacking backing_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_FILE_DEVICE_H_
