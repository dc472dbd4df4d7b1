// Byte storage for the simulated device.
//
// Frames are keyed by logical page: overwrites replace the frame, TRIM drops
// it, and reads of unmapped pages return zeroes (NVMe deallocated-read
// behaviour). Keying by LPN means GC relocation moves no bytes — physically
// the FTL copies pages, and the simulator charges that in time, energy, and
// WAF counters, but the payload is reachable from the logical address either
// way, so the copy itself is elided for speed.
//
// Two-phase access for parallel executors: frames are shared-ownership
// buffers, so a command path can resolve WriteFrame()/ReadFrame() pointers
// under the device lock (cheap: allocation + refcount) and do the actual
// memcpy outside it. A TRIM racing such a copy detaches the frame but never
// frees it under the copier (the shared_ptr keeps it alive); two commands
// copying the SAME page concurrently are the submitter's race — exactly the
// per-LBA ordering a real NVMe device refuses to define across queues — and
// the execution-lane conflict tracker orders them within a queue pair.
#ifndef SRC_SSD_DATA_STORE_H_
#define SRC_SSD_DATA_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace fdpcache {

class DataStore {
 public:
  // A page buffer whose lifetime is decoupled from the frame table.
  using Frame = std::shared_ptr<uint8_t[]>;

  DataStore(uint64_t num_pages, uint64_t page_size)
      : page_size_(page_size), frames_(num_pages) {}

  // Returns the page's frame, allocating zero-filled on first touch (a
  // concurrent reader of a just-installed frame must see the page's prior
  // contents — zeroes — never uninitialized heap). Call under the device
  // lock; the returned pointer stays valid afterwards.
  Frame WriteFrame(uint64_t lpn) {
    if (!frames_[lpn]) {
      frames_[lpn] = Frame(new uint8_t[page_size_]());
    }
    return frames_[lpn];
  }

  // Returns the page's current frame, or null when unmapped (read back as
  // zeroes). Never allocates.
  Frame ReadFrame(uint64_t lpn) const { return frames_[lpn]; }

  void Trim(uint64_t lpn) { frames_[lpn].reset(); }

 private:
  uint64_t page_size_;
  std::vector<Frame> frames_;
};

}  // namespace fdpcache

#endif  // SRC_SSD_DATA_STORE_H_
