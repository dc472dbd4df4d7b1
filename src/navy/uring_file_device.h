// UringFileDevice: the true-async file/block-device backend. Queued requests
// are mapped onto io_uring SQEs — the QueuedDevice dispatcher calls
// BeginExecute, which fills an SQE and returns without blocking — and a
// dedicated reaper thread collects CQEs and publishes each completion
// through the shared CompleteLaneTask path, so the same
// Device::SetCompletionHook / CompletionToken machinery the cache-tier async
// ops and the ShardedCache poller park on fires exactly as it does on the
// simulator. The per-QP overlap-ordering guarantee is enforced upstream by
// QueuedDevice's conflict tracker (see queued_device.h).
//
// The ring is sized from the queue config (sq_depth * num_queue_pairs,
// rounded up to a power of two within [8, 1024]).
//
// io_uring is driven through raw syscalls (io_uring_setup/enter/register +
// mmapped rings) — no liburing dependency. When the kernel lacks io_uring
// (ENOSYS/EPERM, e.g. seccomp) or Options::prefer_uring is false, the device
// degrades to a positioned-pread/pwrite THREAD-POOL fallback with the exact
// same asynchronous contract: submitters still never block on the actual
// I/O, completions still arrive from a worker thread. The pool is the same
// ExecLaneEngine that runs QueuedDevice's lanes (src/navy/exec_lanes.h):
// four workers, striped by the backing page size so sequential page I/O
// spreads across them. `using_uring()` says which engine is live.
//
// O_DIRECT: when the backing negotiated O_DIRECT, every SQE points at a
// page-aligned op-owned buffer — a slot from a pre-REGISTERED buffer pool
// (IORING_OP_READ_FIXED/WRITE_FIXED) when the request fits, a one-off
// posix_memalign allocation otherwise — and reads are copied out to the
// caller's buffer at completion. Buffered mode is zero-copy (the SQE uses
// the caller's memory, valid until completion per the Device contract). The
// backing fd is registered once (IORING_REGISTER_FILES) and addressed as a
// fixed file when the kernel accepts it.
#ifndef SRC_NAVY_URING_FILE_DEVICE_H_
#define SRC_NAVY_URING_FILE_DEVICE_H_

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/navy/file_backing.h"
#include "src/navy/queued_device.h"

namespace fdpcache {

class UringFileDevice final : public QueuedDevice {
 public:
  struct Options {
    FileBackingOptions backing;
    // false forces the thread-pool fallback even on a uring-capable kernel
    // (used by the uring-vs-fallback equivalence tests).
    bool prefer_uring = true;
  };

  // Convenience: create-if-missing regular file, buffered IO.
  UringFileDevice(const std::string& path, uint64_t size_bytes,
                  uint64_t page_size = 4096,
                  const IoQueueConfig& queue_config = IoQueueConfig{});
  UringFileDevice(const Options& options,
                  const IoQueueConfig& queue_config = IoQueueConfig{});
  ~UringFileDevice() override;

  UringFileDevice(const UringFileDevice&) = delete;
  UringFileDevice& operator=(const UringFileDevice&) = delete;

  bool ok() const { return backing_.ok(); }
  const std::string& error() const { return backing_.error; }
  bool direct_io() const { return backing_.direct_io; }
  // True when SQEs are actually reaching a kernel ring (false = thread-pool
  // fallback is live).
  bool using_uring() const { return ring_fd_ >= 0; }
  // "uring" or "thread-pool" — for report headers.
  const char* engine_name() const { return using_uring() ? "uring" : "thread-pool"; }

  // True when this kernel can set up an io_uring instance at all (probed
  // once per process).
  static bool KernelSupportsIoUring();
  // Self-describing one-liner for benchmark/report headers, e.g.
  // "io_uring: available features=0x3ffff" or "io_uring: unavailable".
  static std::string KernelIoUringFeatureString();

  uint64_t size_bytes() const override { return backing_.size_bytes; }
  uint64_t page_size() const override { return backing_.page_size; }

 protected:
  bool SupportsAsyncExecute() const override { return backing_.ok(); }
  bool BeginExecute(const LaneTask& task) override;

  // Blocking ops: the SyncIo idle fast path, the thread-pool fallback's
  // workers, and the synchronous fallback for declined BeginExecute calls
  // (trims on the uring engine, engine momentarily out of slots).
  IoResult ExecuteWrite(uint64_t offset, const void* data, uint64_t size,
                        PlacementHandle handle) override;
  IoResult ExecuteRead(uint64_t offset, void* out, uint64_t size) override;
  IoResult ExecuteTrim(uint64_t offset, uint64_t size) override;

 private:
  struct UringOp {
    LaneTask task;
    void* bounce = nullptr;     // Op-owned aligned buffer (direct IO), or null.
    int32_t fixed_buf = -1;     // Registered-pool slot backing `bounce`, or -1.
    uint64_t start_ns = 0;
  };

  bool SetupRing(uint32_t depth);
  void TeardownRing();
  // Single SQ producer: the slot tables and the SQ tail advance together.
  bool SubmitSqe(uint32_t slot, const LaneTask& task, void* buffer)
      REQUIRES(submit_mu_);
  void ReaperLoop();

  FileBacking backing_;
  // --- uring engine ---
  int ring_fd_ = -1;
  uint32_t ring_entries_ = 0;
  bool fixed_file_ = false;       // backing fd registered; SQEs use index 0.
  void* sq_ptr_ = nullptr;        // SQ ring mmap (CQ too under SINGLE_MMAP).
  size_t sq_map_len_ = 0;
  void* cq_ptr_ = nullptr;
  size_t cq_map_len_ = 0;
  void* sqes_ptr_ = nullptr;
  size_t sqes_map_len_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  void* cqes_ = nullptr;
  // Registered O_DIRECT buffer pool: pool_bufs_[i] is registered as fixed
  // buffer index i, each kRegisteredBufBytes long. reg_bufs_/reg_bufs_ok_
  // are immutable once SetupRing returns; the free list churns under
  // submit_mu_.
  std::vector<void*> reg_bufs_;
  std::vector<int32_t> reg_free_ GUARDED_BY(submit_mu_);
  bool reg_bufs_ok_ = false;

  // SQ producer + op-slot allocator. Ranked after the queue-pair and
  // pipeline locks: BeginExecute runs inside the dispatcher with those held
  // above it, and the reaper releases it before CompleteLaneTask re-enters
  // the (lower-ranked) completion locks.
  fdp::Mutex submit_mu_{lock_rank::Make(lock_rank::kUringSubmit), "uring_submit"};
  std::vector<UringOp> ops_ GUARDED_BY(submit_mu_);
  std::vector<uint32_t> op_free_ GUARDED_BY(submit_mu_);
  std::thread reaper_;

  // --- thread-pool fallback engine (null while the ring is live) ---
  std::unique_ptr<ExecLaneEngine> pool_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_URING_FILE_DEVICE_H_
