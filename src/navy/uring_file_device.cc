#include "src/navy/uring_file_device.h"

#include <sys/syscall.h>
#include <unistd.h>

#ifdef __NR_io_uring_setup
#define FDPCACHE_HAVE_URING 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/uio.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fdpcache {

namespace {

// user_data of the wakeup NOP the destructor posts to stop the reaper.
constexpr uint64_t kShutdownUserData = ~0ull;
// Registered O_DIRECT buffer pool geometry: requests up to this size ride a
// pre-registered fixed buffer (READ_FIXED/WRITE_FIXED); larger ones get a
// one-off aligned allocation and the plain opcodes.
constexpr uint64_t kRegisteredBufBytes = 256 * 1024;
constexpr uint32_t kRegisteredBufCount = 32;
// Workers in the thread-pool fallback.
constexpr uint32_t kFallbackWorkers = 4;

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

#ifdef FDPCACHE_HAVE_URING
int UringSetup(unsigned entries, struct io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int UringEnter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, nullptr, 0));
}

int UringRegister(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}
#endif  // FDPCACHE_HAVE_URING

}  // namespace

bool UringFileDevice::KernelSupportsIoUring() {
  static const bool supported = [] {
#ifdef FDPCACHE_HAVE_URING
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const int fd = UringSetup(4, &params);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
#endif
    return false;
  }();
  return supported;
}

std::string UringFileDevice::KernelIoUringFeatureString() {
#ifdef FDPCACHE_HAVE_URING
  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const int fd = UringSetup(4, &params);
  if (fd >= 0) {
    ::close(fd);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "io_uring: available features=0x%x",
                  params.features);
    return buf;
  }
  return std::string("io_uring: unavailable (") + std::strerror(errno) + ")";
#else
  return "io_uring: not compiled in (no __NR_io_uring_setup)";
#endif
}

UringFileDevice::UringFileDevice(const std::string& path, uint64_t size_bytes,
                                 uint64_t page_size, const IoQueueConfig& queue_config)
    : UringFileDevice(
          [&] {
            Options options;
            options.backing.path = path;
            options.backing.size_bytes = size_bytes;
            options.backing.page_size = page_size;
            return options;
          }(),
          queue_config) {}

UringFileDevice::UringFileDevice(const Options& options, const IoQueueConfig& queue_config)
    : QueuedDevice(queue_config), backing_(OpenFileBacking(options.backing)) {
  if (!backing_.ok()) {
    return;
  }
  const IoQueueConfig& queue = this->queue_config();
  const uint64_t slots = static_cast<uint64_t>(queue.sq_depth) * queue.num_queue_pairs;
  const uint32_t depth =
      RoundUpPow2(static_cast<uint32_t>(std::min<uint64_t>(1024, std::max<uint64_t>(8, slots))));
  if (options.prefer_uring && KernelSupportsIoUring() && SetupRing(depth)) {
    reaper_ = std::thread([this] { ReaperLoop(); });
    return;
  }
  // The tracker has already cleared every task BeginExecute receives, so the
  // pool only executes; its queues are unbounded because BeginExecute must
  // not block. The span is recorded from the task's issue_ns at completion,
  // hence ExecuteBlocking rather than a traced execute.
  pool_ = std::make_unique<ExecLaneEngine>(
      kFallbackWorkers, backing_.page_size, /*lane_queue_depth=*/0,
      [this](const IoRequest& request) { return ExecuteBlocking(request); },
      [this](const LaneTask& task, const IoResult& result) { CompleteLaneTask(task, result); });
}

UringFileDevice::~UringFileDevice() {
  // Finish the pipeline first: after StopQueue() returns, active_ == 0, so
  // neither engine has an outstanding request and nothing can call back into
  // this object.
  StopQueue();
  pool_.reset();
#ifdef FDPCACHE_HAVE_URING
  if (ring_fd_ >= 0) {
    // Wake the reaper with a NOP it recognizes as the shutdown signal.
    {
      fdp::MutexLock lock(&submit_mu_);
      const unsigned tail = *sq_tail_;
      const unsigned idx = tail & *sq_mask_;
      auto* sqe = &static_cast<struct io_uring_sqe*>(sqes_ptr_)[idx];
      std::memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = IORING_OP_NOP;
      sqe->user_data = kShutdownUserData;
      sq_array_[idx] = idx;
      __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
      while (UringEnter(ring_fd_, 1, 0, 0) < 0 && errno == EINTR) {
      }
    }
    if (reaper_.joinable()) {
      reaper_.join();
    }
    TeardownRing();
  }
#endif
}

// ---------------------------------------------------------------------------
// uring engine
// ---------------------------------------------------------------------------

#ifdef FDPCACHE_HAVE_URING

bool UringFileDevice::SetupRing(uint32_t depth) {
  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  ring_fd_ = UringSetup(depth, &params);
  if (ring_fd_ < 0) {
    return false;
  }
  ring_entries_ = params.sq_entries;

  size_t sq_len = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  size_t cq_len = params.cq_off.cqes + params.cq_entries * sizeof(struct io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    sq_len = cq_len = std::max(sq_len, cq_len);
  }
  sq_ptr_ = ::mmap(nullptr, sq_len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                   ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ptr_ == MAP_FAILED) {
    sq_ptr_ = nullptr;
    TeardownRing();
    return false;
  }
  sq_map_len_ = sq_len;
  if (single_mmap) {
    cq_ptr_ = sq_ptr_;
    cq_map_len_ = 0;  // Shared mapping; do not unmap twice.
  } else {
    cq_ptr_ = ::mmap(nullptr, cq_len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                     ring_fd_, IORING_OFF_CQ_RING);
    if (cq_ptr_ == MAP_FAILED) {
      cq_ptr_ = nullptr;
      TeardownRing();
      return false;
    }
    cq_map_len_ = cq_len;
  }
  sqes_map_len_ = params.sq_entries * sizeof(struct io_uring_sqe);
  sqes_ptr_ = ::mmap(nullptr, sqes_map_len_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes_ptr_ == MAP_FAILED) {
    sqes_ptr_ = nullptr;
    TeardownRing();
    return false;
  }

  auto* sq_base = static_cast<char*>(sq_ptr_);
  sq_head_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
  sq_mask_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
  auto* cq_base = static_cast<char*>(cq_ptr_);
  cq_head_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
  cq_mask_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
  cqes_ = cq_base + params.cq_off.cqes;

  // Fixed file: address the backing by registered index 0 when the kernel
  // accepts the registration; plain fd otherwise.
  fixed_file_ =
      UringRegister(ring_fd_, IORING_REGISTER_FILES, &backing_.fd, 1) == 0;

  // Construction is single-threaded, but the slot tables are guarded
  // members, so initialize them under their lock (uncontended).
  fdp::MutexLock lock(&submit_mu_);

  // Registered buffer pool for O_DIRECT bounces.
  if (backing_.direct_io) {
    const uint32_t count = std::min(kRegisteredBufCount, ring_entries_);
    std::vector<struct iovec> iovecs;
    reg_bufs_.reserve(count);
    iovecs.reserve(count);
    bool alloc_ok = true;
    for (uint32_t i = 0; i < count; ++i) {
      void* buf = nullptr;
      if (posix_memalign(&buf, backing_.page_size, kRegisteredBufBytes) != 0) {
        alloc_ok = false;
        break;
      }
      reg_bufs_.push_back(buf);
      iovecs.push_back({buf, kRegisteredBufBytes});
    }
    if (alloc_ok &&
        UringRegister(ring_fd_, IORING_REGISTER_BUFFERS, iovecs.data(),
                      static_cast<unsigned>(iovecs.size())) == 0) {
      reg_bufs_ok_ = true;
      reg_free_.reserve(reg_bufs_.size());
      for (int32_t i = 0; i < static_cast<int32_t>(reg_bufs_.size()); ++i) {
        reg_free_.push_back(i);
      }
    } else {
      for (void* buf : reg_bufs_) {
        std::free(buf);
      }
      reg_bufs_.clear();
    }
  }

  ops_.resize(ring_entries_);
  op_free_.reserve(ring_entries_);
  for (uint32_t i = 0; i < ring_entries_; ++i) {
    op_free_.push_back(i);
  }
  return true;
}

void UringFileDevice::TeardownRing() {
  if (sqes_ptr_ != nullptr) {
    ::munmap(sqes_ptr_, sqes_map_len_);
    sqes_ptr_ = nullptr;
  }
  if (cq_ptr_ != nullptr && cq_map_len_ != 0) {
    ::munmap(cq_ptr_, cq_map_len_);
  }
  cq_ptr_ = nullptr;
  if (sq_ptr_ != nullptr) {
    ::munmap(sq_ptr_, sq_map_len_);
    sq_ptr_ = nullptr;
  }
  for (void* buf : reg_bufs_) {
    std::free(buf);
  }
  reg_bufs_.clear();
  if (ring_fd_ >= 0) {
    ::close(ring_fd_);
    ring_fd_ = -1;
  }
}

bool UringFileDevice::SubmitSqe(uint32_t slot, const LaneTask& task, void* buffer) {
  // Caller holds submit_mu_ (single SQ producer).
  const unsigned tail = *sq_tail_;
  const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
  if (tail - head >= ring_entries_) {
    return false;  // SQ momentarily full; caller falls back to sync.
  }
  const unsigned idx = tail & *sq_mask_;
  auto* sqe = &static_cast<struct io_uring_sqe*>(sqes_ptr_)[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  const IoRequest& request = task.request;
  const bool is_write = request.op == IoOp::kWrite;
  const UringOp& op = ops_[slot];
  if (op.fixed_buf >= 0) {
    sqe->opcode = is_write ? IORING_OP_WRITE_FIXED : IORING_OP_READ_FIXED;
    sqe->buf_index = static_cast<__u16>(op.fixed_buf);
  } else {
    sqe->opcode = is_write ? IORING_OP_WRITE : IORING_OP_READ;
  }
  if (fixed_file_) {
    sqe->fd = 0;
    sqe->flags |= IOSQE_FIXED_FILE;
  } else {
    sqe->fd = backing_.fd;
  }
  sqe->off = request.offset;
  sqe->addr = reinterpret_cast<uint64_t>(buffer);
  sqe->len = static_cast<__u32>(request.size);
  sqe->user_data = slot;
  sq_array_[idx] = idx;
  __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
  int ret;
  do {
    ret = UringEnter(ring_fd_, 1, 0, 0);
  } while (ret < 0 && errno == EINTR);
  if (ret < 1) {
    // Kernel did not consume the SQE; retract it and fall back to sync.
    __atomic_store_n(sq_tail_, tail, __ATOMIC_RELEASE);
    return false;
  }
  return true;
}

void UringFileDevice::ReaperLoop() {
  for (;;) {
    unsigned head = *cq_head_;
    unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    if (head == tail) {
      // Block in the kernel until at least one CQE is available; the
      // destructor's NOP guarantees eventual wakeup.
      const int ret = UringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
      if (ret < 0 && errno != EINTR && errno != EAGAIN && errno != EBUSY) {
        return;  // Ring died under us; StopQueue's sync fallback still works.
      }
      continue;
    }
    bool shutdown = false;
    while (head != tail) {
      const auto* cqe =
          &static_cast<const struct io_uring_cqe*>(cqes_)[head & *cq_mask_];
      const uint64_t user_data = cqe->user_data;
      const int32_t res = cqe->res;
      ++head;
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
      if (user_data == kShutdownUserData) {
        shutdown = true;
      } else {
        // Copy the op out and release its slot under the submit lock, then
        // finish OUTSIDE it: CompleteLaneTask can promote a deferred request
        // and re-enter BeginExecute, which takes submit_mu_.
        LaneTask task;
        void* bounce = nullptr;
        int32_t fixed_buf = -1;
        uint64_t start_ns = 0;
        {
          fdp::MutexLock lock(&submit_mu_);
          UringOp& op = ops_[static_cast<uint32_t>(user_data)];
          task = op.task;
          bounce = op.bounce;
          fixed_buf = op.fixed_buf;
          start_ns = op.start_ns;
          op.bounce = nullptr;
          op.fixed_buf = -1;
          op_free_.push_back(static_cast<uint32_t>(user_data));
        }
        IoResult result;
        result.ok = res == static_cast<int32_t>(task.request.size);
        result.latency_ns = FileWallNowNs() - start_ns;
        if (result.ok && task.request.op == IoOp::kRead && bounce != nullptr) {
          std::memcpy(task.request.out, bounce, task.request.size);
        }
        if (bounce != nullptr) {
          if (fixed_buf >= 0) {
            fdp::MutexLock lock(&submit_mu_);
            reg_free_.push_back(fixed_buf);
          } else {
            std::free(bounce);
          }
        }
        if (!result.ok) {
          result.latency_ns = 0;
        }
        CompleteLaneTask(task, result);
      }
      tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    }
    if (shutdown) {
      return;
    }
  }
}

#else  // !FDPCACHE_HAVE_URING

bool UringFileDevice::SetupRing(uint32_t /*depth*/) { return false; }
void UringFileDevice::TeardownRing() {}
bool UringFileDevice::SubmitSqe(uint32_t /*slot*/, const LaneTask& /*task*/,
                                void* /*buffer*/) {
  return false;
}
void UringFileDevice::ReaperLoop() {}

#endif  // FDPCACHE_HAVE_URING

bool UringFileDevice::BeginExecute(const LaneTask& task) {
  if (pool_ != nullptr) {
    pool_->Dispatch(task, /*promoted=*/false);
    return true;
  }
#ifdef FDPCACHE_HAVE_URING
  const IoRequest& request = task.request;
  if (request.op == IoOp::kTrim) {
    return false;  // Trims take the synchronous fallocate path.
  }
  // Requests the blocking path would reject go to it so the failure IoResult
  // is produced in exactly one place.
  if (request.size == 0 || request.offset % backing_.page_size != 0 ||
      request.size % backing_.page_size != 0 ||
      request.offset + request.size > backing_.size_bytes) {
    return false;
  }
  void* buffer = request.op == IoOp::kWrite ? const_cast<void*>(request.data)
                                            : request.out;
  fdp::MutexLock lock(&submit_mu_);
  if (op_free_.empty()) {
    return false;
  }
  const uint32_t slot = op_free_.back();
  op_free_.pop_back();
  UringOp& op = ops_[slot];
  op.bounce = nullptr;
  op.fixed_buf = -1;
  if (backing_.direct_io) {
    // O_DIRECT: the kernel requires an aligned buffer; use an op-owned one
    // (registered-pool slot when the request fits) and copy at the edges.
    if (reg_bufs_ok_ && request.size <= kRegisteredBufBytes && !reg_free_.empty()) {
      op.fixed_buf = reg_free_.back();
      reg_free_.pop_back();
      op.bounce = reg_bufs_[static_cast<size_t>(op.fixed_buf)];
    } else if (posix_memalign(&op.bounce, backing_.page_size, request.size) != 0) {
      op.bounce = nullptr;
      op_free_.push_back(slot);
      return false;
    }
    if (request.op == IoOp::kWrite) {
      std::memcpy(op.bounce, request.data, request.size);
    }
    buffer = op.bounce;
  }
  op.task = task;
  op.start_ns = FileWallNowNs();
  if (!SubmitSqe(slot, task, buffer)) {
    if (op.fixed_buf >= 0) {
      reg_free_.push_back(op.fixed_buf);
    } else {
      std::free(op.bounce);
    }
    op.bounce = nullptr;
    op.fixed_buf = -1;
    op_free_.push_back(slot);
    return false;
  }
  return true;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// blocking backend (SyncIo fast path + declined BeginExecute fallback)
// ---------------------------------------------------------------------------

IoResult UringFileDevice::ExecuteWrite(uint64_t offset, const void* data, uint64_t size,
                                       PlacementHandle /*handle*/) {
  return BackingWrite(backing_, offset, data, size);
}

IoResult UringFileDevice::ExecuteRead(uint64_t offset, void* out, uint64_t size) {
  return BackingRead(backing_, offset, out, size);
}

IoResult UringFileDevice::ExecuteTrim(uint64_t offset, uint64_t size) {
  return BackingTrim(backing_, offset, size);
}

}  // namespace fdpcache
