#include "src/navy/file_backing.h"

#include <fcntl.h>
#include <linux/fs.h>
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/obs/trace.h"

namespace fdpcache {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Page-aligned scratch for O_DIRECT bounces of unaligned caller buffers.
struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};
using AlignedScratch = std::unique_ptr<void, FreeDeleter>;

// Null when the allocation fails.
AlignedScratch AllocateAligned(uint64_t align, uint64_t size) {
  void* p = nullptr;
  return AlignedScratch(posix_memalign(&p, align, size) == 0 ? p : nullptr);
}

bool IsAligned(const void* p, uint64_t align) {
  return (reinterpret_cast<uintptr_t>(p) % align) == 0;
}

}  // namespace

FileBacking::~FileBacking() {
  if (fd >= 0) {
    ::close(fd);
  }
}

FileBacking::FileBacking(FileBacking&& other) noexcept { *this = std::move(other); }

FileBacking& FileBacking::operator=(FileBacking&& other) noexcept {
  if (this != &other) {
    if (fd >= 0) {
      ::close(fd);
    }
    fd = other.fd;
    other.fd = -1;
    size_bytes = other.size_bytes;
    page_size = other.page_size;
    is_block_device = other.is_block_device;
    direct_io = other.direct_io;
    punch_hole_ok = other.punch_hole_ok;
    error = std::move(other.error);
  }
  return *this;
}

FileBacking OpenFileBacking(const FileBackingOptions& opts) {
  FileBacking out;
  out.page_size = opts.page_size;
  if (opts.path.empty()) {
    out.error = "file backing: path is empty";
    return out;
  }
  if (opts.page_size == 0) {
    out.error = "file backing: page_size must be nonzero";
    return out;
  }

  struct stat st {};
  const bool exists = ::stat(opts.path.c_str(), &st) == 0;
  if (!exists && errno != ENOENT) {
    out.error = Errno("file backing: stat failed");
    return out;
  }
  if (exists && !S_ISREG(st.st_mode) && !S_ISBLK(st.st_mode)) {
    out.error = "file backing: " + opts.path + " is neither a regular file nor a block device";
    return out;
  }
  if (!exists && !opts.create_if_missing) {
    out.error = "file backing: " + opts.path + " does not exist (create_if_missing=false)";
    return out;
  }
  if (!exists && opts.size_bytes == 0) {
    out.error = "file backing: size_bytes required to create " + opts.path;
    return out;
  }

  int flags = O_RDWR | (exists ? 0 : O_CREAT);
  if (opts.direct_io) {
    flags |= O_DIRECT;
  }
  out.fd = ::open(opts.path.c_str(), flags, 0644);
  if (out.fd < 0 && opts.direct_io && (errno == EINVAL || errno == EOPNOTSUPP)) {
    // Filesystem rejects O_DIRECT (tmpfs). Fall back to buffered IO and let
    // the caller see the downgrade through `direct_io`.
    flags &= ~O_DIRECT;
    out.fd = ::open(opts.path.c_str(), flags, 0644);
  } else {
    out.direct_io = out.fd >= 0 && opts.direct_io;
  }
  if (out.fd < 0) {
    out.error = Errno(("file backing: open " + opts.path + " failed").c_str());
    return out;
  }

  out.is_block_device = exists && S_ISBLK(st.st_mode);
  uint64_t existing_bytes = 0;
  if (out.is_block_device) {
    if (::ioctl(out.fd, BLKGETSIZE64, &existing_bytes) != 0) {
      out.error = Errno("file backing: BLKGETSIZE64 failed");
      ::close(out.fd);
      out.fd = -1;
      return out;
    }
  } else if (exists) {
    existing_bytes = static_cast<uint64_t>(st.st_size);
  }

  if (out.is_block_device) {
    // NEVER resize a block device; just bound what we use by what it has.
    if (opts.size_bytes > existing_bytes) {
      out.error = "file backing: block device " + opts.path + " is " +
                  std::to_string(existing_bytes) + " bytes, smaller than requested " +
                  std::to_string(opts.size_bytes);
      ::close(out.fd);
      out.fd = -1;
      return out;
    }
    out.size_bytes = opts.size_bytes != 0 ? opts.size_bytes : existing_bytes;
  } else {
    out.size_bytes = opts.size_bytes != 0 ? opts.size_bytes : existing_bytes;
    if (existing_bytes < out.size_bytes &&
        ::ftruncate(out.fd, static_cast<off_t>(out.size_bytes)) != 0) {
      out.error = Errno("file backing: ftruncate (grow) failed");
      ::close(out.fd);
      out.fd = -1;
      return out;
    }
    // An existing file LARGER than size_bytes is left alone: the device just
    // uses the first size_bytes of it.
  }

  if (out.size_bytes == 0) {
    out.error = "file backing: " + opts.path + " has zero usable bytes";
    ::close(out.fd);
    out.fd = -1;
    return out;
  }
  if (out.size_bytes % opts.page_size != 0) {
    out.error = "file backing: usable size " + std::to_string(out.size_bytes) +
                " is not a multiple of page_size " + std::to_string(opts.page_size);
    ::close(out.fd);
    out.fd = -1;
    return out;
  }
  return out;
}

IoResult BackingWrite(FileBacking& backing, uint64_t offset, const void* data,
                      uint64_t size) {
  if (backing.fd < 0 || offset % backing.page_size != 0 ||
      size % backing.page_size != 0 || size == 0 ||
      offset + size > backing.size_bytes) {
    return IoResult{};
  }
  const uint64_t start = obs::NowNs();
  const void* src = data;
  AlignedScratch scratch;
  if (backing.direct_io && !IsAligned(data, backing.page_size)) {
    scratch = AllocateAligned(backing.page_size, size);
    if (scratch == nullptr) {
      return IoResult{};
    }
    std::memcpy(scratch.get(), data, size);
    src = scratch.get();
  }
  const ssize_t n = ::pwrite(backing.fd, src, size, static_cast<off_t>(offset));
  if (n != static_cast<ssize_t>(size)) {
    return IoResult{};
  }
  return IoResult{true, obs::NowNs() - start};
}

IoResult BackingRead(FileBacking& backing, uint64_t offset, void* out, uint64_t size) {
  if (backing.fd < 0 || offset % backing.page_size != 0 ||
      size % backing.page_size != 0 || size == 0 ||
      offset + size > backing.size_bytes) {
    return IoResult{};
  }
  const uint64_t start = obs::NowNs();
  void* dst = out;
  AlignedScratch scratch;
  if (backing.direct_io && !IsAligned(out, backing.page_size)) {
    scratch = AllocateAligned(backing.page_size, size);
    if (scratch == nullptr) {
      return IoResult{};
    }
    dst = scratch.get();
  }
  const ssize_t n = ::pread(backing.fd, dst, size, static_cast<off_t>(offset));
  if (n != static_cast<ssize_t>(size)) {
    return IoResult{};
  }
  if (dst != out) {
    std::memcpy(out, dst, size);
  }
  return IoResult{true, obs::NowNs() - start};
}

IoResult BackingTrim(FileBacking& backing, uint64_t offset, uint64_t size) {
  if (backing.fd < 0 || size == 0 || offset + size > backing.size_bytes) {
    return IoResult{};
  }
  const uint64_t start = obs::NowNs();
  if (backing.is_block_device) {
    // Deallocate on a raw block device would need BLKDISCARD, which is
    // destructive to neighbours if the range math is ever wrong; a cache can
    // always treat trim as advisory. No-op, reported honestly as such by the
    // caller's stats (trims counted, zero bytes moved).
    return IoResult{true, obs::NowNs() - start};
  }
  if (backing.punch_hole_ok &&
      ::fallocate(backing.fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  static_cast<off_t>(offset), static_cast<off_t>(size)) == 0) {
    return IoResult{true, obs::NowNs() - start};
  }
  if (backing.punch_hole_ok && (errno == EOPNOTSUPP || errno == ENOSYS)) {
    backing.punch_hole_ok = false;  // Don't retry the syscall every trim.
  } else if (backing.punch_hole_ok) {
    return IoResult{};  // Punch-hole supported but failed: a real error.
  }
  // Filesystem without punch-hole: zero-fill so trimmed ranges still read
  // back as zeroes (the semantic punched holes provide).
  std::vector<char> zeros(backing.page_size, 0);
  for (uint64_t o = offset; o < offset + size; o += backing.page_size) {
    const uint64_t n = std::min<uint64_t>(backing.page_size, offset + size - o);
    if (::pwrite(backing.fd, zeros.data(), n, static_cast<off_t>(o)) !=
        static_cast<ssize_t>(n)) {
      return IoResult{};
    }
  }
  return IoResult{true, obs::NowNs() - start};
}

}  // namespace fdpcache
