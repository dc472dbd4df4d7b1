// Shared open/validate/IO helpers for file-backed devices (FileDevice and
// UringFileDevice). One place owns the dangerous parts of touching a real
// path: opening an EXISTING file or block device without truncating it,
// sizing a block device via BLKGETSIZE64, O_DIRECT negotiation with a
// buffered-IO fallback on filesystems that reject it (tmpfs), and trim via
// fallocate(PUNCH_HOLE) with a safe fallback.
#ifndef SRC_NAVY_FILE_BACKING_H_
#define SRC_NAVY_FILE_BACKING_H_

#include <cstdint>
#include <string>

#include "src/navy/device.h"

namespace fdpcache {

struct FileBackingOptions {
  std::string path;
  // Bytes of the device the cache may use. 0 means "whatever the existing
  // file/block device holds" (invalid when the file must be created).
  uint64_t size_bytes = 0;
  uint64_t page_size = 4096;
  // Create (and size) a missing regular file. An EXISTING file or block
  // device is always opened in place — never truncated — regardless of this
  // flag; an existing regular file smaller than size_bytes is grown (an
  // extension is non-destructive), never shrunk.
  bool create_if_missing = true;
  // Ask for O_DIRECT. When the filesystem refuses (tmpfs: EINVAL), the open
  // is retried buffered and FileBacking::direct_io reports false; callers
  // that need page-aligned op buffers key off the effective flag.
  bool direct_io = false;
};

// An opened backing target. Move-only; closes the fd on destruction.
struct FileBacking {
  FileBacking() = default;
  ~FileBacking();
  FileBacking(FileBacking&& other) noexcept;
  FileBacking& operator=(FileBacking&& other) noexcept;
  FileBacking(const FileBacking&) = delete;
  FileBacking& operator=(const FileBacking&) = delete;

  bool ok() const { return fd >= 0; }

  int fd = -1;
  uint64_t size_bytes = 0;
  uint64_t page_size = 4096;
  bool is_block_device = false;
  bool direct_io = false;  // Effective (request may have been downgraded).
  // Sticky: cleared after the first EOPNOTSUPP so later trims skip the
  // syscall. Meaningless for block devices (trim is a no-op there).
  bool punch_hole_ok = true;
  // Human-readable failure reason when !ok(); empty on success.
  std::string error;
};

// Opens and validates `opts.path`. On any failure the result has fd == -1
// and `error` says exactly what was wrong (missing size, misaligned size,
// undersized block device, open/stat errno, ...).
FileBacking OpenFileBacking(const FileBackingOptions& opts);

// Positioned blocking IO against an opened backing, with the standard
// device-level validation (fd, page alignment, bounds). When the backing is
// O_DIRECT and `data`/`out` are not page-aligned, the helpers bounce through
// an aligned scratch buffer. Latencies are wall-clock.
IoResult BackingWrite(FileBacking& backing, uint64_t offset, const void* data,
                      uint64_t size);
IoResult BackingRead(FileBacking& backing, uint64_t offset, void* out, uint64_t size);
// Trim: fallocate(FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE) on regular
// files (reads of punched ranges return zeroes), a successful no-op on block
// devices, and an explicit zero-fill when the filesystem lacks punch-hole —
// so trimmed ranges always read back as zeroes on file backings.
IoResult BackingTrim(FileBacking& backing, uint64_t offset, uint64_t size);

}  // namespace fdpcache

#endif  // SRC_NAVY_FILE_BACKING_H_
