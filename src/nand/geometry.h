// Physical NAND geometry for the simulated SSD.
//
// The simulator models an SSD as `num_superblocks` superblocks, where a
// superblock is one erase block from every plane of every die (the same
// construction the paper's PM9D3 uses for its ~6 GB reclaim units). A NAND
// page equals the 4 KiB logical block, which keeps the FTL page-mapped with a
// 1:1 LBA:page relationship.
#ifndef SRC_NAND_GEOMETRY_H_
#define SRC_NAND_GEOMETRY_H_

#include <cstdint>

#include "src/common/units.h"

namespace fdpcache {

struct NandGeometry {
  uint64_t page_size_bytes = 4_KiB;
  uint32_t pages_per_block = 128;  // 512 KiB erase block by default.
  uint32_t planes_per_die = 4;
  uint32_t num_dies = 8;
  uint32_t num_superblocks = 64;  // 64 x 16 MiB = 1 GiB physical by default.

  constexpr uint32_t BlocksPerSuperblock() const { return planes_per_die * num_dies; }
  constexpr uint32_t PagesPerSuperblock() const { return pages_per_block * BlocksPerSuperblock(); }
  constexpr uint64_t SuperblockBytes() const { return PagesPerSuperblock() * page_size_bytes; }
  constexpr uint64_t TotalBlocks() const {
    return static_cast<uint64_t>(num_superblocks) * BlocksPerSuperblock();
  }
  constexpr uint64_t TotalPages() const {
    return static_cast<uint64_t>(num_superblocks) * PagesPerSuperblock();
  }
  constexpr uint64_t PhysicalBytes() const { return TotalPages() * page_size_bytes; }

  // --- Physical page number (PPN) addressing -------------------------------
  // PPN = superblock * PagesPerSuperblock() + offset. Appends to a superblock
  // stripe across its blocks (block = offset % BlocksPerSuperblock()), so
  // consecutive programs land on different dies and each block is programmed
  // strictly in page order, as real NAND requires.

  constexpr uint32_t SuperblockOfPpn(uint64_t ppn) const {
    return static_cast<uint32_t>(ppn / PagesPerSuperblock());
  }
  constexpr uint32_t OffsetOfPpn(uint64_t ppn) const {
    return static_cast<uint32_t>(ppn % PagesPerSuperblock());
  }
  constexpr uint64_t PpnOf(uint32_t superblock, uint32_t offset) const {
    return static_cast<uint64_t>(superblock) * PagesPerSuperblock() + offset;
  }
  // Block index within the superblock for a given append offset.
  constexpr uint32_t BlockInSuperblock(uint32_t offset) const {
    return offset % BlocksPerSuperblock();
  }
  // Page index within that block.
  constexpr uint32_t PageInBlock(uint32_t offset) const { return offset / BlocksPerSuperblock(); }
  // Die that services a given append offset (blocks are striped die-major).
  constexpr uint32_t DieOfOffset(uint32_t offset) const {
    return BlockInSuperblock(offset) % num_dies;
  }
  constexpr uint32_t DieOfPpn(uint64_t ppn) const { return DieOfOffset(OffsetOfPpn(ppn)); }
  // Global block id, for erase-count bookkeeping.
  constexpr uint64_t GlobalBlockId(uint32_t superblock, uint32_t block_in_sb) const {
    return static_cast<uint64_t>(superblock) * BlocksPerSuperblock() + block_in_sb;
  }

  bool IsValid() const {
    return page_size_bytes >= 512 && pages_per_block > 0 && planes_per_die > 0 &&
           num_dies > 0 && num_superblocks >= 4;
  }
};

}  // namespace fdpcache

#endif  // SRC_NAND_GEOMETRY_H_
