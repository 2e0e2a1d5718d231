// Sparse byte-addressable memory with page permissions.
//
// One instance backs the regular region (Mu), another the safe stacks (the
// byte-addressable part of Ms; the safe pointer store keeps its own storage).
// Loads/stores of unmapped addresses fault, exactly like touching an unmapped
// page on real hardware — this is what turns wild attacker guesses under
// information-hiding isolation into crashes (§3.2.3).
//
// Host representation: a two-level page table. A hash map goes from chunk id
// to a heap chunk of kChunkPages page descriptors (2 MiB of simulated address
// space); a descriptor holds the mapped/writable bits and, once the page is
// first written, its 4 KB of bytes. Mapping a range is a run of flag writes
// over contiguous descriptors, so a thread's two 4 MiB stacks cost a handful
// of chunk allocations, not one hash node per page. None of this is
// simulated state: mapped_bytes() counts mapped pages, whatever the host
// allocated for them.
#ifndef CPI_SRC_VM_MEMORY_H_
#define CPI_SRC_VM_MEMORY_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

namespace cpi::vm {

enum class MemFault {
  kNone = 0,
  kUnmapped,
  kReadOnly,
};

class ByteMemory {
 public:
  static constexpr uint64_t kPageBytes = 4096;
  static constexpr uint64_t kChunkPages = 512;  // 2 MiB of address space per chunk

  // Makes [start, start+size) accessible. Pages materialise lazily,
  // zero-filled. A zero-size range maps nothing. Remapping is mprotect-like:
  // every page the (page-rounded) range touches takes the new writability,
  // the previous permission does not linger.
  void MapRange(uint64_t start, uint64_t size, bool writable);

  // Removes access (used when unsafe frames are popped so that dangling
  // stack references fault). Only whole pages inside the range are unmapped,
  // and their contents are dropped: a later remap reads zeros.
  void UnmapRange(uint64_t start, uint64_t size);

  bool IsMapped(uint64_t addr) const;
  bool IsWritable(uint64_t addr) const;

  // Single-page accesses (virtually all of them: the VM reads/writes 1-8
  // byte scalars) take the inline fast path; page-straddling accesses fall
  // back to the chunked loop in memory.cc.
  MemFault Read(uint64_t addr, void* out, uint64_t size) const {
    if ((addr & (kPageBytes - 1)) + size <= kPageBytes) {
      const Page* page = FindPage(addr);
      if (page == nullptr) {
        return MemFault::kUnmapped;
      }
      if (page->bytes == nullptr) {
        std::memset(out, 0, size);
      } else {
        CopyScalar(out, page->bytes.get() + (addr & (kPageBytes - 1)), size);
      }
      return MemFault::kNone;
    }
    return ReadSlow(addr, out, size);
  }
  MemFault Write(uint64_t addr, const void* data, uint64_t size) {
    if ((addr & (kPageBytes - 1)) + size <= kPageBytes) {
      Page* page = FindPage(addr);
      if (page == nullptr) {
        return MemFault::kUnmapped;
      }
      if (!page->writable) {
        return MemFault::kReadOnly;
      }
      CopyScalar(PageBytes(*page) + (addr & (kPageBytes - 1)), data, size);
      return MemFault::kNone;
    }
    return WriteSlow(addr, data, size);
  }

  MemFault ReadU64(uint64_t addr, uint64_t* out) const { return Read(addr, out, 8); }
  MemFault WriteU64(uint64_t addr, uint64_t value) { return Write(addr, &value, 8); }
  MemFault ReadByte(uint64_t addr, uint8_t* out) const { return Read(addr, out, 1); }
  MemFault WriteByte(uint64_t addr, uint8_t value) { return Write(addr, &value, 1); }

  // Raw write ignoring the read-only bit — used by the loader to place
  // constant data, never by program execution. A page it maps afresh is
  // read-only.
  void LoaderWrite(uint64_t addr, const void* data, uint64_t size);

  uint64_t mapped_bytes() const { return mapped_pages_ * kPageBytes; }

  // Fault injection (vm::FaultPlan, kOomPageAlloc): after `countdown` more
  // page materialisations succeed, the next one throws SimulatedOom. The VM
  // catches it and reports the run as crashed; the harness asserts the host
  // survives. One-shot: the failure disarms itself after firing. Mapping a
  // range materialises nothing, so it never consumes the countdown.
  void ArmAllocFailure(uint64_t countdown) { alloc_failure_countdown_ = countdown; }

 private:
  // memcpy for the 1-8 byte scalars the VM moves: a fixed-size copy per
  // width compiles to one move, where a variable-size memcpy is a libc call.
  static void CopyScalar(void* dst, const void* src, uint64_t size) {
    switch (size) {
      case 8: std::memcpy(dst, src, 8); return;
      case 4: std::memcpy(dst, src, 4); return;
      case 1: std::memcpy(dst, src, 1); return;
      case 2: std::memcpy(dst, src, 2); return;
      default: std::memcpy(dst, src, size); return;
    }
  }

  struct Page {
    std::unique_ptr<uint8_t[]> bytes;  // null until first written: reads as zeros
    bool writable = false;
    bool mapped = false;
  };
  struct Chunk {
    Page pages[kChunkPages];
  };

  Page* FindPage(uint64_t addr) {
    const uint64_t id = addr / kPageBytes;
    Chunk* chunk = FindChunk(id / kChunkPages);
    if (chunk == nullptr) {
      return nullptr;
    }
    Page& page = chunk->pages[id % kChunkPages];
    return page.mapped ? &page : nullptr;
  }
  const Page* FindPage(uint64_t addr) const {
    return const_cast<ByteMemory*>(this)->FindPage(addr);
  }
  Chunk* FindChunk(uint64_t chunk_id) const {
    if (chunk_id == cached_chunk_id_) {
      return cached_chunk_;
    }
    return FindChunkSlow(chunk_id);
  }
  Chunk* FindChunkSlow(uint64_t chunk_id) const;
  // Marks page `id` mapped (a page mapped afresh is read-only), creating its
  // chunk if needed.
  Page& MapPage(uint64_t id);
  uint8_t* PageBytes(Page& page) {
    if (page.bytes == nullptr) {
      return MaterializePage(page);
    }
    return page.bytes.get();
  }
  uint8_t* MaterializePage(Page& page);
  MemFault ReadSlow(uint64_t addr, void* out, uint64_t size) const;
  MemFault WriteSlow(uint64_t addr, const void* data, uint64_t size);

  std::unordered_map<uint64_t, std::unique_ptr<Chunk>> chunks_;
  uint64_t mapped_pages_ = 0;
  // Armed by ArmAllocFailure; kDisarmed means allocations always succeed.
  static constexpr uint64_t kAllocFailureDisarmed = ~0ULL;
  uint64_t alloc_failure_countdown_ = kAllocFailureDisarmed;
  // One-entry chunk cache: program accesses hit the same 2 MiB in bursts, so
  // most lookups skip the hash map. It may cache an absent chunk (nullptr).
  // Chunks live as long as the ByteMemory and never move, so the cache goes
  // stale only when a chunk is created. Purely a host-side speedup — no
  // simulated cost depends on it.
  mutable uint64_t cached_chunk_id_ = ~0ULL;
  mutable Chunk* cached_chunk_ = nullptr;
};

}  // namespace cpi::vm

#endif  // CPI_SRC_VM_MEMORY_H_
