#include "src/vm/memory.h"

#include <algorithm>
#include <cstring>

#include "src/support/oom.h"

namespace cpi::vm {

void ByteMemory::MapRange(uint64_t start, uint64_t size, bool writable) {
  if (size == 0) {
    // An empty range maps nothing. Without this guard an unaligned `start`
    // rounded `last` past `first` and silently mapped a full page,
    // inflating mapped_bytes() — and with it the §5.2 memory tables.
    return;
  }
  const uint64_t first = start / kPageBytes;
  const uint64_t last = (start + size + kPageBytes - 1) / kPageBytes;
  for (uint64_t p = first; p < last; ++p) {
    // Remap semantics: the most recent mapping wins, exactly like mprotect.
    // The old or-merge could never drop writability, so a page remapped
    // read-only (code/constant data) stayed silently writable.
    MapPage(p).writable = writable;
  }
}

void ByteMemory::UnmapRange(uint64_t start, uint64_t size) {
  // Only whole pages strictly inside the range are unmapped; partial pages at
  // the edges stay (they may still back neighbouring objects).
  const uint64_t first = (start + kPageBytes - 1) / kPageBytes;
  const uint64_t last = (start + size) / kPageBytes;
  for (uint64_t p = first; p < last; ++p) {
    Page* page = FindPage(p * kPageBytes);
    if (page != nullptr) {
      *page = Page{};  // drops the bytes: a remap reads zeros
      --mapped_pages_;
    }
  }
}

ByteMemory::Chunk* ByteMemory::FindChunkSlow(uint64_t chunk_id) const {
  auto it = chunks_.find(chunk_id);
  cached_chunk_id_ = chunk_id;
  cached_chunk_ = it == chunks_.end() ? nullptr : it->second.get();
  return cached_chunk_;
}

ByteMemory::Page& ByteMemory::MapPage(uint64_t id) {
  Chunk* chunk = FindChunk(id / kChunkPages);
  if (chunk == nullptr) {
    chunk = chunks_.emplace(id / kChunkPages, std::make_unique<Chunk>()).first->second.get();
    // The cache may hold this chunk id as absent.
    cached_chunk_id_ = id / kChunkPages;
    cached_chunk_ = chunk;
  }
  Page& page = chunk->pages[id % kChunkPages];
  if (!page.mapped) {
    page.mapped = true;
    ++mapped_pages_;
  }
  return page;
}

uint8_t* ByteMemory::MaterializePage(Page& page) {
  if (alloc_failure_countdown_ != kAllocFailureDisarmed) {
    if (alloc_failure_countdown_ == 0) {
      alloc_failure_countdown_ = kAllocFailureDisarmed;
      throw SimulatedOom("page materialisation failed");
    }
    --alloc_failure_countdown_;
  }
  page.bytes = std::make_unique<uint8_t[]>(kPageBytes);  // value-initialised: zeros
  return page.bytes.get();
}

bool ByteMemory::IsMapped(uint64_t addr) const { return FindPage(addr) != nullptr; }

bool ByteMemory::IsWritable(uint64_t addr) const {
  const Page* p = FindPage(addr);
  return p != nullptr && p->writable;
}

MemFault ByteMemory::ReadSlow(uint64_t addr, void* out, uint64_t size) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  uint64_t done = 0;
  while (done < size) {
    const uint64_t a = addr + done;
    const Page* page = FindPage(a);
    if (page == nullptr) {
      return MemFault::kUnmapped;
    }
    const uint64_t in_page = a % kPageBytes;
    const uint64_t chunk = std::min(size - done, kPageBytes - in_page);
    if (page->bytes == nullptr) {
      std::memset(dst + done, 0, chunk);
    } else {
      std::memcpy(dst + done, page->bytes.get() + in_page, chunk);
    }
    done += chunk;
  }
  return MemFault::kNone;
}

MemFault ByteMemory::WriteSlow(uint64_t addr, const void* data, uint64_t size) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  // Validate the whole range first so partially-applied writes cannot occur.
  for (uint64_t a = addr / kPageBytes; a <= (addr + size - 1) / kPageBytes; ++a) {
    const Page* page = FindPage(a * kPageBytes);
    if (page == nullptr) {
      return MemFault::kUnmapped;
    }
    if (!page->writable) {
      return MemFault::kReadOnly;
    }
  }
  uint64_t done = 0;
  while (done < size) {
    const uint64_t a = addr + done;
    Page* page = FindPage(a);
    const uint64_t in_page = a % kPageBytes;
    const uint64_t chunk = std::min(size - done, kPageBytes - in_page);
    std::memcpy(PageBytes(*page) + in_page, src + done, chunk);
    done += chunk;
  }
  return MemFault::kNone;
}

void ByteMemory::LoaderWrite(uint64_t addr, const void* data, uint64_t size) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  uint64_t done = 0;
  while (done < size) {
    const uint64_t a = addr + done;
    Page& page = MapPage(a / kPageBytes);
    const uint64_t in_page = a % kPageBytes;
    const uint64_t chunk = std::min(size - done, kPageBytes - in_page);
    std::memcpy(PageBytes(page) + in_page, src + done, chunk);
    done += chunk;
  }
}

}  // namespace cpi::vm
