// Set-associative L1 data-cache model.
//
// The cost model charges every memory access through this cache, which is
// what lets the safe stack reproduce the paper's locality result (§5.2: in 9
// of 19 SPEC benchmarks the safe stack *improved* performance because bulky
// arrays move away from the hot stack area).
#ifndef CPI_SRC_VM_CACHE_H_
#define CPI_SRC_VM_CACHE_H_

#include <cstdint>
#include <vector>

namespace cpi::vm {

class CacheModel {
 public:
  struct Config {
    uint64_t size_bytes = 32 * 1024;
    uint64_t line_bytes = 64;
    uint64_t ways = 8;
    uint64_t hit_cycles = 2;
    uint64_t miss_cycles = 24;
  };

  CacheModel();
  explicit CacheModel(const Config& config);
  // tags_ points into tag_storage_.
  CacheModel(const CacheModel&) = delete;
  CacheModel& operator=(const CacheModel&) = delete;

  // Returns the cycle cost of accessing `addr` and updates cache state.
  // Defined in the header so the execution loops can inline it — with tens
  // of millions of calls per benchmark cell this is the hottest leaf of the
  // whole cost model. The probe reads tags only: a set's tags are
  // contiguous (an 8-way set is one 64-byte host line), and an empty way
  // holds kInvalidTag, which no line address equals.
  uint64_t Access(uint64_t addr) {
    const uint64_t line_addr = addr >> line_shift_;
    const uint64_t set = line_addr & set_mask_;
    const uint64_t base = set * ways_;
    const uint64_t* tags = tags_ + base;
    const uint64_t tick = ++set_tick_[set];
    for (uint64_t w = 0; w < ways_; ++w) {
      if (tags[w] == line_addr) {
        lru_[base + w] = tick;
        ++hits_;
        return config_.hit_cycles;
      }
    }
    return Miss(base, line_addr, tick);
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  void Reset();

 private:
  // Line addresses are addr >> line_shift_ with line_shift_ >= 1, so they
  // never reach all-ones.
  static constexpr uint64_t kInvalidTag = ~0ULL;

  // Miss path: fill the least recently used way. An empty way has lru 0 and
  // a filled one the tick of its last access (>= 1), so the first minimum is
  // an empty way while the set has one — fill empty ways first, then evict
  // the LRU line. Out of line — misses are the rare case and keeping the
  // fill loop out of the inlined probe keeps the hot path small.
  uint64_t Miss(uint64_t base, uint64_t line_addr, uint64_t tick);

  Config config_;
  uint64_t ways_;
  // Precomputed at construction (line size and set count are required to be
  // powers of two): every Access is then shift+mask, no division.
  uint64_t line_shift_;
  uint64_t set_mask_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  // Way w of set s is entry s * ways_ + w of tags_ and lru_. tags_ is
  // 64-byte aligned inside tag_storage_, so no set straddles host lines.
  std::vector<uint64_t> tag_storage_;
  uint64_t* tags_ = nullptr;   // line address, or kInvalidTag
  std::vector<uint64_t> lru_;  // tick of the way's last access; 0 when empty
  // One LRU clock per set instead of a global tick: recency ordering within
  // a set (all that LRU replacement consults) is unchanged.
  std::vector<uint64_t> set_tick_;
};

}  // namespace cpi::vm

#endif  // CPI_SRC_VM_CACHE_H_
