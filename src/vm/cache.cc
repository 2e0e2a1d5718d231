#include "src/vm/cache.h"

#include <algorithm>
#include <cstdint>

#include "src/support/check.h"

namespace cpi::vm {

namespace {

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

uint64_t Log2(uint64_t v) {
  uint64_t shift = 0;
  while ((1ULL << shift) < v) {
    ++shift;
  }
  return shift;
}

}  // namespace

CacheModel::CacheModel() : CacheModel(Config{}) {}

CacheModel::CacheModel(const Config& config) : config_(config), ways_(config.ways) {
  CPI_CHECK(config_.line_bytes > 1 && ways_ > 0);
  CPI_CHECK(IsPowerOfTwo(config_.line_bytes));
  const uint64_t num_sets = config_.size_bytes / (config_.line_bytes * ways_);
  CPI_CHECK(num_sets > 0 && IsPowerOfTwo(num_sets));
  line_shift_ = Log2(config_.line_bytes);
  set_mask_ = num_sets - 1;
  constexpr uint64_t kHostLineWords = 64 / sizeof(uint64_t);
  tag_storage_.resize(num_sets * ways_ + kHostLineWords - 1);
  const uintptr_t misalign = reinterpret_cast<uintptr_t>(tag_storage_.data()) % 64;
  tags_ = tag_storage_.data() + (misalign == 0 ? 0 : (64 - misalign) / sizeof(uint64_t));
  lru_.resize(num_sets * ways_);
  set_tick_.resize(num_sets);
  Reset();
}

uint64_t CacheModel::Miss(uint64_t base, uint64_t line_addr, uint64_t tick) {
  const uint64_t* lru = &lru_[base];
  uint64_t victim = 0;
  for (uint64_t w = 1; w < ways_ && lru[victim] != 0; ++w) {
    if (lru[w] < lru[victim]) {
      victim = w;
    }
  }
  tags_[base + victim] = line_addr;
  lru_[base + victim] = tick;
  ++misses_;
  return config_.miss_cycles;
}

void CacheModel::Reset() {
  hits_ = misses_ = 0;
  std::fill(tags_, tags_ + lru_.size(), kInvalidTag);
  std::fill(lru_.begin(), lru_.end(), 0);
  std::fill(set_tick_.begin(), set_tick_.end(), 0);
}

}  // namespace cpi::vm
