// Safe-pointer-store entry: the value of a protected pointer plus its
// based-on metadata (Fig. 2: value | upper | lower | id).
#ifndef CPI_SRC_RUNTIME_METADATA_H_
#define CPI_SRC_RUNTIME_METADATA_H_

#include <cstdint>
#include <type_traits>

namespace cpi::runtime {

enum class EntryKind : uint8_t {
  kNone = 0,  // no safe value at this address (location holds a regular value)
  kData = 1,  // sensitive data pointer with object bounds
  kCode = 2,  // code pointer; bounds are exactly [value, value]
};

struct SafeEntry {
  uint64_t value = 0;
  uint64_t lower = 0;
  uint64_t upper = 0;        // exclusive: the object occupies [lower, upper)
  uint64_t temporal_id = 0;  // 0 = static lifetime (globals, code)
  EntryKind kind = EntryKind::kNone;

  bool IsPresent() const { return kind != EntryKind::kNone; }

  // §3.2.2: universal pointers cast from non-sensitive values carry "invalid"
  // metadata (lower > upper) so they can never address the safe region.
  bool HasValidBounds() const { return lower <= upper; }

  // Spatial check for an access of `size` bytes at `addr`: the access must
  // start inside [lower, upper) and end at or before upper (the bound is
  // exclusive, so `addr == upper` is already out of bounds).
  bool InBounds(uint64_t addr, uint64_t size) const {
    return HasValidBounds() && addr >= lower && addr < upper && size <= upper - addr;
  }

  static SafeEntry Data(uint64_t value, uint64_t lower, uint64_t upper, uint64_t temporal_id) {
    return SafeEntry{value, lower, upper, temporal_id, EntryKind::kData};
  }
  static SafeEntry Code(uint64_t value) {
    // A code pointer's "object" is the single entry address: [value, value+1).
    return SafeEntry{value, value, value + 1, 0, EntryKind::kCode};
  }
  static SafeEntry Invalid(uint64_t value) {
    // lower > upper: never in bounds anywhere.
    return SafeEntry{value, 1, 0, 0, EntryKind::kData};
  }
};

// An all-zero entry is SafeEntry{} (absent), so stores may hand out
// zero-filled memory as entries without constructing them (the array store's
// demand-zero pages rely on this).
static_assert(static_cast<uint8_t>(EntryKind::kNone) == 0);
static_assert(std::is_trivially_copyable_v<SafeEntry>);
static_assert(std::is_trivially_destructible_v<SafeEntry>);

// Size of one entry as laid out in the safe region; used for cache modelling
// and for the memory-overhead accounting of §5.2.
inline constexpr uint64_t kSafeEntryBytes = 32;

// Register-level metadata that travels with pointer values while they live in
// (virtual) registers — the v(b,e) "safe value" of the Appendix A semantics.
// Stores into the safe pointer store persist it; loads recover it.
struct RegMeta {
  uint64_t lower = 0;
  uint64_t upper = 0;
  uint64_t temporal_id = 0;
  EntryKind kind = EntryKind::kNone;  // kNone: a regular (unsafe) value

  bool IsSafeValue() const { return kind != EntryKind::kNone; }
  // Same exclusive-upper convention as SafeEntry::InBounds.
  bool InBounds(uint64_t addr, uint64_t size) const {
    return lower <= upper && addr >= lower && addr < upper && size <= upper - addr;
  }

  static RegMeta FromEntry(const SafeEntry& e) {
    return RegMeta{e.lower, e.upper, e.temporal_id, e.kind};
  }
  static RegMeta Data(uint64_t lower, uint64_t upper, uint64_t temporal_id) {
    return RegMeta{lower, upper, temporal_id, EntryKind::kData};
  }
  static RegMeta Code(uint64_t value) {
    return RegMeta{value, value + 1, 0, EntryKind::kCode};
  }
  static RegMeta Invalid() { return RegMeta{1, 0, 0, EntryKind::kData}; }
  static RegMeta None() { return RegMeta{}; }
};

}  // namespace cpi::runtime

#endif  // CPI_SRC_RUNTIME_METADATA_H_
