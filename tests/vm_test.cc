// VM tests: memory semantics, cache model, execution semantics (arithmetic
// widths, control flow, calls, heap), trap taxonomy, and the isolation
// invariant (no safe-region address ever stored in regular memory).
#include <vector>

#include <gtest/gtest.h>

#include "src/core/levee.h"
#include "src/frontend/compile.h"
#include "src/ir/builder.h"
#include "src/support/oom.h"
#include "src/vm/cache.h"
#include "src/vm/layout.h"
#include "src/vm/machine.h"
#include "src/vm/memory.h"

namespace cpi::vm {
namespace {

TEST(ByteMemoryTest, ReadBackWrites) {
  ByteMemory mem;
  mem.MapRange(0x1000, 64, true);
  ASSERT_EQ(mem.WriteU64(0x1008, 0x1122334455667788ull), MemFault::kNone);
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(0x1008, &v), MemFault::kNone);
  EXPECT_EQ(v, 0x1122334455667788ull);
  uint8_t byte = 0;
  ASSERT_EQ(mem.ReadByte(0x1008, &byte), MemFault::kNone);
  EXPECT_EQ(byte, 0x88);  // little-endian
}

TEST(ByteMemoryTest, UnmappedAccessFaults) {
  ByteMemory mem;
  uint64_t v;
  EXPECT_EQ(mem.ReadU64(0x5000, &v), MemFault::kUnmapped);
  EXPECT_EQ(mem.WriteU64(0x5000, 1), MemFault::kUnmapped);
}

TEST(ByteMemoryTest, ReadOnlyPagesRejectWrites) {
  ByteMemory mem;
  mem.MapRange(0x2000, 64, /*writable=*/false);
  EXPECT_EQ(mem.WriteU64(0x2000, 1), MemFault::kReadOnly);
  uint64_t v = 1;
  EXPECT_EQ(mem.ReadU64(0x2000, &v), MemFault::kNone);
  EXPECT_EQ(v, 0u);  // zero-filled
}

TEST(ByteMemoryTest, CrossPageAccess) {
  ByteMemory mem;
  mem.MapRange(ByteMemory::kPageBytes - 4, 8, true);
  ASSERT_EQ(mem.WriteU64(ByteMemory::kPageBytes - 4, 0xaabbccdd11223344ull), MemFault::kNone);
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(ByteMemory::kPageBytes - 4, &v), MemFault::kNone);
  EXPECT_EQ(v, 0xaabbccdd11223344ull);
}

TEST(ByteMemoryTest, PartialWriteNeverApplied) {
  ByteMemory mem;
  mem.MapRange(ByteMemory::kPageBytes - 4, 4, true);  // second page unmapped
  EXPECT_EQ(mem.WriteU64(ByteMemory::kPageBytes - 4, ~0ull), MemFault::kUnmapped);
  uint64_t v = 0;
  uint32_t first = 0;
  ASSERT_EQ(mem.Read(ByteMemory::kPageBytes - 4, &first, 4), MemFault::kNone);
  EXPECT_EQ(first, 0u);  // untouched
  (void)v;
}

// Regression: a zero-size map at an unaligned address used to round the end
// past the start and map a whole page, inflating mapped_bytes() — and with
// it the §5.2 memory-overhead table.
TEST(ByteMemoryTest, ZeroSizeMapMapsNothing) {
  ByteMemory mem;
  mem.MapRange(0x1234, 0, /*writable=*/true);  // unaligned, empty
  EXPECT_EQ(mem.mapped_bytes(), 0u);
  EXPECT_FALSE(mem.IsMapped(0x1234));
  mem.MapRange(0x1000, 0, /*writable=*/true);  // aligned, empty
  EXPECT_EQ(mem.mapped_bytes(), 0u);
}

// Regression: remapping used to or-merge writability, so a page once mapped
// writable could never be demoted to read-only — constant/code pages stayed
// silently writable. Remap now honours the last mapping, like mprotect.
TEST(ByteMemoryTest, RemapPermissionsHonourLastMapping) {
  ByteMemory mem;
  mem.MapRange(0x3000, 64, /*writable=*/true);
  ASSERT_EQ(mem.WriteU64(0x3000, 42), MemFault::kNone);
  mem.MapRange(0x3000, 64, /*writable=*/false);
  EXPECT_EQ(mem.WriteU64(0x3000, 7), MemFault::kReadOnly);
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(0x3000, &v), MemFault::kNone);
  EXPECT_EQ(v, 42u);  // contents survive the permission change
  mem.MapRange(0x3000, 64, /*writable=*/true);  // and back
  EXPECT_EQ(mem.WriteU64(0x3000, 7), MemFault::kNone);
}

// The page table is two-level: chunks of kChunkPages descriptors behind a
// one-entry chunk cache. These pin that its chunking never shows.
constexpr uint64_t kChunkBytes = ByteMemory::kChunkPages * ByteMemory::kPageBytes;

TEST(ByteMemoryTest, AccessesStraddleAChunkBoundary) {
  ByteMemory mem;
  const uint64_t boundary = 3 * kChunkBytes;
  uint64_t v = 0;
  // A miss is looked up (and cached) before its chunk exists; mapping the
  // chunk must not leave that miss behind.
  ASSERT_EQ(mem.ReadU64(boundary - 8, &v), MemFault::kUnmapped);
  mem.MapRange(boundary - 2 * ByteMemory::kPageBytes, 2 * ByteMemory::kPageBytes, true);
  ASSERT_EQ(mem.ReadU64(boundary - 8, &v), MemFault::kNone);
  ASSERT_EQ(mem.ReadU64(boundary, &v), MemFault::kUnmapped);
  mem.MapRange(boundary, 2 * ByteMemory::kPageBytes, true);
  ASSERT_EQ(mem.ReadU64(boundary, &v), MemFault::kNone);
  EXPECT_EQ(mem.mapped_bytes(), 4 * ByteMemory::kPageBytes);
  ASSERT_EQ(mem.WriteU64(boundary - 4, 0x0102030405060708ull), MemFault::kNone);
  ASSERT_EQ(mem.ReadU64(boundary - 4, &v), MemFault::kNone);
  EXPECT_EQ(v, 0x0102030405060708ull);

  std::vector<uint8_t> out(3 * ByteMemory::kPageBytes);
  std::vector<uint8_t> in(out.size());
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const uint64_t start = boundary - ByteMemory::kPageBytes - 100;
  ASSERT_EQ(mem.Write(start, in.data(), in.size()), MemFault::kNone);
  ASSERT_EQ(mem.Read(start, out.data(), out.size()), MemFault::kNone);
  EXPECT_EQ(out, in);
  uint8_t byte = 0;
  ASSERT_EQ(mem.ReadByte(boundary, &byte), MemFault::kNone);
  EXPECT_EQ(byte, in[boundary - start]);

  // Past the mapped range on either side, still unmapped.
  EXPECT_EQ(mem.ReadByte(boundary + 2 * ByteMemory::kPageBytes, &byte), MemFault::kUnmapped);
  EXPECT_EQ(mem.ReadByte(boundary - 2 * ByteMemory::kPageBytes - 1, &byte), MemFault::kUnmapped);
  EXPECT_EQ(mem.Write(boundary + 2 * ByteMemory::kPageBytes - 4, &v, 8), MemFault::kUnmapped);
}

TEST(ByteMemoryTest, UnmapDropsInnerPagesAndRemapReadsZero) {
  ByteMemory mem;
  const uint64_t base = kChunkBytes - 2 * ByteMemory::kPageBytes;  // pages span two chunks
  mem.MapRange(base, 4 * ByteMemory::kPageBytes, true);
  for (uint64_t p = 0; p < 4; ++p) {
    ASSERT_EQ(mem.WriteU64(base + p * ByteMemory::kPageBytes + 16, 100 + p), MemFault::kNone);
  }
  // [base + 0x800, base + 3 pages + 0x800): only pages 1 and 2 lie wholly inside.
  mem.UnmapRange(base + 0x800, 3 * ByteMemory::kPageBytes);
  EXPECT_EQ(mem.mapped_bytes(), 2 * ByteMemory::kPageBytes);
  uint64_t v = 0;
  EXPECT_EQ(mem.ReadU64(base + ByteMemory::kPageBytes + 16, &v), MemFault::kUnmapped);
  EXPECT_EQ(mem.ReadU64(base + 2 * ByteMemory::kPageBytes + 16, &v), MemFault::kUnmapped);
  ASSERT_EQ(mem.ReadU64(base + 16, &v), MemFault::kNone);
  EXPECT_EQ(v, 100u);
  ASSERT_EQ(mem.ReadU64(base + 3 * ByteMemory::kPageBytes + 16, &v), MemFault::kNone);
  EXPECT_EQ(v, 103u);

  mem.MapRange(base, 4 * ByteMemory::kPageBytes, true);
  EXPECT_EQ(mem.mapped_bytes(), 4 * ByteMemory::kPageBytes);
  for (uint64_t p : {1, 2}) {
    v = 1;
    ASSERT_EQ(mem.ReadU64(base + p * ByteMemory::kPageBytes + 16, &v), MemFault::kNone);
    EXPECT_EQ(v, 0u) << "page " << p;
  }
  ASSERT_EQ(mem.ReadU64(base + 16, &v), MemFault::kNone);
  EXPECT_EQ(v, 100u);  // the edge page was never unmapped
}

TEST(ByteMemoryTest, MappedBytesIsExact) {
  ByteMemory mem;
  constexpr uint64_t kPage = ByteMemory::kPageBytes;
  mem.MapRange(0x10000, 3 * kPage, true);
  EXPECT_EQ(mem.mapped_bytes(), 3 * kPage);
  mem.MapRange(0x10000 + 2 * kPage + 1, 2 * kPage, false);  // overlaps one, adds two
  EXPECT_EQ(mem.mapped_bytes(), 5 * kPage);
  mem.MapRange(0x10000, 5 * kPage, true);  // remap of everything adds nothing
  EXPECT_EQ(mem.mapped_bytes(), 5 * kPage);
  mem.UnmapRange(0x10000, kPage);
  EXPECT_EQ(mem.mapped_bytes(), 4 * kPage);
  mem.UnmapRange(0x10000, kPage);  // already unmapped
  EXPECT_EQ(mem.mapped_bytes(), 4 * kPage);
  mem.UnmapRange(0x900000, 8 * kPage);  // never mapped, chunk absent
  EXPECT_EQ(mem.mapped_bytes(), 4 * kPage);

  // The loader maps what it writes, read-only, and counts it once.
  const char data[] = "constant";
  mem.LoaderWrite(kChunkBytes - 4, data, sizeof(data));  // two new pages, two chunks
  EXPECT_EQ(mem.mapped_bytes(), 6 * kPage);
  mem.LoaderWrite(0x10000 + kPage, data, sizeof(data));  // already mapped
  EXPECT_EQ(mem.mapped_bytes(), 6 * kPage);
  EXPECT_EQ(mem.WriteByte(kChunkBytes - 4, 1), MemFault::kReadOnly);
  EXPECT_EQ(mem.WriteByte(kChunkBytes, 1), MemFault::kReadOnly);
  EXPECT_EQ(mem.WriteByte(0x10000 + kPage, 1), MemFault::kNone);  // keeps its writability
  char back[sizeof(data)] = {};
  ASSERT_EQ(mem.Read(kChunkBytes - 4, back, sizeof(back)), MemFault::kNone);
  EXPECT_STREQ(back, data);
}

// The chunk cache survives a map: a permission change must still be seen by
// the next access, on both sides of a chunk boundary.
TEST(ByteMemoryTest, ReadOnlyRemapOfCachedWritablePageRejectsWrites) {
  ByteMemory mem;
  const uint64_t addr = kChunkBytes - ByteMemory::kPageBytes;
  mem.MapRange(addr, 2 * ByteMemory::kPageBytes, true);
  ASSERT_EQ(mem.WriteU64(addr, 1), MemFault::kNone);
  ASSERT_EQ(mem.WriteU64(kChunkBytes, 2), MemFault::kNone);
  mem.MapRange(addr, 2 * ByteMemory::kPageBytes, false);
  EXPECT_FALSE(mem.IsWritable(addr));
  EXPECT_EQ(mem.WriteU64(addr, 3), MemFault::kReadOnly);
  EXPECT_EQ(mem.WriteU64(kChunkBytes, 3), MemFault::kReadOnly);
  EXPECT_EQ(mem.WriteU64(kChunkBytes - 4, 3), MemFault::kReadOnly);  // straddling
  uint64_t v = 0;
  ASSERT_EQ(mem.ReadU64(kChunkBytes, &v), MemFault::kNone);
  EXPECT_EQ(v, 2u);
}

TEST(ByteMemoryTest, AllocFailureCountsMaterialisationsNotMappings) {
  ByteMemory mem;
  mem.ArmAllocFailure(0);
  mem.MapRange(0x100000, 8 * ByteMemory::kPageBytes, true);  // maps, materialises nothing
  uint64_t v = 0;
  EXPECT_EQ(mem.ReadU64(0x100000, &v), MemFault::kNone);  // reads do not materialise
  EXPECT_THROW(mem.WriteU64(0x100000, 1), SimulatedOom);

  mem.ArmAllocFailure(2);  // the third materialisation fails
  EXPECT_EQ(mem.WriteU64(0x100000, 1), MemFault::kNone);
  EXPECT_EQ(mem.WriteU64(0x100008, 1), MemFault::kNone);  // same page: no new one
  EXPECT_EQ(mem.WriteU64(0x101000, 1), MemFault::kNone);
  mem.MapRange(0x200000, 4 * ByteMemory::kPageBytes, true);  // a new chunk, still no page
  EXPECT_THROW(mem.WriteU64(0x102000, 1), SimulatedOom);
  EXPECT_EQ(mem.WriteU64(0x102000, 1), MemFault::kNone);  // one-shot: disarmed after firing
}

TEST(CacheTest, RepeatAccessHits) {
  CacheModel cache;
  const uint64_t miss = cache.Access(0x1000);
  const uint64_t hit = cache.Access(0x1000);
  EXPECT_GT(miss, hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(CacheTest, SameLineSharesEntry) {
  CacheModel cache;
  cache.Access(0x1000);
  cache.Access(0x1038);  // same 64-byte line
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CacheTest, CapacityEviction) {
  CacheModel::Config config;
  config.size_bytes = 1024;
  config.line_bytes = 64;
  config.ways = 2;
  CacheModel cache(config);
  // Touch 3 lines mapping to the same set of a 2-way cache: eviction.
  const uint64_t set_stride = 1024 / 2;  // 8 sets * 64B
  cache.Access(0);
  cache.Access(set_stride);
  cache.Access(2 * set_stride);
  cache.Access(0);  // evicted by LRU
  EXPECT_EQ(cache.misses(), 4u);
}

// --- execution semantics via the C frontend ------------------------------------

std::vector<uint64_t> RunC(const std::string& source, RunStatus expect = RunStatus::kOk,
                           core::Input input = {}) {
  auto cr = frontend::CompileC(source);
  EXPECT_TRUE(cr.ok()) << cr.error;
  core::Config config;
  auto r = core::InstrumentAndRun(*cr.module, config, input);
  EXPECT_EQ(r.status, expect) << r.message;
  return r.output;
}

TEST(ExecTest, SignedArithmeticAndComparisons) {
  auto out = RunC(R"(
    int main() {
      int a = 0 - 7;
      output(a < 3);
      output(a / 2);       // -3, C truncation toward zero
      output(a % 2);       // -1
      output((a < 0) + (a > 0 - 100));
      return 0;
    }
  )");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(static_cast<int64_t>(out[1]), -3);
  EXPECT_EQ(static_cast<int64_t>(out[2]), -1);
  EXPECT_EQ(out[3], 2u);
}

TEST(ExecTest, CharNarrowingOnStore) {
  auto out = RunC(R"(
    int main() {
      char c = 300;   // truncates to 44
      output(c);
      char buf[4];
      buf[0] = 255;
      output(buf[0]);
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{44, 255}));
}

TEST(ExecTest, FloatArithmetic) {
  auto out = RunC(R"(
    int main() {
      float x = (float)7;
      float y = x / (float)2;
      output((int)(y * (float)1000));
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{3500}));
}

TEST(ExecTest, DivisionByZeroCrashes) {
  RunC("int main() { int z = input(); return 5 / z; }", RunStatus::kCrash);
}

TEST(ExecTest, WildPointerCrashes) {
  RunC("int main() { int* p = (int*)12345678901; return *p; }", RunStatus::kCrash);
}

TEST(ExecTest, WriteToStringConstantCrashes) {
  // String literals live in read-only memory, like the paper's jump tables.
  RunC(R"(
    int main() {
      char* s = "const";
      s[0] = 'X';
      return 0;
    }
  )",
       RunStatus::kCrash);
}

TEST(ExecTest, NullCallCrashes) {
  RunC(R"(
    void (*fp)();
    int main() { fp(); return 0; }
  )",
       RunStatus::kCrash);
}

TEST(ExecTest, InfiniteLoopRunsOutOfFuel) {
  auto cr = frontend::CompileC("int main() { while (1) { } return 0; }");
  ASSERT_TRUE(cr.ok());
  core::Config config;
  config.max_steps = 10000;
  auto r = core::InstrumentAndRun(*cr.module, config);
  EXPECT_EQ(r.status, RunStatus::kOutOfFuel);
}

TEST(ExecTest, HeapReuseAfterFree) {
  auto out = RunC(R"(
    int main() {
      int* a = (int*)malloc(16);
      free(a);
      int* b = (int*)malloc(16);
      output(a == b);   // LIFO reuse: same address, different object
      return 0;
    }
  )");
  EXPECT_EQ(out, (std::vector<uint64_t>{1}));
}

TEST(ExecTest, DoubleFreeCrashes) {
  RunC("int main() { void* p = malloc(8); free(p); free(p); return 0; }",
       RunStatus::kCrash);
}

TEST(ExecTest, RecursionDepthLimited) {
  RunC("int f(int n) { return f(n + 1); } int main() { return f(0); }",
       RunStatus::kCrash);
}

// --- temporal extension ----------------------------------------------------------

void BuildUafModule(ir::Module& m) {
  auto& t = m.types();
  const auto* fn_ty = t.FunctionTy(t.VoidTy(), {});
  ir::IRBuilder b(&m);
  ir::Function* noop = m.CreateFunction("noop", fn_ty);
  b.SetInsertPoint(noop->CreateBlock("entry"));
  b.Ret();
  ir::Function* main = m.CreateFunction("main", t.FunctionTy(t.I64(), {}));
  b.SetInsertPoint(main->CreateBlock("entry"));
  ir::Value* cell = b.Malloc(b.I64(8), t.PointerTo(t.PointerTo(fn_ty)));
  b.Store(b.FuncAddr(noop), cell);
  b.Free(cell);
  // Stale dereference of the freed sensitive cell.
  ir::Value* fp = b.Load(cell);
  b.IndirectCall(fp, {});
  b.Ret(b.I64(0));
}

void CheckUafBehaviour(bool temporal) {
  ir::Module m("uaf");
  BuildUafModule(m);
  core::Config config;
  config.protection = core::Protection::kCpi;
  config.temporal = temporal;
  auto r = core::InstrumentAndRun(m, config);
  if (temporal) {
    EXPECT_EQ(r.status, RunStatus::kViolation);
    EXPECT_EQ(r.violation, runtime::Violation::kTemporalUseAfterFree) << r.message;
  } else {
    // The paper's prototype is spatial-only: the stale (but in-bounds) load
    // is not flagged.
    EXPECT_EQ(r.status, RunStatus::kOk) << r.message;
  }
}

TEST(TemporalTest, UseAfterFreeOfSensitiveObjectDetected) {
  // A function-pointer cell is freed and used through the stale pointer:
  // with the temporal extension CPI aborts; spatial-only CPI does not.
  CheckUafBehaviour(true);
  CheckUafBehaviour(false);
}

// --- the leak-proof isolation invariant (§3.2.3) ---------------------------------

TEST(IsolationTest, NoSafeRegionAddressIsEverStoredInRegularMemory) {
  // Run an instrumented program and sweep its observable regular-memory
  // behaviour: every pointer-sized value the program outputs or stores could
  // be inspected; here we assert the invariant structurally — safe-region
  // objects are only addressable through safe allocas, whose addresses the
  // escape analysis proves never leave the frame.
  auto cr = frontend::CompileC(R"(
    int helper(int x) { int local = x * 2; return local; }
    int main() {
      int acc = 0;
      for (int i = 0; i < 50; i = i + 1) { acc = acc + helper(i); }
      output(acc);
      return 0;
    }
  )");
  ASSERT_TRUE(cr.ok()) << cr.error;
  core::Config config;
  config.protection = core::Protection::kCpi;
  auto r = core::InstrumentAndRun(*cr.module, config);
  ASSERT_EQ(r.status, RunStatus::kOk) << r.message;
  for (uint64_t word : r.output) {
    EXPECT_FALSE(IsInSafeRegion(word));
  }
}

TEST(LayoutTest, AddressClassifiers) {
  EXPECT_TRUE(IsCodeAddress(kCodeBase));
  EXPECT_FALSE(IsCodeAddress(kCodeBase - 1));
  EXPECT_TRUE(IsInSafeRegion(kSafeRegionBase));
  EXPECT_FALSE(IsInSafeRegion(kHeapBase));
  EXPECT_TRUE(IsRetToken(kRetTokenBase + 16));
  EXPECT_FALSE(IsRetToken(kCodeBase));
}

TEST(LayoutTest, ProgramLayoutIsDeterministic) {
  auto cr = frontend::CompileC(R"(
    int g1;
    const char msg[4];
    int f() { return 1; }
    int main() { return f(); }
  )");
  ASSERT_TRUE(cr.ok()) << cr.error;
  ProgramLayout a = ComputeProgramLayout(*cr.module);
  ProgramLayout b = ComputeProgramLayout(*cr.module);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.globals, b.globals);
  // Functions get distinct, stride-separated code addresses.
  const uint64_t f_addr = a.CodeAddress(cr.module->FindFunction("f"));
  const uint64_t main_addr = a.CodeAddress(cr.module->FindFunction("main"));
  EXPECT_NE(f_addr, main_addr);
  EXPECT_EQ((f_addr - kCodeBase) % kCodeStride, 0u);
}

TEST(CountersTest, InstrumentationAddsSafeStoreTraffic) {
  const char* source = R"(
    int (*fp)(int);
    int idf(int x) { return x; }
    int main() {
      fp = idf;
      int acc = 0;
      for (int i = 0; i < 100; i = i + 1) { acc = acc + fp(i); }
      output(acc);
      return 0;
    }
  )";
  auto vanilla_module = frontend::CompileC(source).module;
  core::Config vanilla;
  auto base = core::InstrumentAndRun(*vanilla_module, vanilla);
  EXPECT_EQ(base.counters.safe_store_ops, 0u);

  auto cpi_module = frontend::CompileC(source).module;
  core::Config config;
  config.protection = core::Protection::kCpi;
  auto r = core::InstrumentAndRun(*cpi_module, config);
  EXPECT_GT(r.counters.safe_store_ops, 100u);  // one per dispatch at least
  EXPECT_GT(r.counters.cycles, base.counters.cycles);
  EXPECT_EQ(r.output, base.output);
}

}  // namespace
}  // namespace cpi::vm
