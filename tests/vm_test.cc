// VM tests: memory semantics, cache model, execution semantics (arithmetic
// widths, control flow, calls, heap), trap taxonomy, and the isolation
// invariant (no safe-region address ever stored in regular memory).
#include <vector>

#include <gtest/gtest.h>

#include "src/core/levee.h"
#include "src/ir/builder.h"
#include "src/support/oom.h"
#include "src/vm/cache.h"
#include "src/vm/layout.h"
#include "src/vm/machine.h"
#include "src/vm/memory.h"
#include "src/workloads/common.h"

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

// --- execution semantics of built programs ------------------------------------

// Opens `name` with the given signature and points `b` at its entry block.
ir::Function* Define(ir::IRBuilder& b, const std::string& name, const ir::FunctionType* type) {
  ir::Function* f = b.module()->CreateFunction(name, type);
  b.SetInsertPoint(f->CreateBlock("entry"));
  return f;
}

ir::Function* DefineMain(ir::IRBuilder& b) {
  auto& t = b.module()->types();
  return Define(b, "main", t.FunctionTy(t.I64(), {}));
}

// A NUL-terminated read-only char array, like a string literal.
ir::GlobalVariable* StringConstant(ir::Module& m, const std::string& name,
                                   const std::string& text) {
  auto& t = m.types();
  ir::GlobalVariable* g = m.CreateGlobal(name, t.ArrayOf(t.CharTy(), text.size() + 1), true);
  const char* bytes = text.c_str();
  g->set_initializer(std::vector<uint8_t>(bytes, bytes + text.size() + 1));
  return g;
}

// Instruments `m` under `protection`, runs it and returns its output.
std::vector<uint64_t> RunProgram(ir::Module& m, RunStatus expect = RunStatus::kOk,
                                 const core::Input& input = {},
                                 core::Protection protection = core::Protection::kNone) {
  core::Config config;
  config.protection = protection;
  auto r = core::InstrumentAndRun(m, config, input);
  EXPECT_EQ(r.status, expect) << r.message;
  return r.output;
}

TEST(ExecTest, SignedArithmeticAndComparisons) {
  ir::Module m("signed");
  ir::IRBuilder b(&m);
  DefineMain(b);
  ir::Value* a = b.Alloca(m.types().I64(), "a");
  b.Store(b.Sub(b.I64(0), b.I64(7)), a);
  b.Output(b.ICmpSLt(b.Load(a), b.I64(3)));
  b.Output(b.Binary(ir::BinOp::kSDiv, b.Load(a), b.I64(2)));  // -3, C truncation toward zero
  b.Output(b.Binary(ir::BinOp::kSRem, b.Load(a), b.I64(2)));  // -1
  b.Output(b.Add(b.ICmpSLt(b.Load(a), b.I64(0)),
                 b.Binary(ir::BinOp::kSGt, b.Load(a), b.Sub(b.I64(0), b.I64(100)))));
  b.Ret(b.I64(0));
  auto out = RunProgram(m);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(static_cast<int64_t>(out[1]), -3);
  EXPECT_EQ(static_cast<int64_t>(out[2]), -1);
  EXPECT_EQ(out[3], 2u);
}

TEST(ExecTest, CharNarrowingOnStore) {
  ir::Module m("narrow");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  DefineMain(b);
  ir::Value* c = b.Alloca(t.CharTy(), "c");
  ir::Value* buf = b.Alloca(t.ArrayOf(t.CharTy(), 4), "buf");
  b.Store(b.Cast(ir::CastKind::kTrunc, b.I64(300), t.CharTy()), c);  // truncates to 44
  b.Output(b.Cast(ir::CastKind::kZExt, b.Load(c), t.I64()));
  b.Store(b.Cast(ir::CastKind::kTrunc, b.I64(255), t.CharTy()), b.IndexAddr(buf, b.I64(0)));
  b.Output(b.Cast(ir::CastKind::kZExt, b.Load(b.IndexAddr(buf, b.I64(0))), t.I64()));
  b.Ret(b.I64(0));
  EXPECT_EQ(RunProgram(m), (std::vector<uint64_t>{44, 255}));
}

TEST(ExecTest, FloatArithmetic) {
  ir::Module m("float");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  DefineMain(b);
  auto to_float = [&](uint64_t v) {
    return b.Cast(ir::CastKind::kIntToFloat, b.I64(v), t.FloatTy());
  };
  ir::Value* x = b.Alloca(t.FloatTy(), "x");
  ir::Value* y = b.Alloca(t.FloatTy(), "y");
  b.Store(to_float(7), x);
  b.Store(b.Binary(ir::BinOp::kFDiv, b.Load(x), to_float(2)), y);
  ir::Value* scaled = b.Binary(ir::BinOp::kFMul, b.Load(y), to_float(1000));
  b.Output(b.Cast(ir::CastKind::kFloatToInt, scaled, t.I64()));
  b.Ret(b.I64(0));
  EXPECT_EQ(RunProgram(m), (std::vector<uint64_t>{3500}));
}

TEST(ExecTest, DivisionByZeroCrashes) {
  ir::Module m("div0");
  ir::IRBuilder b(&m);
  DefineMain(b);
  b.Ret(b.Binary(ir::BinOp::kSDiv, b.I64(5), b.Input()));  // no input words: 0
  RunProgram(m, RunStatus::kCrash);
}

TEST(ExecTest, WildPointerCrashes) {
  ir::Module m("wild");
  ir::IRBuilder b(&m);
  DefineMain(b);
  b.Ret(b.Load(b.IntToPtr(b.I64(12345678901), m.types().PointerTo(m.types().I64()))));
  RunProgram(m, RunStatus::kCrash);
}

TEST(ExecTest, WriteToStringConstantCrashes) {
  // String literals live in read-only memory, like the paper's jump tables.
  ir::Module m("rodata");
  ir::IRBuilder b(&m);
  ir::GlobalVariable* str = StringConstant(m, "str", "const");
  DefineMain(b);
  b.Store(b.Char('X'), b.IndexAddr(b.GlobalAddr(str), b.I64(0)));
  b.Ret(b.I64(0));
  RunProgram(m, RunStatus::kCrash);
}

TEST(ExecTest, NullCallCrashes) {
  ir::Module m("nullcall");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  ir::GlobalVariable* fp = m.CreateGlobal("fp", t.PointerTo(t.FunctionTy(t.VoidTy(), {})));
  DefineMain(b);
  b.IndirectCall(b.Load(b.GlobalAddr(fp)), {});
  b.Ret(b.I64(0));
  RunProgram(m, RunStatus::kCrash);
}

TEST(ExecTest, InfiniteLoopRunsOutOfFuel) {
  ir::Module m("spin");
  ir::IRBuilder b(&m);
  ir::Function* main = DefineMain(b);
  ir::BasicBlock* loop = main->CreateBlock("loop");
  ir::BasicBlock* exit = main->CreateBlock("exit");
  b.Br(loop);
  b.SetInsertPoint(loop);
  b.CondBr(b.I64(1), loop, exit);
  b.SetInsertPoint(exit);
  b.Ret(b.I64(0));
  core::Config config;
  config.max_steps = 10000;
  auto r = core::InstrumentAndRun(m, config);
  EXPECT_EQ(r.status, RunStatus::kOutOfFuel);
}

TEST(ExecTest, HeapReuseAfterFree) {
  ir::Module m("reuse");
  ir::IRBuilder b(&m);
  const ir::PointerType* i64_ptr = m.types().PointerTo(m.types().I64());
  DefineMain(b);
  ir::Value* a = b.Malloc(b.I64(16), i64_ptr);
  b.Free(a);
  ir::Value* again = b.Malloc(b.I64(16), i64_ptr);
  // LIFO reuse: same address, different object.
  b.Output(b.ICmpEq(b.PtrToInt(a), b.PtrToInt(again)));
  b.Ret(b.I64(0));
  EXPECT_EQ(RunProgram(m), (std::vector<uint64_t>{1}));
}

TEST(ExecTest, DoubleFreeCrashes) {
  ir::Module m("double_free");
  ir::IRBuilder b(&m);
  DefineMain(b);
  ir::Value* p = b.Malloc(b.I64(8), m.types().VoidPtrTy());
  b.Free(p);
  b.Free(p);
  b.Ret(b.I64(0));
  RunProgram(m, RunStatus::kCrash);
}

TEST(ExecTest, RecursionDepthLimited) {
  ir::Module m("deep");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  ir::Function* f = Define(b, "f", t.FunctionTy(t.I64(), {t.I64()}));
  b.Ret(b.Call(f, {b.Add(f->arg(0), b.I64(1))}));
  DefineMain(b);
  b.Ret(b.Call(f, {b.I64(0)}));
  RunProgram(m, RunStatus::kCrash);
}

// --- whole programs, compiled under a protection and run -------------------------

TEST(CompileTest, ArithmeticAndControlFlow) {
  ir::Module m("control");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  // fib(n) = n < 2 ? n : fib(n - 1) + fib(n - 2)
  ir::Function* fib = Define(b, "fib", t.FunctionTy(t.I64(), {t.I64()}));
  ir::Value* n = fib->arg(0);
  ir::BasicBlock* base = fib->CreateBlock("base");
  ir::BasicBlock* recurse = fib->CreateBlock("recurse");
  b.CondBr(b.ICmpSLt(n, b.I64(2)), base, recurse);
  b.SetInsertPoint(base);
  b.Ret(n);
  b.SetInsertPoint(recurse);
  b.Ret(b.Add(b.Call(fib, {b.Sub(n, b.I64(1))}), b.Call(fib, {b.Sub(n, b.I64(2))})));

  ir::Function* main = DefineMain(b);
  ir::Value* sum = b.Alloca(t.I64(), "sum");
  ir::Value* i = b.Alloca(t.I64(), "i");
  ir::Value* x = b.Alloca(t.I64(), "x");
  b.Output(b.Call(fib, {b.I64(12)}));
  b.Store(b.I64(0), sum);
  auto loop = workloads::BeginLoop(b, main, i, b.I64(0), b.I64(10), "for");
  b.Store(b.Add(b.Load(sum), b.Mul(loop.index, loop.index)), sum);
  workloads::EndLoop(b, loop);
  b.Output(b.Load(sum));
  // while (x > 3) x = x / 2;
  b.Store(b.I64(100), x);
  ir::BasicBlock* header = main->CreateBlock("while.header");
  ir::BasicBlock* body = main->CreateBlock("while.body");
  ir::BasicBlock* exit = main->CreateBlock("while.exit");
  b.Br(header);
  b.SetInsertPoint(header);
  b.CondBr(b.Binary(ir::BinOp::kSGt, b.Load(x), b.I64(3)), body, exit);
  b.SetInsertPoint(body);
  b.Store(b.Binary(ir::BinOp::kSDiv, b.Load(x), b.I64(2)), x);
  b.Br(header);
  b.SetInsertPoint(exit);
  b.Output(b.Load(x));
  b.Ret(b.I64(0));
  EXPECT_EQ(RunProgram(m), (std::vector<uint64_t>{144, 285, 3}));
}

TEST(CompileTest, PointersArraysAndStructs) {
  ir::Module m("pointers");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  const ir::PointerType* i64_ptr = t.PointerTo(t.I64());
  ir::StructType* point = t.GetOrCreateStruct("point");
  point->SetBody({{"x", t.I64(), 0}, {"y", t.I64(), 0}});

  // sum_array(a, n): the sum of a[0..n)
  ir::Function* sum_array = Define(b, "sum_array", t.FunctionTy(t.I64(), {i64_ptr, t.I64()}));
  ir::Value* s = b.Alloca(t.I64(), "s");
  ir::Value* i = b.Alloca(t.I64(), "i");
  b.Store(b.I64(0), s);
  auto sum = workloads::BeginLoop(b, sum_array, i, b.I64(0), sum_array->arg(1), "sum");
  b.Store(b.Add(b.Load(s), b.Load(b.IndexAddr(sum_array->arg(0), sum.index))), s);
  workloads::EndLoop(b, sum);
  b.Ret(b.Load(s));

  ir::Function* main = DefineMain(b);
  ir::Value* nums = b.Alloca(t.ArrayOf(t.I64(), 8), "nums");
  ir::Value* j = b.Alloca(t.I64(), "j");
  ir::Value* p = b.Alloca(point, "p");
  ir::Value* q = b.Alloca(t.PointerTo(point), "q");
  ir::Value* v = b.Alloca(t.I64(), "v");
  ir::Value* pv = b.Alloca(i64_ptr, "pv");
  auto fill = workloads::BeginLoop(b, main, j, b.I64(0), b.I64(8), "fill");
  b.Store(b.Mul(fill.index, b.I64(3)), b.IndexAddr(nums, fill.index));
  workloads::EndLoop(b, fill);
  b.Output(b.Call(sum_array, {b.IndexAddr(nums, b.I64(0)), b.I64(8)}));

  // p.x = 10; p.y = 32; q = &p; q->x = q->x + q->y; output(p.x)
  b.Store(b.I64(10), b.FieldAddr(p, "x"));
  b.Store(b.I64(32), b.FieldAddr(p, "y"));
  b.Store(p, q);
  ir::Value* qx = b.Load(b.FieldAddr(b.Load(q), "x"));
  b.Store(b.Add(qx, b.Load(b.FieldAddr(b.Load(q), "y"))), b.FieldAddr(b.Load(q), "x"));
  b.Output(b.Load(b.FieldAddr(p, "x")));

  // v = 5; pv = &v; *pv = *pv * 9; output(v)
  b.Store(b.I64(5), v);
  b.Store(v, pv);
  b.Store(b.Mul(b.Load(b.Load(pv)), b.I64(9)), b.Load(pv));
  b.Output(b.Load(v));
  b.Ret(b.I64(0));
  EXPECT_EQ(RunProgram(m), (std::vector<uint64_t>{84, 42, 45}));
}

TEST(CompileTest, FunctionPointersAndDispatch) {
  // struct op { char name[8]; i64 (*fn)(i64, i64); } table[4];
  auto build = [] {
    auto m = std::make_unique<ir::Module>("dispatch");
    auto& t = m->types();
    ir::IRBuilder b(m.get());
    const ir::FunctionType* fn_ty = t.FunctionTy(t.I64(), {t.I64(), t.I64()});
    ir::StructType* op = t.GetOrCreateStruct("op");
    op->SetBody({{"name", t.ArrayOf(t.CharTy(), 8), 0}, {"fn", t.PointerTo(fn_ty), 0}});
    ir::GlobalVariable* table = m->CreateGlobal("table", t.ArrayOf(op, 4));
    ir::Function* add = Define(b, "add", fn_ty);
    b.Ret(b.Add(add->arg(0), add->arg(1)));
    ir::Function* mul = Define(b, "mul", fn_ty);
    b.Ret(b.Mul(mul->arg(0), mul->arg(1)));

    DefineMain(b);
    ir::Value* f = b.Alloca(t.PointerTo(fn_ty), "f");
    auto slot = [&](uint64_t i) {
      return b.FieldAddr(b.IndexAddr(b.GlobalAddr(table), b.I64(i)), "fn");
    };
    b.Store(b.FuncAddr(add), slot(0));
    b.Store(b.FuncAddr(mul), slot(1));
    b.Store(b.Load(slot(0)), f);
    b.Output(b.IndirectCall(b.Load(f), {b.I64(20), b.I64(22)}));
    b.Store(b.Load(slot(1)), f);
    b.Output(b.IndirectCall(b.Load(f), {b.I64(6), b.I64(7)}));
    b.Ret(b.I64(0));
    return m;
  };
  for (core::Protection p : {core::Protection::kNone, core::Protection::kCps,
                             core::Protection::kCpi}) {
    EXPECT_EQ(RunProgram(*build(), RunStatus::kOk, {}, p), (std::vector<uint64_t>{42, 42}))
        << core::ProtectionName(p);
  }
}

TEST(CompileTest, HeapAndVoidPointers) {
  ir::Module m("void_ptr");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  const ir::PointerType* i64_ptr = t.PointerTo(t.I64());
  DefineMain(b);
  ir::Value* cell = b.Alloca(i64_ptr, "cell");
  ir::Value* erased = b.Alloca(t.VoidPtrTy(), "erased");
  ir::Value* back = b.Alloca(i64_ptr, "back");
  b.Store(b.Bitcast(b.Malloc(b.I64(8), t.VoidPtrTy()), i64_ptr), cell);
  b.Store(b.I64(1234), b.Load(cell));
  b.Store(b.Bitcast(b.Load(cell), t.VoidPtrTy()), erased);
  b.Store(b.Bitcast(b.Load(erased), i64_ptr), back);
  b.Output(b.Load(b.Load(back)));
  b.Free(b.Load(back));
  b.Ret(b.I64(0));
  EXPECT_EQ(RunProgram(m, RunStatus::kOk, {}, core::Protection::kCpi),
            (std::vector<uint64_t>{1234}));
}

TEST(CompileTest, StringsAndLibc) {
  ir::Module m("strings");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  ir::GlobalVariable* hello = StringConstant(m, "str.0", "hello");
  ir::GlobalVariable* suffix = StringConstant(m, "str.1", " cpi");
  ir::GlobalVariable* expected = StringConstant(m, "str.2", "hello cpi");
  DefineMain(b);
  ir::Value* buf = b.Alloca(t.ArrayOf(t.CharTy(), 32), "buf");
  auto str = [&](ir::Value* array) { return b.IndexAddr(array, b.I64(0)); };
  b.LibCall(ir::LibFunc::kStrcpy, {str(buf), str(b.GlobalAddr(hello))});
  b.LibCall(ir::LibFunc::kStrcat, {str(buf), str(b.GlobalAddr(suffix))});
  b.Output(b.LibCall(ir::LibFunc::kStrlen, {str(buf)}));
  ir::Value* cmp = b.LibCall(ir::LibFunc::kStrcmp, {str(buf), str(b.GlobalAddr(expected))});
  b.Output(b.ICmpEq(cmp, b.I64(0)));
  b.Ret(b.I64(0));
  EXPECT_EQ(RunProgram(m), (std::vector<uint64_t>{9, 1}));
}

TEST(CompileTest, InputWordsReachProgram) {
  ir::Module m("input");
  ir::IRBuilder b(&m);
  DefineMain(b);
  ir::Value* first = b.Input();
  b.Output(b.Add(first, b.Input()));
  b.Ret(b.I64(0));
  core::Input input;
  input.words = {7, 35};
  EXPECT_EQ(RunProgram(m, RunStatus::kOk, input), (std::vector<uint64_t>{42}));
}

// struct victim { char buf[16]; void (*fp)(); } v;
// v.fp = legit; input_bytes(payload, 64); strcpy(v.buf, payload); v.fp();
std::unique_ptr<ir::Module> BuildStrcpyVictim() {
  auto m = std::make_unique<ir::Module>("victim");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  const ir::FunctionType* fn_ty = t.FunctionTy(t.VoidTy(), {});
  ir::StructType* victim = t.GetOrCreateStruct("victim");
  victim->SetBody({{"buf", t.ArrayOf(t.CharTy(), 16), 0}, {"fp", t.PointerTo(fn_ty), 0}});
  ir::GlobalVariable* v = m->CreateGlobal("v", victim);
  Define(b, "gadget", fn_ty);
  b.Output(b.I64(3735929054));
  b.Ret();
  ir::Function* legit = Define(b, "legit", fn_ty);
  b.Output(b.I64(1));
  b.Ret();

  DefineMain(b);
  ir::Value* payload = b.Alloca(t.ArrayOf(t.CharTy(), 64), "payload");
  b.Store(b.FuncAddr(legit), b.FieldAddr(b.GlobalAddr(v), "fp"));
  ir::Value* payload0 = b.IndexAddr(payload, b.I64(0));
  b.LibCall(ir::LibFunc::kInputBytes, {payload0, b.I64(64)});
  ir::Value* buf0 = b.IndexAddr(b.FieldAddr(b.GlobalAddr(v), "buf"), b.I64(0));
  b.LibCall(ir::LibFunc::kStrcpy, {buf0, payload0});
  b.IndirectCall(b.Load(b.FieldAddr(b.GlobalAddr(v), "fp")), {});
  b.Ret(b.I64(0));
  return m;
}

TEST(CompileTest, VulnerableStrcpyProgramBehavesLikeRipe) {
  // The classic: a strcpy overflow into an adjacent function pointer. Under
  // vanilla the gadget runs; under CPI it cannot.
  auto probe = BuildStrcpyVictim();
  const ProgramLayout layout = ComputeProgramLayout(*probe);
  const uint64_t gadget = layout.CodeAddress(probe->FindFunction("gadget"));

  core::Input payload;
  payload.bytes.assign(16, 0x41);
  for (int i = 0; i < 8; ++i) {
    payload.bytes.push_back(static_cast<uint8_t>(gadget >> (8 * i)));
  }
  payload.bytes.push_back(0);

  {
    core::Config vanilla;
    auto r = core::InstrumentAndRun(*BuildStrcpyVictim(), vanilla, payload);
    EXPECT_TRUE(r.OutputContains(3735929054ull));  // hijacked
  }
  {
    core::Config config;
    config.protection = core::Protection::kCpi;
    auto r = core::InstrumentAndRun(*BuildStrcpyVictim(), config, payload);
    EXPECT_FALSE(r.OutputContains(3735929054ull));  // neutralised
  }
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
  ir::Module m("isolation");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  ir::Function* helper = Define(b, "helper", t.FunctionTy(t.I64(), {t.I64()}));
  ir::Value* local = b.Alloca(t.I64(), "local");
  b.Store(b.Mul(helper->arg(0), b.I64(2)), local);
  b.Ret(b.Load(local));
  ir::Function* main = DefineMain(b);
  ir::Value* acc = b.Alloca(t.I64(), "acc");
  ir::Value* i = b.Alloca(t.I64(), "i");
  b.Store(b.I64(0), acc);
  auto loop = workloads::BeginLoop(b, main, i, b.I64(0), b.I64(50), "for");
  b.Store(b.Add(b.Load(acc), b.Call(helper, {loop.index})), acc);
  workloads::EndLoop(b, loop);
  b.Output(b.Load(acc));
  b.Ret(b.I64(0));
  core::Config config;
  config.protection = core::Protection::kCpi;
  auto r = core::InstrumentAndRun(m, config);
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
  ir::Module m("layout");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  m.CreateGlobal("g1", t.I64());
  m.CreateGlobal("msg", t.ArrayOf(t.CharTy(), 4), true);
  ir::Function* f = Define(b, "f", t.FunctionTy(t.I64(), {}));
  b.Ret(b.I64(1));
  ir::Function* main = DefineMain(b);
  b.Ret(b.Call(f, {}));
  ProgramLayout a = ComputeProgramLayout(m);
  ProgramLayout again = ComputeProgramLayout(m);
  EXPECT_EQ(a.code, again.code);
  EXPECT_EQ(a.globals, again.globals);
  // Functions get distinct, stride-separated code addresses.
  const uint64_t f_addr = a.CodeAddress(f);
  const uint64_t main_addr = a.CodeAddress(main);
  EXPECT_NE(f_addr, main_addr);
  EXPECT_EQ((f_addr - kCodeBase) % kCodeStride, 0u);
}

// fp = idf; for (i = 0; i < 100; ++i) acc += fp(i); output(acc)
void BuildDispatchLoop(ir::Module& m) {
  auto& t = m.types();
  ir::IRBuilder b(&m);
  const ir::FunctionType* fn_ty = t.FunctionTy(t.I64(), {t.I64()});
  ir::GlobalVariable* fp = m.CreateGlobal("fp", t.PointerTo(fn_ty));
  ir::Function* idf = Define(b, "idf", fn_ty);
  b.Ret(idf->arg(0));
  ir::Function* main = DefineMain(b);
  ir::Value* acc = b.Alloca(t.I64(), "acc");
  ir::Value* i = b.Alloca(t.I64(), "i");
  b.Store(b.FuncAddr(idf), b.GlobalAddr(fp));
  b.Store(b.I64(0), acc);
  auto loop = workloads::BeginLoop(b, main, i, b.I64(0), b.I64(100), "for");
  ir::Value* call = b.IndirectCall(b.Load(b.GlobalAddr(fp)), {loop.index});
  b.Store(b.Add(b.Load(acc), call), acc);
  workloads::EndLoop(b, loop);
  b.Output(b.Load(acc));
  b.Ret(b.I64(0));
}

TEST(CountersTest, InstrumentationAddsSafeStoreTraffic) {
  ir::Module vanilla_module("vanilla");
  BuildDispatchLoop(vanilla_module);
  core::Config vanilla;
  auto base = core::InstrumentAndRun(vanilla_module, vanilla);
  EXPECT_EQ(base.counters.safe_store_ops, 0u);

  ir::Module cpi_module("cpi");
  BuildDispatchLoop(cpi_module);
  core::Config config;
  config.protection = core::Protection::kCpi;
  auto r = core::InstrumentAndRun(cpi_module, config);
  EXPECT_GT(r.counters.safe_store_ops, 100u);  // one per dispatch at least
  EXPECT_GT(r.counters.cycles, base.counters.cycles);
  EXPECT_EQ(r.output, base.output);
}

}  // namespace
}  // namespace cpi::vm
