// Unit tests for the instrumentation passes: which instructions each pass
// rewrites, the structural validity of the result, and pass bookkeeping
// (protection flags, unsafe-frame marking, CFI target sets, cookie
// heuristics). A scheme's passes run as its registry stages, through the
// same pipeline runner the compiler uses.
#include <gtest/gtest.h>

#include "src/core/scheme.h"
#include "src/instrument/passes.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"

namespace cpi::instrument {
namespace {

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

// A function `i64 name(i64 x)` whose argument is spilled to a stack slot;
// `b` is left after the spill, with the slot in `*x`.
ir::Function* DefineUnary(ir::IRBuilder& b, const std::string& name, ir::Value** x) {
  auto& t = b.module()->types();
  ir::Function* f = Define(b, name, t.FunctionTy(t.I64(), {t.I64()}));
  *x = b.Alloca(t.I64(), "x");
  b.Store(f->arg(0), *x);
  return f;
}

// Runs the registry scheme `p`'s stages over `m`; the result must verify.
void Instrument(ir::Module& m, core::Protection p) {
  core::RunStagePipeline(core::SchemeRegistry::Get(p).Stages(), m, PassOptions{});
  EXPECT_TRUE(ir::IsValid(m));
}

int CountIntrinsics(const ir::Module& m, std::initializer_list<ir::IntrinsicId> ids) {
  int n = 0;
  for (const auto& f : m.functions()) {
    for (const auto& bb : f->blocks()) {
      for (const ir::Instruction* inst : bb->instructions()) {
        if (inst->op() != ir::Opcode::kIntrinsic) {
          continue;
        }
        for (ir::IntrinsicId id : ids) {
          if (inst->intrinsic() == id) {
            ++n;
          }
        }
      }
    }
  }
  return n;
}

// i64 (*handler)(i64);
// i64 twice(i64 x) { return x * 2; }
// i64 main() { handler = twice; return handler(21); }
std::unique_ptr<ir::Module> BuildFnPtrProgram() {
  auto m = std::make_unique<ir::Module>("fnptr");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  ir::Value* x = nullptr;
  ir::Function* twice = DefineUnary(b, "twice", &x);
  ir::GlobalVariable* handler = m->CreateGlobal("handler", t.PointerTo(twice->type()));
  b.Ret(b.Mul(b.Load(x), b.I64(2)));
  DefineMain(b);
  b.Store(b.FuncAddr(twice), b.GlobalAddr(handler));
  b.Ret(b.IndirectCall(b.Load(b.GlobalAddr(handler)), {b.I64(21)}));
  CPI_CHECK(ir::IsValid(*m));
  return m;
}

TEST(CpiPassTest, RewritesFunctionPointerOps) {
  auto m = BuildFnPtrProgram();
  Instrument(*m, core::Protection::kCpi);
  EXPECT_TRUE(m->protection().cpi);
  EXPECT_TRUE(m->protection().safe_stack);  // CPI includes the safe stack
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiStore}), 1);  // handler = twice
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiLoad}), 1);   // handler(...) load
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiAssertCode}), 1);
  EXPECT_TRUE(ir::IsValid(*m));
}

TEST(CpsPassTest, EmitsCpsIntrinsics) {
  auto m = BuildFnPtrProgram();
  Instrument(*m, core::Protection::kCps);
  EXPECT_TRUE(m->protection().cps);
  EXPECT_FALSE(m->protection().cpi);
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpsStore}), 1);
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpsLoad}), 1);
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpsAssertCode}), 1);
  // No bounds metadata under CPS.
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiBoundsCheck}), 0);
  EXPECT_TRUE(ir::IsValid(*m));
}

TEST(CpiPassTest, VanillaDataCodeUntouched) {
  // i64 a[4]; a[0] = 1; a[1] = a[0] + 2; return a[1];
  auto m = std::make_unique<ir::Module>("data");
  ir::IRBuilder b(m.get());
  DefineMain(b);
  ir::Value* a = b.Alloca(m->types().ArrayOf(m->types().I64(), 4), "a");
  b.Store(b.I64(1), b.IndexAddr(a, b.I64(0)));
  b.Store(b.Add(b.Load(b.IndexAddr(a, b.I64(0))), b.I64(2)), b.IndexAddr(a, b.I64(1)));
  b.Ret(b.Load(b.IndexAddr(a, b.I64(1))));
  ASSERT_TRUE(ir::IsValid(*m));
  const size_t before = m->InstructionCount();
  Instrument(*m, core::Protection::kCpi);
  // Only plain integer ops: nothing to instrument.
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCpiStore, ir::IntrinsicId::kCpiLoad,
                                 ir::IntrinsicId::kCpiStoreUni, ir::IntrinsicId::kCpiLoadUni}),
            0);
  EXPECT_EQ(m->InstructionCount(), before);
}

TEST(CpiPassTest, UniversalPointersUseUniVariants) {
  // void* box; cell = (i64*)malloc(8); box = (void*)cell; back = (i64*)box; return *back;
  auto m = std::make_unique<ir::Module>("universal");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  const ir::PointerType* i64_ptr = t.PointerTo(t.I64());
  ir::GlobalVariable* box = m->CreateGlobal("box", t.VoidPtrTy());
  DefineMain(b);
  ir::Value* cell = b.Alloca(i64_ptr, "cell");
  ir::Value* back = b.Alloca(i64_ptr, "back");
  b.Store(b.Bitcast(b.Malloc(b.I64(8), t.VoidPtrTy()), i64_ptr), cell);
  b.Store(b.Bitcast(b.Load(cell), t.VoidPtrTy()), b.GlobalAddr(box));
  b.Store(b.Bitcast(b.Load(b.GlobalAddr(box)), i64_ptr), back);
  b.Ret(b.Load(b.Load(back)));
  ASSERT_TRUE(ir::IsValid(*m));
  Instrument(*m, core::Protection::kCpi);
  EXPECT_GE(CountIntrinsics(*m, {ir::IntrinsicId::kCpiStoreUni}), 1);
  EXPECT_GE(CountIntrinsics(*m, {ir::IntrinsicId::kCpiLoadUni}), 1);
}

TEST(SafeStackPassTest, MarksAllocasAndFunctions) {
  auto m = std::make_unique<ir::Module>("stack");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  // i64 scalar_only(i64 x) { i64 v = x + 1; return v; }
  ir::Value* x = nullptr;
  ir::Function* scalar_only = DefineUnary(b, "scalar_only", &x);
  ir::Value* v = b.Alloca(t.I64(), "v");
  b.Store(b.Add(b.Load(x), b.I64(1)), v);
  b.Ret(b.Load(v));
  // i64 with_buffer() { char buf[32]; input_bytes(buf, 32); return buf[0]; }
  ir::Function* with_buffer = Define(b, "with_buffer", t.FunctionTy(t.I64(), {}));
  ir::Value* buf = b.Alloca(t.ArrayOf(t.CharTy(), 32), "buf");
  b.LibCall(ir::LibFunc::kInputBytes, {b.IndexAddr(buf, b.I64(0)), b.I64(32)});
  b.Ret(b.Cast(ir::CastKind::kZExt, b.Load(b.IndexAddr(buf, b.I64(0))), t.I64()));
  DefineMain(b);
  b.Ret(b.Add(b.Call(scalar_only, {b.I64(1)}), b.Call(with_buffer, {})));
  ASSERT_TRUE(ir::IsValid(*m));
  ApplySafeStack(*m);
  EXPECT_TRUE(m->protection().safe_stack);
  EXPECT_FALSE(m->FindFunction("scalar_only")->needs_unsafe_frame());
  EXPECT_TRUE(m->FindFunction("with_buffer")->needs_unsafe_frame());
  // Every alloca is now explicitly classified.
  for (const auto& f : m->functions()) {
    for (const auto& bb : f->blocks()) {
      for (const ir::Instruction* inst : bb->instructions()) {
        if (inst->op() == ir::Opcode::kAlloca) {
          EXPECT_NE(inst->stack_kind(), ir::StackKind::kDefault);
        }
      }
    }
  }
}

TEST(SoftBoundPassTest, InstrumentsAllPointerTraffic) {
  // i64* p = (i64*)malloc(32); i64* q = p; q[2] = 7; return q[2];
  auto m = std::make_unique<ir::Module>("softbound");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  const ir::PointerType* i64_ptr = t.PointerTo(t.I64());
  DefineMain(b);
  ir::Value* p = b.Alloca(i64_ptr, "p");
  ir::Value* q = b.Alloca(i64_ptr, "q");
  b.Store(b.Bitcast(b.Malloc(b.I64(32), t.VoidPtrTy()), i64_ptr), p);
  b.Store(b.Load(p), q);
  b.Store(b.I64(7), b.IndexAddr(b.Load(q), b.I64(2)));
  b.Ret(b.Load(b.IndexAddr(b.Load(q), b.I64(2))));
  ASSERT_TRUE(ir::IsValid(*m));
  Instrument(*m, core::Protection::kSoftBound);
  EXPECT_TRUE(m->protection().softbound);
  EXPECT_GE(CountIntrinsics(*m, {ir::IntrinsicId::kSbStore}), 2);  // p and q slots
  EXPECT_GE(CountIntrinsics(*m, {ir::IntrinsicId::kSbCheck}), 2);  // q[2] accesses
  EXPECT_TRUE(ir::IsValid(*m));
}

TEST(CfiPassTest, WrapsIndirectCallsAndComputesTargets) {
  auto m = BuildFnPtrProgram();
  Instrument(*m, core::Protection::kCfi);
  EXPECT_TRUE(m->protection().cfi);
  EXPECT_EQ(CountIntrinsics(*m, {ir::IntrinsicId::kCfiCheck}), 1);
  EXPECT_TRUE(m->FindFunction("twice")->address_taken());
  EXPECT_FALSE(m->FindFunction("main")->address_taken());
}

TEST(CookiePassTest, OnlyBufferFunctionsGetCookies) {
  auto m = std::make_unique<ir::Module>("cookies");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  ir::Value* x = nullptr;
  ir::Function* no_buffer = DefineUnary(b, "no_buffer", &x);
  b.Ret(b.Add(b.Load(x), b.I64(1)));
  // i64 <name>() { char b[size]; b[0] = 1; return b[0]; }
  auto buffer_fn = [&](const std::string& name, uint64_t size) {
    ir::Function* f = Define(b, name, t.FunctionTy(t.I64(), {}));
    ir::Value* arr = b.Alloca(t.ArrayOf(t.CharTy(), size), "b");
    b.Store(b.Char(1), b.IndexAddr(arr, b.I64(0)));
    b.Ret(b.Cast(ir::CastKind::kZExt, b.Load(b.IndexAddr(arr, b.I64(0))), t.I64()));
    return f;
  };
  ir::Function* tiny_buffer = buffer_fn("tiny_buffer", 4);
  ir::Function* big_buffer = buffer_fn("big_buffer", 64);
  DefineMain(b);
  ir::Value* sum = b.Add(b.Call(no_buffer, {b.I64(0)}), b.Call(tiny_buffer, {}));
  b.Ret(b.Add(sum, b.Call(big_buffer, {})));
  ASSERT_TRUE(ir::IsValid(*m));
  Instrument(*m, core::Protection::kStackCookies);
  EXPECT_TRUE(m->protection().stack_cookies);
  EXPECT_FALSE(m->FindFunction("no_buffer")->has_stack_cookie());
  EXPECT_FALSE(m->FindFunction("tiny_buffer")->has_stack_cookie());  // < 8 bytes
  EXPECT_TRUE(m->FindFunction("big_buffer")->has_stack_cookie());
}

TEST(PassCompositionTest, CpiAfterCpsIsRejected) {
  auto m = BuildFnPtrProgram();
  Instrument(*m, core::Protection::kCps);
  EXPECT_DEATH(Instrument(*m, core::Protection::kCpi), "CPI_CHECK");
}

TEST(PassTest, InstrumentedModulePrintsIntrinsics) {
  auto m = BuildFnPtrProgram();
  Instrument(*m, core::Protection::kCpi);
  const std::string text = ir::PrintModule(*m);
  EXPECT_NE(text.find("cpi_store"), std::string::npos);
  EXPECT_NE(text.find("cpi_assert_code"), std::string::npos);
}

}  // namespace
}  // namespace cpi::instrument
