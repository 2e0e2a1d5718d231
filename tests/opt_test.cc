// Tests for the post-instrumentation optimizer (src/opt).
//
// Three layers:
//   1. Unit tests for the dataflow infrastructure: use-lists /
//      ReplaceAllUsesWith, CFG + dominator tree, alloca escape analysis.
//   2. Unit tests for each pass (mem2reg, redundant-check elimination,
//      seal elision, DCE) against hand-built modules.
//   3. The O0/O1 differential contract: for every workload × scheme × both
//      engines and the full attack matrix, O1 must match O0 on status,
//      violation, output and exit code, while cycle/access counters only
//      ever drop; and at O1 the two engines (and clone-vs-fresh builds, and
//      serial-vs-parallel schedules) must stay bit-identical to each other.
#include <gtest/gtest.h>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/ir/builder.h"
#include "src/ir/clone.h"
#include "src/ir/verifier.h"
#include "src/opt/analysis.h"
#include "src/opt/cfg.h"
#include "src/opt/dominators.h"
#include "src/opt/pass_manager.h"
#include "src/workloads/measure.h"
#include "src/workloads/workloads.h"

namespace cpi {
namespace {

using core::Config;
using core::Protection;
using core::ProtectionScheme;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::IntrinsicId;
using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Value;
using vm::RunResult;

size_t CountOps(const Function& f, Opcode op) {
  size_t n = 0;
  for (const auto& bb : f.blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      n += inst->op() == op ? 1 : 0;
    }
  }
  return n;
}

size_t CountIntrinsics(const Function& f, IntrinsicId id) {
  size_t n = 0;
  for (const auto& bb : f.blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      n += (inst->op() == Opcode::kIntrinsic && inst->intrinsic() == id) ? 1 : 0;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// 1. Infrastructure

TEST(UseListTest, BuilderMaintainsUseLists) {
  Module m("uses");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* slot = b.Alloca(types.I64());
  b.Store(b.I64(7), slot);
  Value* x = b.Load(slot);
  Value* sum = b.Add(x, b.I64(1));
  b.Ret(sum);

  EXPECT_EQ(slot->UseCount(), 2u);  // store address + load address
  EXPECT_EQ(x->UseCount(), 1u);    // the add
  EXPECT_EQ(sum->UseCount(), 1u);  // the ret
}

TEST(UseListTest, ReplaceAllUsesWithRewiresEveryOperandSlot) {
  Module m("rauw");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* slot = b.Alloca(types.I64());
  b.Store(b.I64(7), slot);
  Value* x = b.Load(slot);
  Value* twice = b.Add(x, x);  // two operand slots on the same value
  b.Ret(twice);

  Value* c = b.I64(3);
  const size_t c_uses_before = c->UseCount();
  x->ReplaceAllUsesWith(c);

  EXPECT_FALSE(x->HasUses());
  EXPECT_EQ(c->UseCount(), c_uses_before + 2);
  const auto* add = static_cast<const Instruction*>(twice);
  EXPECT_EQ(add->operand(0), c);
  EXPECT_EQ(add->operand(1), c);
}

TEST(UseListTest, RecomputeUsesDropsOrphanedUsers) {
  Module m("recompute");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  BasicBlock* entry = main->CreateBlock("entry");
  b.SetInsertPoint(entry);
  Instruction* slot = b.Alloca(types.I64());
  b.Store(b.I64(7), slot);
  Value* x = b.Load(slot);
  b.Ret(x);

  // Orphan the load the way instrumentation passes do: rebuild the block
  // without it. Its use of `slot` is now stale.
  std::vector<Instruction*> kept;
  for (Instruction* inst : entry->instructions()) {
    if (inst != x) {
      kept.push_back(inst);
    }
  }
  entry->ReplaceInstructions(std::move(kept));
  EXPECT_EQ(slot->UseCount(), 2u);  // stale: still counts the orphaned load

  m.RecomputeUses();
  EXPECT_EQ(slot->UseCount(), 1u);  // just the store
}

TEST(DominatorTest, DiamondCfg) {
  Module m("diamond");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  BasicBlock* entry = main->CreateBlock("entry");
  BasicBlock* left = main->CreateBlock("left");
  BasicBlock* right = main->CreateBlock("right");
  BasicBlock* join = main->CreateBlock("join");
  b.SetInsertPoint(entry);
  b.CondBr(b.I64(1), left, right);
  b.SetInsertPoint(left);
  b.Br(join);
  b.SetInsertPoint(right);
  b.Br(join);
  b.SetInsertPoint(join);
  b.Ret(b.I64(0));

  opt::Cfg cfg(*main);
  EXPECT_FALSE(cfg.HasBackEdge());
  EXPECT_EQ(cfg.rpo().size(), 4u);
  EXPECT_EQ(cfg.rpo().front(), entry);
  EXPECT_EQ(cfg.predecessors(join).size(), 2u);

  opt::DominatorTree dt(cfg);
  EXPECT_EQ(dt.idom(join), entry);
  EXPECT_TRUE(dt.Dominates(entry, join));
  EXPECT_TRUE(dt.Dominates(join, join));
  EXPECT_FALSE(dt.Dominates(left, join));
  EXPECT_FALSE(dt.Dominates(left, right));
}

TEST(DominatorTest, LoopHasBackEdgeAndHeaderDominatesBody) {
  Module m("loop");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  BasicBlock* entry = main->CreateBlock("entry");
  BasicBlock* header = main->CreateBlock("header");
  BasicBlock* body = main->CreateBlock("body");
  BasicBlock* exit = main->CreateBlock("exit");
  b.SetInsertPoint(entry);
  b.Br(header);
  b.SetInsertPoint(header);
  b.CondBr(b.I64(1), body, exit);
  b.SetInsertPoint(body);
  b.Br(header);
  b.SetInsertPoint(exit);
  b.Ret(b.I64(0));

  opt::Cfg cfg(*main);
  EXPECT_TRUE(cfg.HasBackEdge());
  opt::DominatorTree dt(cfg);
  EXPECT_TRUE(dt.Dominates(header, body));
  EXPECT_TRUE(dt.Dominates(header, exit));
  EXPECT_FALSE(dt.Dominates(body, exit));
  EXPECT_EQ(dt.idom(body), header);
}

TEST(EscapeAnalysisTest, DirectLoadsAndStoresDoNotEscape) {
  Module m("escape");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* kept_private = b.Alloca(types.I64());
  Instruction* leaked = b.Alloca(types.I64());
  b.Store(b.I64(1), kept_private);
  Value* x = b.Load(kept_private);
  // Leak the second alloca's address through pointer arithmetic.
  Value* addr = b.IndexAddr(leaked, b.I64(0));
  b.Store(b.I64(2), addr);
  b.Ret(x);
  m.RecomputeUses();

  const opt::AllocaUses private_uses = opt::AnalyzeAllocaUses(kept_private);
  EXPECT_FALSE(private_uses.escapes);
  EXPECT_EQ(private_uses.loads.size(), 1u);
  EXPECT_EQ(private_uses.stores.size(), 1u);

  const opt::AllocaUses leaked_uses = opt::AnalyzeAllocaUses(leaked);
  EXPECT_TRUE(leaked_uses.escapes);
}

// ---------------------------------------------------------------------------
// 2. Passes

opt::OptReport RunPass(Module& m, std::unique_ptr<opt::Pass> pass) {
  for (const auto& f : m.functions()) {
    f->RenumberValues();
  }
  opt::PassManager pm;
  pm.Add(std::move(pass));
  return pm.Run(m);
}

TEST(Mem2RegTest, ForwardsDominatedLoadsOfSafeScalarAlloca) {
  Module m("m2r");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  BasicBlock* entry = main->CreateBlock("entry");
  BasicBlock* next = main->CreateBlock("next");
  b.SetInsertPoint(entry);
  Instruction* slot = b.Alloca(types.I64());
  slot->set_stack_kind(ir::StackKind::kSafe);
  b.Store(b.I64(41), slot);
  b.Br(next);
  b.SetInsertPoint(next);
  Value* x = b.Load(slot);
  b.Ret(b.Add(x, b.I64(1)));
  m.protection().safe_stack = true;
  m.protection().cpi = true;  // the optimizer only runs on instrumented modules

  const opt::OptReport report = RunPass(m, opt::CreateMem2RegPass());

  EXPECT_EQ(report.passes[0].forwarded_loads, 1u);
  EXPECT_EQ(CountOps(*main, Opcode::kLoad), 0u);
  // The store and the alloca stay: frame layout and memory contents must be
  // bit-identical to O0.
  EXPECT_EQ(CountOps(*main, Opcode::kStore), 1u);
  EXPECT_EQ(CountOps(*main, Opcode::kAlloca), 1u);
}

TEST(Mem2RegTest, LeavesDefaultStackAndEscapingAllocasAlone) {
  Module m("m2r_no");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  // Default-stack scalar: corruptible by adjacent overflows, not promoted.
  Instruction* unsafe_slot = b.Alloca(types.I64());
  b.Store(b.I64(1), unsafe_slot);
  Value* x = b.Load(unsafe_slot);
  b.Ret(x);
  m.protection().safe_stack = true;  // pass enabled, but the slot is kDefault
  m.protection().cpi = true;

  RunPass(m, opt::CreateMem2RegPass());
  EXPECT_EQ(CountOps(*main, Opcode::kLoad), 1u);
}

TEST(RedundancyTest, DominatedDuplicateBoundsCheckIsDropped) {
  Module m("dup_check");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* slot = b.Alloca(types.I64());
  b.Intrinsic(IntrinsicId::kCpiBoundsCheck, types.VoidTy(), {slot, b.I64(8)});
  b.Intrinsic(IntrinsicId::kCpiBoundsCheck, types.VoidTy(), {slot, b.I64(8)});
  b.Ret(b.I64(0));

  m.protection().cpi = true;  // the optimizer only runs on instrumented modules
  const opt::OptReport report = RunPass(m, opt::CreateRedundancyEliminationPass());
  EXPECT_EQ(report.passes[0].eliminated_checks, 1u);
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kCpiBoundsCheck), 1u);
}

TEST(RedundancyTest, FreeKillsBoundsCheckAvailability) {
  Module m("free_kill");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* p = b.Malloc(b.I64(8), types.PointerTo(types.I64()));
  b.Intrinsic(IntrinsicId::kCpiBoundsCheck, types.VoidTy(), {p, b.I64(8)});
  b.Free(p);
  b.Intrinsic(IntrinsicId::kCpiBoundsCheck, types.VoidTy(), {p, b.I64(8)});
  b.Ret(b.I64(0));

  m.protection().cpi = true;  // the optimizer only runs on instrumented modules
  RunPass(m, opt::CreateRedundancyEliminationPass());
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kCpiBoundsCheck), 2u);
}

TEST(RedundancyTest, SafeStoreGetIsCseDAcrossBlocksAndKilledByStores) {
  Module m("get_cse");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  BasicBlock* entry = main->CreateBlock("entry");
  BasicBlock* next = main->CreateBlock("next");
  b.SetInsertPoint(entry);
  Instruction* slot = b.Alloca(types.I64());
  Instruction* first = b.Intrinsic(IntrinsicId::kCpiLoad, types.I64(), {slot});
  b.Br(next);
  b.SetInsertPoint(next);
  // Dominated duplicate: folded onto `first`.
  Instruction* dup = b.Intrinsic(IntrinsicId::kCpiLoad, types.I64(), {slot});
  // A safe-store write kills availability: this one survives.
  b.Intrinsic(IntrinsicId::kCpiStore, types.VoidTy(), {slot, b.I64(1)});
  Instruction* after_store = b.Intrinsic(IntrinsicId::kCpiLoad, types.I64(), {slot});
  b.Ret(b.Add(b.Add(first, dup), after_store));

  m.protection().cpi = true;  // the optimizer only runs on instrumented modules
  const opt::OptReport report = RunPass(m, opt::CreateRedundancyEliminationPass());
  EXPECT_EQ(report.passes[0].eliminated_safe_store_ops, 1u);
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kCpiLoad), 2u);
  // The duplicate's use was rewired onto the dominating instance.
  const Instruction* ret = main->blocks().back()->terminator();
  const auto* sum = static_cast<const Instruction*>(ret->operand(0));
  const auto* inner = static_cast<const Instruction*>(sum->operand(0));
  EXPECT_EQ(inner->operand(0), first);
  EXPECT_EQ(inner->operand(1), first);
}

TEST(RedundancyTest, AssertOnDirectFunctionAddressFolds) {
  Module m("assert_fold");
  auto& types = m.types();
  Function* callee = m.CreateFunction("callee", types.FunctionTy(types.I64(), {}));
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(callee->CreateBlock("entry"));
  b.Ret(b.I64(5));
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* fp = b.FuncAddr(callee);
  Instruction* checked =
      b.Intrinsic(IntrinsicId::kCpiAssertCode, fp->type(), {fp});
  Value* r = b.IndirectCall(checked, {});
  b.Ret(r);

  m.protection().cpi = true;  // the optimizer only runs on instrumented modules
  const opt::OptReport report = RunPass(m, opt::CreateRedundancyEliminationPass());
  EXPECT_EQ(report.passes[0].eliminated_checks, 1u);
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kCpiAssertCode), 0u);
}

TEST(SealElisionTest, SealStoreThenLoadForwardsTheFunctionAddress) {
  Module m("seal");
  auto& types = m.types();
  Function* callee = m.CreateFunction("callee", types.FunctionTy(types.I64(), {}));
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(callee->CreateBlock("entry"));
  b.Ret(b.I64(5));
  b.SetInsertPoint(main->CreateBlock("entry"));
  const ir::Type* fnptr = types.PointerTo(callee->type());
  Instruction* slot = b.Alloca(fnptr);
  Value* fp = b.FuncAddr(callee);
  b.Intrinsic(IntrinsicId::kSealStore, types.VoidTy(), {slot, fp});
  Instruction* loaded = b.Intrinsic(IntrinsicId::kSealLoad, fnptr, {slot});
  Value* r = b.IndirectCall(loaded, {});
  b.Ret(r);
  m.protection().ptrenc = true;

  const opt::OptReport report = RunPass(m, opt::CreateSealElisionPass());
  EXPECT_EQ(report.passes[0].eliminated_seal_ops, 1u);
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kSealLoad), 0u);
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kSealStore), 1u);  // kept
  // The indirect call now targets the FuncAddr result directly.
  for (const Instruction* inst : main->blocks().front()->instructions()) {
    if (inst->op() == Opcode::kIndirectCall) {
      EXPECT_EQ(inst->operand(0), fp);
    }
  }
}

TEST(SealElisionTest, InterveningWriteBlocksForwarding) {
  Module m("seal_blocked");
  auto& types = m.types();
  Function* callee = m.CreateFunction("callee", types.FunctionTy(types.I64(), {}));
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(callee->CreateBlock("entry"));
  b.Ret(b.I64(5));
  b.SetInsertPoint(main->CreateBlock("entry"));
  const ir::Type* fnptr = types.PointerTo(callee->type());
  Instruction* slot = b.Alloca(fnptr);
  Instruction* other = b.Alloca(types.I64());
  Value* fp = b.FuncAddr(callee);
  b.Intrinsic(IntrinsicId::kSealStore, types.VoidTy(), {slot, fp});
  b.Store(b.I64(9), other);  // any write may alias the slot
  Instruction* loaded = b.Intrinsic(IntrinsicId::kSealLoad, fnptr, {slot});
  Value* r = b.IndirectCall(loaded, {});
  b.Ret(r);
  m.protection().ptrenc = true;

  RunPass(m, opt::CreateSealElisionPass());
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kSealLoad), 1u);
}

TEST(DceTest, SweepsOnlyOptimizerOrphanedCode) {
  Module m("dce");
  auto& types = m.types();
  ir::GlobalVariable* g = m.CreateGlobal("g", types.I64());
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Value* x = b.Input();
  b.Add(x, b.I64(1));  // pre-existing dead code: must survive (it also
                       // executes in the vanilla baseline)
  // Two congruent safe-store gets through separately materialized address
  // chains: the duplicate get folds, orphaning its chain, which DCE sweeps.
  Value* i1 = b.IndexAddr(b.GlobalAddr(g), b.I64(0));
  Instruction* l1 = b.Intrinsic(IntrinsicId::kCpiLoad, types.I64(), {i1});
  Value* i2 = b.IndexAddr(b.GlobalAddr(g), b.I64(0));
  Instruction* l2 = b.Intrinsic(IntrinsicId::kCpiLoad, types.I64(), {i2});
  b.Ret(b.Add(l1, l2));
  m.protection().cpi = true;  // the optimizer only runs on instrumented modules

  for (const auto& f : m.functions()) {
    f->RenumberValues();
  }
  opt::PassManager pm;
  pm.Add(opt::CreateRedundancyEliminationPass());
  pm.Add(opt::CreateDcePass());
  const opt::OptReport report = pm.Run(m);

  EXPECT_EQ(report.passes[0].eliminated_safe_store_ops, 1u);
  EXPECT_EQ(report.passes[1].removed_instructions, 2u);  // indexaddr + globaladdr
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kCpiLoad), 1u);
  EXPECT_EQ(CountOps(*main, Opcode::kIndexAddr), 1u);
  EXPECT_EQ(CountOps(*main, Opcode::kGlobalAddr), 1u);
  // The pre-existing dead add is untouched: two binops remain (it and the
  // ret operand).
  EXPECT_EQ(CountOps(*main, Opcode::kBinOp), 2u);
}

TEST(RedundancyTest, UseBeforeDefFuncAddrAssertIsNotFolded) {
  // Use-before-def is verifier-legal: the assert reads the FuncAddr register
  // *before* its definition executes (a plain zero, which rightly aborts at
  // O0), so the statically-true fold must not fire.
  Module m("ubd_assert");
  auto& types = m.types();
  Function* callee = m.CreateFunction("callee", types.FunctionTy(types.I64(), {}));
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(callee->CreateBlock("entry"));
  b.Ret(b.I64(5));
  BasicBlock* entry = main->CreateBlock("entry");
  BasicBlock* tail = main->CreateBlock("tail");
  b.SetInsertPoint(tail);
  Value* fp = b.FuncAddr(callee);  // defined in tail...
  b.Ret(b.I64(0));
  b.SetInsertPoint(entry);         // ...read in entry
  Instruction* checked = b.Intrinsic(IntrinsicId::kCpiAssertCode, fp->type(), {fp});
  b.IndirectCall(checked, {});
  b.Br(tail);
  m.protection().cpi = true;

  RunPass(m, opt::CreateRedundancyEliminationPass());
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kCpiAssertCode), 1u);
}

TEST(SealElisionTest, UseBeforeDefFuncAddrStoreIsNotForwarded) {
  // Same trap for the seal->auth pair: the store seals the FuncAddr
  // register pre-definition (zero), so the load must not be forwarded to
  // the FuncAddr value.
  Module m("ubd_seal");
  auto& types = m.types();
  Function* callee = m.CreateFunction("callee", types.FunctionTy(types.I64(), {}));
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(callee->CreateBlock("entry"));
  b.Ret(b.I64(5));
  const ir::Type* fnptr = types.PointerTo(callee->type());
  BasicBlock* entry = main->CreateBlock("entry");
  BasicBlock* tail = main->CreateBlock("tail");
  b.SetInsertPoint(tail);
  Value* fp = b.FuncAddr(callee);  // defined in tail...
  b.Ret(b.I64(0));
  b.SetInsertPoint(entry);         // ...sealed in entry, pre-definition
  Instruction* slot = b.Alloca(fnptr);
  b.Intrinsic(IntrinsicId::kSealStore, types.VoidTy(), {slot, fp});
  Instruction* loaded = b.Intrinsic(IntrinsicId::kSealLoad, fnptr, {slot});
  b.IndirectCall(loaded, {});
  b.Br(tail);
  m.protection().ptrenc = true;

  RunPass(m, opt::CreateSealElisionPass());
  EXPECT_EQ(CountIntrinsics(*main, IntrinsicId::kSealLoad), 1u);
}

// ---------------------------------------------------------------------------
// 3. The O0/O1 differential contract

void ExpectSameSemantics(const RunResult& o1, const RunResult& o0, const std::string& label) {
  EXPECT_EQ(o1.status, o0.status) << label;
  EXPECT_EQ(o1.violation, o0.violation) << label;
  EXPECT_EQ(o1.exit_code, o0.exit_code) << label;
  EXPECT_EQ(o1.output, o0.output) << label;
}

void ExpectIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  ExpectSameSemantics(a, b, label);
  EXPECT_EQ(a.message, b.message) << label;
  const vm::Counters& x = a.counters;
  const vm::Counters& y = b.counters;
  EXPECT_EQ(x.instructions, y.instructions) << label;
  EXPECT_EQ(x.cycles, y.cycles) << label;
  EXPECT_EQ(x.mem_accesses, y.mem_accesses) << label;
  EXPECT_EQ(x.safe_store_ops, y.safe_store_ops) << label;
  EXPECT_EQ(x.store_contended_ops, y.store_contended_ops) << label;
  EXPECT_EQ(x.seal_ops, y.seal_ops) << label;
  EXPECT_EQ(x.checks, y.checks) << label;
  EXPECT_EQ(x.calls, y.calls) << label;
  EXPECT_EQ(x.hijack_transfers, y.hijack_transfers) << label;
  EXPECT_EQ(x.cache_hits, y.cache_hits) << label;
  EXPECT_EQ(x.cache_misses, y.cache_misses) << label;
}

RunResult InstrumentCloneAndRun(const Module& built, const Config& config,
                                const core::Input& input) {
  auto module = ir::CloneModule(built);
  return core::InstrumentAndRun(*module, config, input);
}

// The heart of the acceptance criteria: every workload × scheme runs with
// identical observable semantics at O1, bit-identically across engines, and
// the protected schemes get measurably cheaper while vanilla never regresses.
TEST(OptDifferentialTest, AllWorkloadsAllSchemesBothEngines) {
  std::map<Protection, uint64_t> o0_cycles;
  std::map<Protection, uint64_t> o1_cycles;

  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      const std::string label = w.name + " / " + s->name();
      Config config;
      config.protection = s->id();

      const RunResult o0 = InstrumentCloneAndRun(*built, config, w.input);

      config.opt_level = 1;
      const RunResult o1 = InstrumentCloneAndRun(*built, config, w.input);

      config.reference_interpreter = true;
      const RunResult o1_ref = InstrumentCloneAndRun(*built, config, w.input);

      ExpectSameSemantics(o1, o0, label + " O1-vs-O0");
      ExpectIdentical(o1, o1_ref, label + " decoded-vs-reference at O1");

      // The optimizer must never add work.
      EXPECT_LE(o1.counters.cycles, o0.counters.cycles) << label;
      EXPECT_LE(o1.counters.instructions, o0.counters.instructions) << label;
      EXPECT_LE(o1.counters.safe_store_ops, o0.counters.safe_store_ops) << label;
      EXPECT_LE(o1.counters.checks, o0.counters.checks) << label;
      EXPECT_LE(o1.counters.seal_ops, o0.counters.seal_ops) << label;

      o0_cycles[s->id()] += o0.counters.cycles;
      o1_cycles[s->id()] += o1.counters.cycles;
    }
  }

  // "Measurably drop": in aggregate over the SPEC set, CPI and PtrEnc
  // simulated cycles must strictly decrease at O1 (dominated duplicate
  // checks / safe-store gets, seal elision, leaf frames). CPS instrumentation
  // contains no redundant sites in these workload models — every
  // code-pointer load feeds exactly one indirect call, matching §3.3's
  // "CPS is already minimal" — so it must simply never regress.
  for (Protection p : {Protection::kCpi, Protection::kPtrEnc}) {
    EXPECT_LT(o1_cycles[p], o0_cycles[p]) << core::ProtectionName(p);
  }
  EXPECT_LE(o1_cycles[Protection::kCps], o0_cycles[Protection::kCps]);
}

// Attack programs drive the corrupted paths; O1 must tell the same story on
// every one of them, under every scheme.
TEST(OptDifferentialTest, AttackMatrixAllSchemes) {
  const std::vector<attacks::AttackSpec> matrix = attacks::GenerateAttackMatrix();
  for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
    for (const attacks::AttackSpec& spec : matrix) {
      const std::string label = spec.Name() + " / " + s->name();
      Config config;
      config.protection = s->id();
      const attacks::AttackResult o0 = attacks::RunAttack(spec, config);

      config.opt_level = 1;
      const attacks::AttackResult o1 = attacks::RunAttack(spec, config);

      config.reference_interpreter = true;
      const attacks::AttackResult o1_ref = attacks::RunAttack(spec, config);

      EXPECT_EQ(o1.outcome, o0.outcome) << label;
      EXPECT_EQ(o1.status, o0.status) << label;
      EXPECT_EQ(o1.violation, o0.violation) << label;

      EXPECT_EQ(o1_ref.outcome, o1.outcome) << label;
      EXPECT_EQ(o1_ref.status, o1.status) << label;
      EXPECT_EQ(o1_ref.violation, o1.violation) << label;
      EXPECT_EQ(o1_ref.message, o1.message) << label;
    }
  }
}

// Build-strategy invariance at O1: instrumenting a clone equals
// instrumenting a fresh build, counter for counter.
TEST(OptDifferentialTest, CloneMatchesFreshBuildAtO1) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    for (Protection p : {Protection::kCpi, Protection::kPtrEnc}) {
      Config config;
      config.protection = p;
      config.opt_level = 1;

      auto original = w.build(1);
      auto clone = ir::CloneModule(*original);
      const RunResult from_original = core::InstrumentAndRun(*original, config, w.input);
      const RunResult from_clone = core::InstrumentAndRun(*clone, config, w.input);
      ExpectIdentical(from_clone, from_original,
                      w.name + " clone at O1 / " + core::ProtectionName(p));
    }
  }
}

// Schedule invariance at O1: the measurement harness reduces to identical
// overhead tables at any --jobs value.
TEST(OptDifferentialTest, SerialAndParallelHarnessAgreeAtO1) {
  std::vector<workloads::Workload> subset(workloads::SpecCpu2006().begin(),
                                          workloads::SpecCpu2006().begin() + 3);
  Config base;
  base.opt_level = 1;
  const std::vector<Protection> protections = {Protection::kCpi, Protection::kPtrEnc};
  const auto measure = [&](int jobs) {
    const auto built = workloads::BuildWorkloads(subset, 1, jobs);
    std::vector<workloads::MeasureCell> cells;
    std::vector<workloads::MeasurementCells> plan;
    for (size_t wi = 0; wi < subset.size(); ++wi) {
      plan.push_back(workloads::AddMeasurementCells(cells, wi, protections, base));
    }
    const auto results =
        workloads::RunCells(subset, workloads::ModuleViews(built), cells, jobs);
    std::vector<workloads::Measurement> ms;
    for (const auto& at : plan) {
      ms.push_back(workloads::ReduceMeasurement(subset[at.workload], at, results));
    }
    return ms;
  };
  const auto serial = measure(1);
  const auto parallel = measure(2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].vanilla_cycles, parallel[i].vanilla_cycles);
    EXPECT_EQ(serial[i].overhead_pct, parallel[i].overhead_pct);
    EXPECT_EQ(serial[i].memory_bytes, parallel[i].memory_bytes);
  }
}

// The verifier extension: a buggy pass that emits a malformed intrinsic is
// caught. (Constructed directly — the real passes never produce this.)
TEST(VerifierIntrinsicTest, FlagsMalformedIntrinsics) {
  Module m("bad");
  auto& types = m.types();
  Function* main = m.CreateFunction("main", types.FunctionTy(types.I64(), {}));
  IRBuilder b(&m);
  b.SetInsertPoint(main->CreateBlock("entry"));
  Instruction* slot = b.Alloca(types.I64());
  // Store intrinsic with a non-void result type.
  b.Intrinsic(IntrinsicId::kCpiStore, types.I64(), {slot, b.I64(1)});
  b.Ret(b.I64(0));
  EXPECT_FALSE(ir::IsValid(m));
}

}  // namespace
}  // namespace cpi
