// Differential and structural tests for the fused superinstruction tier.
//
// The fused engine (tier 3) rewrites hot straight-line micro-op sequences
// into macro-ops but charges each macro the exact sum of its constituents:
// simulated behaviour — counters, cache state, memory footprint, output,
// violations — must be bit-identical to the predecoded engine (tier 2) and
// the tree-walking reference interpreter (tier 1). These tests run all
// three tiers over every workload x every registered scheme, at O0 and O1,
// across scheduler quanta, and over the attack matrix, asserting full
// RunResult equality. Structural tests introspect fused DecodedModules to
// prove fusion never crosses a basic-block boundary or consumes a
// control-transfer op.
#include <gtest/gtest.h>

#include "src/attacks/ripe.h"
#include "src/core/scheme.h"
#include "src/ir/clone.h"
#include "src/vm/decode.h"
#include "src/workloads/measure.h"
#include "src/workloads/workloads.h"

namespace cpi {
namespace {

using core::Config;
using core::Protection;
using core::ProtectionScheme;
using vm::EngineKind;
using vm::RunResult;

void ExpectIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.violation, b.violation) << label;
  EXPECT_EQ(a.message, b.message) << label;
  EXPECT_EQ(a.exit_code, b.exit_code) << label;
  EXPECT_EQ(a.output, b.output) << label;

  const vm::Counters& ac = a.counters;
  const vm::Counters& bc = b.counters;
  EXPECT_EQ(ac.instructions, bc.instructions) << label;
  EXPECT_EQ(ac.cycles, bc.cycles) << label;
  EXPECT_EQ(ac.mem_accesses, bc.mem_accesses) << label;
  EXPECT_EQ(ac.safe_store_ops, bc.safe_store_ops) << label;
  EXPECT_EQ(ac.store_contended_ops, bc.store_contended_ops) << label;
  EXPECT_EQ(ac.seal_ops, bc.seal_ops) << label;
  EXPECT_EQ(ac.checks, bc.checks) << label;
  EXPECT_EQ(ac.calls, bc.calls) << label;
  EXPECT_EQ(ac.hijack_transfers, bc.hijack_transfers) << label;
  EXPECT_EQ(ac.cache_hits, bc.cache_hits) << label;
  EXPECT_EQ(ac.cache_misses, bc.cache_misses) << label;
  EXPECT_EQ(ac.thread_spawns, bc.thread_spawns) << label;

  EXPECT_EQ(a.memory.regular_bytes, b.memory.regular_bytes) << label;
  EXPECT_EQ(a.memory.safe_store_bytes, b.memory.safe_store_bytes) << label;
  EXPECT_EQ(a.memory.safe_stack_bytes, b.memory.safe_stack_bytes) << label;
  EXPECT_EQ(a.memory.safe_store_entries, b.memory.safe_store_entries) << label;
}

RunResult RunEngine(const ir::Module& built, Config config, const core::Input& input,
                    EngineKind engine) {
  config.engine = engine;
  auto clone = ir::CloneModule(built);
  return core::InstrumentAndRun(*clone, config, input);
}

// --- three-way differential -------------------------------------------------

// The acceptance bar: every workload x every registered scheme agrees across
// all three execution tiers on the whole RunResult, down to individual
// counter values.
TEST(FuseDifferentialTest, AllWorkloadsAllSchemesThreeTiers) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      Config config;
      config.protection = s->id();
      config.scheme = s;  // composites run as composites, not their first part
      const std::string label = w.name + " / " + s->name();
      const RunResult fused = RunEngine(*built, config, w.input, EngineKind::kFused);
      const RunResult decoded = RunEngine(*built, config, w.input, EngineKind::kDecoded);
      const RunResult reference =
          RunEngine(*built, config, w.input, EngineKind::kReference);
      ExpectIdentical(fused, decoded, label + " fused-vs-decoded");
      ExpectIdentical(decoded, reference, label + " decoded-vs-reference");
    }
  }
}

// Fusion composes with the post-instrumentation optimizer: O1 bodies fuse
// into different shapes than O0 bodies, and both must stay bit-identical to
// the unfused engine.
TEST(FuseDifferentialTest, OptLevelsAllSchemes) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    auto built = w.build(1);
    for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
      for (int opt : {0, 1}) {
        Config config;
        config.protection = s->id();
        config.scheme = s;
        config.opt_level = opt;
        const std::string label =
            w.name + " / " + s->name() + " / O" + std::to_string(opt);
        ExpectIdentical(RunEngine(*built, config, w.input, EngineKind::kFused),
                        RunEngine(*built, config, w.input, EngineKind::kDecoded),
                        label);
      }
    }
  }
}

// Threaded workloads under fusion: a macro-op defers the scheduler check to
// its last constituent, which must not be observable — counters identical to
// the unfused engine at every quantum, including quantum 1 (reschedule
// pressure on every op).
TEST(FuseDifferentialTest, ConcurrentQuantumSweep) {
  for (const workloads::Workload& w : workloads::ConcurrentServer()) {
    auto built = w.build(1);
    for (Protection p : {Protection::kNone, Protection::kSafeStack, Protection::kCps,
                         Protection::kCpi, Protection::kPtrEnc}) {
      for (uint64_t quantum : {1ull, 7ull, 173ull, 4096ull}) {
        Config config;
        config.protection = p;
        config.thread_quantum = quantum;
        const std::string label = w.name + " / " + core::ProtectionName(p) +
                                  " quantum=" + std::to_string(quantum);
        ExpectIdentical(RunEngine(*built, config, w.input, EngineKind::kFused),
                        RunEngine(*built, config, w.input, EngineKind::kDecoded),
                        label);
      }
    }
  }
}

// Attack programs drive traps, violations and hijack transfers — the paths
// where a macro-op must stop charging mid-sequence. The fused engine must
// tell exactly the same story as the unfused one for every attack x scheme.
TEST(FuseDifferentialTest, AttackMatrixAllSchemes) {
  const std::vector<attacks::AttackSpec> matrix = attacks::GenerateAttackMatrix();
  for (const ProtectionScheme* s : core::SchemeRegistry::All()) {
    for (const attacks::AttackSpec& spec : matrix) {
      Config config;
      config.protection = s->id();
      config.scheme = s;

      config.engine = EngineKind::kFused;
      const attacks::AttackResult fused = attacks::RunAttack(spec, config);

      config.engine = EngineKind::kDecoded;
      const attacks::AttackResult decoded = attacks::RunAttack(spec, config);

      const std::string label = spec.Name() + " / " + s->name();
      EXPECT_EQ(fused.outcome, decoded.outcome) << label;
      EXPECT_EQ(fused.status, decoded.status) << label;
      EXPECT_EQ(fused.violation, decoded.violation) << label;
      EXPECT_EQ(fused.message, decoded.message) << label;
    }
  }
}

// Out-of-fuel termination must land on the same instruction regardless of
// tier: sweep max_steps across a range that cuts runs off mid-macro.
TEST(FuseDifferentialTest, StepLimitCutsOffIdentically) {
  const workloads::Workload& w = workloads::SpecCpu2006().front();
  auto built = w.build(1);
  for (uint64_t max_steps : {100ull, 1001ull, 10007ull, 100003ull}) {
    Config config;
    config.protection = Protection::kCpi;
    config.max_steps = max_steps;
    ExpectIdentical(RunEngine(*built, config, w.input, EngineKind::kFused),
                    RunEngine(*built, config, w.input, EngineKind::kDecoded),
                    w.name + " max_steps=" + std::to_string(max_steps));
  }
}

// --- structural invariants of the fuser -------------------------------------

// Ops that transfer control or touch the frame stack: never a constituent of
// any fused sequence (head or tail). A branch is permitted, but only as the
// final constituent.
bool IsFusionBarrier(vm::MicroOp op) {
  switch (op) {
    case vm::MicroOp::kCall:
    case vm::MicroOp::kIndirectCall:
    case vm::MicroOp::kLibCall:
    case vm::MicroOp::kRet:
    case vm::MicroOp::kSpawn:
    case vm::MicroOp::kJoin:
    case vm::MicroOp::kYield:
    case vm::MicroOp::kMalloc:
    case vm::MicroOp::kFree:
    case vm::MicroOp::kInput:
    case vm::MicroOp::kOutput:
      return true;
    default:
      return false;
  }
}

// The micro opcode a macro's head constituent had before fusion, recovered
// from the opcode encoding (decode.h: kCmpBr, the pair matrix, the triple
// shapes).
vm::MicroOp MacroHead(vm::MicroOp macro) {
  const auto v = static_cast<size_t>(macro);
  if (v == static_cast<size_t>(vm::MacroOp::kCmpBr)) return vm::MicroOp::kBinOp;
  if (v >= static_cast<size_t>(vm::MacroOp::kTripleBase)) {
    return vm::kTripleShapes[v - static_cast<size_t>(vm::MacroOp::kTripleBase)].a;
  }
  return vm::kFuseHeadOps[(v - static_cast<size_t>(vm::MacroOp::kPairBase)) /
                          vm::kNumFuseTails];
}

void CheckFusedFunction(const vm::DecodedFunction& df, const std::string& label) {
  for (size_t i = 0; i < df.ops.size(); ++i) {
    const vm::DecodedOp& head = df.ops[i];
    if (!vm::IsMacroOp(head.op)) continue;
    const uint32_t len = vm::FusedLength(head.op);
    ASSERT_LE(i + len, df.ops.size()) << label << " op " << i;

    // No basic-block boundary strictly inside the fused range: a jump target
    // must never land on a consumed tail's charging being skipped.
    for (uint32_t b : df.block_starts) {
      EXPECT_FALSE(b > i && b < i + len)
          << label << ": macro at op " << i << " (len " << len
          << ") crosses block start " << b;
    }

    // The head's original opcode and every tail stay inside the fusible set:
    // no calls, returns, thread ops or I/O, and a branch only in last
    // position.
    const vm::MicroOp head_op = MacroHead(head.op);
    EXPECT_FALSE(IsFusionBarrier(head_op)) << label << " head at op " << i;
    EXPECT_FALSE(head_op == vm::MicroOp::kBr || head_op == vm::MicroOp::kCondBr)
        << label << " branch head at op " << i;
    for (uint32_t k = 1; k < len; ++k) {
      const vm::MicroOp tail_op = df.ops[i + k].op;
      EXPECT_FALSE(vm::IsMacroOp(tail_op))
          << label << " nested macro at op " << i + k;
      EXPECT_FALSE(IsFusionBarrier(tail_op)) << label << " tail at op " << i + k;
      if (k + 1 < len) {
        EXPECT_FALSE(tail_op == vm::MicroOp::kBr || tail_op == vm::MicroOp::kCondBr)
            << label << " mid-sequence branch at op " << i + k;
      }
    }
  }
}

// Every workload, instrumented under a store-backed scheme and fused: no
// macro crosses a block boundary, consumes a call/ret/spawn/join/yield, or
// places a branch anywhere but last.
TEST(FuseStructureTest, NoMacroCrossesBlockOrBarrier) {
  for (const workloads::Workload& w : workloads::SpecCpu2006()) {
    for (Protection p : {Protection::kNone, Protection::kCpi}) {
      auto module = w.build(1);
      Config config;
      config.protection = p;
      core::Compiler(config).Instrument(*module);
      const vm::ProgramLayout layout = vm::ComputeProgramLayout(*module);
      const vm::DecodedModule dm(*module, layout, /*fuse=*/true);
      for (const auto& f : module->functions()) {
        CheckFusedFunction(dm.ForFunction(f.get()),
                           w.name + " / " + core::ProtectionName(p) + " / " +
                               f->name());
      }
    }
  }
}

// Threaded bodies: spawn/join/yield sit inline in straight-line code, so the
// fuser sees them as ordinary ops and must refuse to fuse them.
TEST(FuseStructureTest, ThreadOpsNeverFused) {
  for (const workloads::Workload& w : workloads::ConcurrentServer()) {
    auto module = w.build(1);
    Config config;
    core::Compiler(config).Instrument(*module);
    const vm::ProgramLayout layout = vm::ComputeProgramLayout(*module);
    const vm::DecodedModule dm(*module, layout, /*fuse=*/true);
    for (const auto& f : module->functions()) {
      CheckFusedFunction(dm.ForFunction(f.get()), w.name + " / " + f->name());
    }
  }
}

// The fuser finds work on real instrumented bodies: fused modules shrink
// their dispatched-op count and record at least one pattern.
TEST(FuseStructureTest, FusionShrinksDispatchCount) {
  const workloads::Workload& w = workloads::SpecCpu2006().front();
  auto module = w.build(1);
  Config config;
  config.protection = Protection::kCpi;
  core::Compiler(config).Instrument(*module);
  const vm::ProgramLayout layout = vm::ComputeProgramLayout(*module);
  const vm::DecodedModule dm(*module, layout, /*fuse=*/true);
  EXPECT_GT(dm.ops_before_fusion(), dm.ops_after_fusion());
  EXPECT_FALSE(dm.patterns().empty());
  for (const vm::FusePattern& p : dm.patterns()) {
    EXPECT_GT(p.sites, 0u) << p.name;
    EXPECT_GT(p.weight, 0u) << p.name;
  }
}

}  // namespace
}  // namespace cpi
