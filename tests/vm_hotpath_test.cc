// Tests for the VM's per-access and per-call machinery: the L1 cache model
// against a naive LRU reference, the isolation outcome of a forged
// safe-region address on the scalar and libc paths under every
// IsolationKind, and frame-storage edge cases (the call-depth trap, calls
// alternating between deep and shallow stacks, a return hijack, threads).
// Every program runs on all three engines, which must agree on the whole
// RunResult.
#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/levee.h"
#include "src/ir/builder.h"
#include "src/ir/clone.h"
#include "src/support/rng.h"
#include "src/vm/cache.h"
#include "src/vm/layout.h"
#include "src/vm/machine.h"

namespace cpi::vm {
namespace {

// --- CacheModel against a reference LRU ---------------------------------------

// The plainest possible set-associative LRU cache: one recency list per set,
// most recent first.
class ReferenceLru {
 public:
  explicit ReferenceLru(const CacheModel::Config& config)
      : config_(config), sets_(config.size_bytes / (config.line_bytes * config.ways)) {}

  uint64_t Access(uint64_t addr) {
    const uint64_t line = addr / config_.line_bytes;
    std::list<uint64_t>& set = sets_[line % sets_.size()];
    auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
      set.splice(set.begin(), set, it);
      ++hits_;
      return config_.hit_cycles;
    }
    if (set.size() == config_.ways) {
      set.pop_back();
    }
    set.push_front(line);
    ++misses_;
    return config_.miss_cycles;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  CacheModel::Config config_;
  std::vector<std::list<uint64_t>> sets_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// A seeded address stream mixing the patterns that exercise replacement: a
// working set near the cache's capacity, one set hammered with a few more
// lines than it has ways, sequential sweeps, and arbitrary 64-bit addresses
// (the largest line addresses included).
std::vector<uint64_t> AddressStream(const CacheModel::Config& config, uint64_t seed,
                                    size_t count) {
  Rng rng(seed);
  const uint64_t lines = config.size_bytes / config.line_bytes;
  const uint64_t sets = lines / config.ways;
  std::vector<uint64_t> out;
  out.reserve(count);
  uint64_t sweep = 0;
  while (out.size() < count) {
    const uint64_t pick = rng.NextU64() % 8;
    const uint64_t r = rng.NextU64();
    if (pick < 3) {  // working set of 1.5x capacity
      out.push_back(0x10000 + (r % (lines + lines / 2)) * config.line_bytes + r % 61);
    } else if (pick < 5) {  // ways + 2 lines all mapping to set 3
      const uint64_t tag = r % (config.ways + 2);
      out.push_back((tag * sets + 3) * config.line_bytes);
    } else if (pick < 6) {
      sweep += 8;
      out.push_back(0x4000'0000 + sweep);
    } else if (pick < 7) {
      out.push_back(r);
    } else {  // the top of the address space
      out.push_back(~0ULL - r % (4 * config.line_bytes));
    }
  }
  return out;
}

void ExpectMatchesReference(const CacheModel::Config& config, uint64_t seed) {
  const std::vector<uint64_t> stream = AddressStream(config, seed, 200'000);
  CacheModel cache(config);
  for (int pass = 0; pass < 2; ++pass) {  // the second pass checks Reset()
    ReferenceLru ref(config);
    for (size_t i = 0; i < stream.size(); ++i) {
      const uint64_t want = ref.Access(stream[i]);
      ASSERT_EQ(cache.Access(stream[i]), want) << "pass " << pass << " access " << i;
      ASSERT_EQ(cache.hits(), ref.hits()) << "pass " << pass << " access " << i;
      ASSERT_EQ(cache.misses(), ref.misses()) << "pass " << pass << " access " << i;
    }
    EXPECT_GT(ref.hits(), stream.size() / 10);
    EXPECT_GT(ref.misses(), stream.size() / 10);
    cache.Reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
  }
}

TEST(CacheReferenceTest, DefaultEightWayMatchesNaiveLru) {
  ExpectMatchesReference(CacheModel::Config{}, 11);
}

TEST(CacheReferenceTest, TwoWayMatchesNaiveLru) {
  CacheModel::Config config;
  config.size_bytes = 1024;
  config.ways = 2;
  ExpectMatchesReference(config, 12);
}

TEST(CacheReferenceTest, DirectMappedWideLinesMatchNaiveLru) {
  CacheModel::Config config;
  config.size_bytes = 4096;
  config.line_bytes = 128;
  config.ways = 1;
  config.hit_cycles = 3;
  config.miss_cycles = 40;
  ExpectMatchesReference(config, 13);
}

// --- running one program on every engine ------------------------------------

void ExpectIdentical(const RunResult& a, const RunResult& b, const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.violation, b.violation) << label;
  EXPECT_EQ(a.message, b.message) << label;
  EXPECT_EQ(a.exit_code, b.exit_code) << label;
  EXPECT_EQ(a.output, b.output) << label;
  const Counters& ac = a.counters;
  const Counters& bc = b.counters;
  EXPECT_EQ(ac.instructions, bc.instructions) << label;
  EXPECT_EQ(ac.cycles, bc.cycles) << label;
  EXPECT_EQ(ac.mem_accesses, bc.mem_accesses) << label;
  EXPECT_EQ(ac.safe_store_ops, bc.safe_store_ops) << label;
  EXPECT_EQ(ac.store_contended_ops, bc.store_contended_ops) << label;
  EXPECT_EQ(ac.shard_migrations, bc.shard_migrations) << label;
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

// Instruments and runs a clone of `built` on each engine, checks that the
// three results agree, and returns the fused one.
RunResult RunAllEngines(const ir::Module& built, core::Config config, const std::string& label) {
  std::vector<RunResult> results;
  for (EngineKind engine : {EngineKind::kFused, EngineKind::kDecoded, EngineKind::kReference}) {
    config.engine = engine;
    auto clone = ir::CloneModule(built);
    results.push_back(core::InstrumentAndRun(*clone, config));
  }
  ExpectIdentical(results[1], results[0], label + " / decoded");
  ExpectIdentical(results[2], results[0], label + " / reference");
  return results[0];
}

ir::Function* Define(ir::IRBuilder& b, const std::string& name, const ir::FunctionType* type) {
  ir::Function* f = b.module()->CreateFunction(name, type);
  b.SetInsertPoint(f->CreateBlock("entry"));
  return f;
}

ir::Function* DefineMain(ir::IRBuilder& b) {
  auto& t = b.module()->types();
  return Define(b, "main", t.FunctionTy(t.I64(), {}));
}

// --- isolation outcomes of a forged safe-region address ----------------------

enum class Access { kLoad, kStore, kMemcpyFrom, kMemcpyTo };

const char* AccessName(Access a) {
  switch (a) {
    case Access::kLoad: return "load";
    case Access::kStore: return "store";
    case Access::kMemcpyFrom: return "memcpy-from";
    case Access::kMemcpyTo: return "memcpy-to";
  }
  return "?";
}

const char* IsolationName(runtime::IsolationKind k) {
  switch (k) {
    case runtime::IsolationKind::kSegment: return "segment";
    case runtime::IsolationKind::kInfoHiding: return "info-hiding";
    case runtime::IsolationKind::kSfi: return "sfi";
  }
  return "?";
}

// Bit 47 is one of the bits the SFI mask clears, so `global + kForgeBit` is
// a safe-region address that masks back onto the global.
constexpr uint64_t kForgeBit = 1ULL << 47;
static_assert(kForgeBit >= kSafeRegionBase, "forged address must be in the safe region");
static_assert((kForgeBit & (kSafeRegionBase - 1)) == 0, "the SFI mask must clear the bit");

// main() holds 0x1111 in global `g` and 0x2222 in global `h`, then makes one
// access through a forged pointer: `g + kForgeBit` (onto_global) or an
// address inside thread 0's safe stack. It outputs g and h afterwards.
std::unique_ptr<ir::Module> ForgedAccessProgram(Access access, bool onto_global) {
  auto m = std::make_unique<ir::Module>("forged");
  auto& t = m->types();
  ir::IRBuilder b(m.get());
  ir::GlobalVariable* g = m->CreateGlobal("g", t.I64());
  ir::GlobalVariable* h = m->CreateGlobal("h", t.I64());
  DefineMain(b);
  ir::Value* gp = b.GlobalAddr(g);
  ir::Value* hp = b.GlobalAddr(h);
  b.Store(b.I64(0x1111), gp);
  b.Store(b.I64(0x2222), hp);
  ir::Value* forged_int = onto_global ? b.Add(b.PtrToInt(gp), b.I64(kForgeBit))
                                      : b.I64(kSafeStackTop - 4096);
  ir::Value* forged = b.IntToPtr(forged_int, t.PointerTo(t.I64()));
  switch (access) {
    case Access::kLoad:
      b.Store(b.Load(forged), hp);
      break;
    case Access::kStore:
      b.Store(b.I64(0x3333), forged);
      break;
    case Access::kMemcpyFrom:
      b.LibCall(ir::LibFunc::kMemcpy,
                {b.Bitcast(hp, t.CharPtrTy()), b.Bitcast(forged, t.CharPtrTy()), b.I64(8)});
      break;
    case Access::kMemcpyTo:
      b.LibCall(ir::LibFunc::kMemcpy,
                {b.Bitcast(forged, t.CharPtrTy()), b.Bitcast(hp, t.CharPtrTy()), b.I64(8)});
      break;
  }
  b.Output(b.Load(gp));
  b.Output(b.Load(hp));
  b.Ret(b.I64(0));
  return m;
}

// Pinned outcome of one forged access: status, message and every counter
// that moves in these programs (the rest must stay 0).
struct Outcome {
  RunStatus status;
  const char* message;
  std::vector<uint64_t> output;
  uint64_t instructions, cycles, mem_accesses, cache_hits, cache_misses;
};

void ExpectOutcome(const RunResult& r, const Outcome& want, const std::string& label) {
  EXPECT_EQ(r.status, want.status) << label;
  EXPECT_EQ(r.message, want.message) << label;
  EXPECT_EQ(r.output, want.output) << label;
  EXPECT_EQ(r.counters.instructions, want.instructions) << label;
  EXPECT_EQ(r.counters.cycles, want.cycles) << label;
  EXPECT_EQ(r.counters.mem_accesses, want.mem_accesses) << label;
  EXPECT_EQ(r.counters.cache_hits, want.cache_hits) << label;
  EXPECT_EQ(r.counters.cache_misses, want.cache_misses) << label;
  EXPECT_EQ(r.counters.calls, 1u) << label;
  EXPECT_EQ(r.counters.safe_store_ops, 0u) << label;
  EXPECT_EQ(r.counters.seal_ops, 0u) << label;
  EXPECT_EQ(r.counters.checks, 0u) << label;
  EXPECT_EQ(r.counters.hijack_transfers, 0u) << label;
  EXPECT_EQ(r.counters.thread_spawns, 0u) << label;
  EXPECT_EQ(r.violation, runtime::Violation::kNone) << label;
}

constexpr char kSegmentMsg[] = "segment violation: regular access to the safe region";
constexpr char kHiddenMsg[] = "fault: access to unmapped address (safe region is hidden)";
constexpr char kUnmappedReadMsg[] = "fault: read of unmapped address";
constexpr char kUnmappedWriteMsg[] = "fault: write to unmapped address";

void ExpectForgedOutcomes(bool onto_global, const std::vector<Outcome>& pins) {
  size_t i = 0;
  for (Access access : {Access::kLoad, Access::kStore, Access::kMemcpyFrom, Access::kMemcpyTo}) {
    for (auto iso : {runtime::IsolationKind::kSegment, runtime::IsolationKind::kInfoHiding,
                     runtime::IsolationKind::kSfi}) {
      const std::string label = std::string(AccessName(access)) + " / " + IsolationName(iso);
      core::Config config;
      config.isolation = iso;
      const auto built = ForgedAccessProgram(access, onto_global);
      ExpectOutcome(RunAllEngines(*built, config, label), pins[i++], label);
    }
  }
}

// A forged address that SFI masks onto a mapped global. Segment limits and
// information hiding crash before the access; SFI lets it land on the
// global, on the scalar path and the libc path alike, and both paths
// charge the masked line: the SFI memcpy rows miss on the same two globals
// as the SFI load.
TEST(IsolationOutcomeTest, ForgedAddressOntoGlobal) {
  const RunStatus ok = RunStatus::kOk;
  const RunStatus crash = RunStatus::kCrash;
  ExpectForgedOutcomes(/*onto_global=*/true, {
      // load
      {crash, kSegmentMsg, {}, 8, 61, 3, 1, 2},
      {crash, kHiddenMsg, {}, 8, 61, 3, 1, 2},
      {ok, "", {0x1111, 0x1111}, 14, 89, 8, 6, 2},
      // store
      {crash, kSegmentMsg, {}, 8, 61, 3, 1, 2},
      {crash, kHiddenMsg, {}, 8, 61, 3, 1, 2},
      {ok, "", {0x3333, 0x2222}, 13, 85, 7, 5, 2},
      // memcpy-from
      {crash, kSegmentMsg, {}, 10, 71, 3, 1, 2},
      {crash, kHiddenMsg, {}, 10, 71, 3, 1, 2},
      {ok, "", {0x1111, 0x1111}, 15, 100, 8, 6, 2},
      // memcpy-to
      {crash, kSegmentMsg, {}, 10, 71, 3, 1, 2},
      {crash, kHiddenMsg, {}, 10, 71, 3, 1, 2},
      {ok, "", {0x2222, 0x2222}, 15, 100, 8, 6, 2},
  });
}

// A forged address inside thread 0's safe stack. Under SFI the masked
// address is unmapped regular memory, so every path faults there.
TEST(IsolationOutcomeTest, ForgedAddressIntoSafeStack) {
  const RunStatus crash = RunStatus::kCrash;
  ExpectForgedOutcomes(/*onto_global=*/false, {
      // load
      {crash, kSegmentMsg, {}, 6, 59, 3, 1, 2},
      {crash, kHiddenMsg, {}, 6, 59, 3, 1, 2},
      {crash, kUnmappedReadMsg, {}, 6, 62, 3, 1, 2},
      // store
      {crash, kSegmentMsg, {}, 6, 59, 3, 1, 2},
      {crash, kHiddenMsg, {}, 6, 59, 3, 1, 2},
      {crash, kUnmappedWriteMsg, {}, 6, 62, 3, 1, 2},
      // memcpy-from
      {crash, kSegmentMsg, {}, 8, 69, 3, 1, 2},
      {crash, kHiddenMsg, {}, 8, 69, 3, 1, 2},
      {crash, kUnmappedReadMsg, {}, 8, 72, 3, 1, 2},
      // memcpy-to
      {crash, kSegmentMsg, {}, 8, 69, 3, 1, 2},
      {crash, kHiddenMsg, {}, 8, 69, 3, 1, 2},
      {crash, kUnmappedWriteMsg, {}, 8, 72, 3, 1, 2},
  });
}

// --- frame storage -----------------------------------------------------------

// f(n) = f(n + 1) + 1 never returns: the 2002nd frame trips the depth limit.
// The trap must land on the same instruction, with the same charges, on
// every engine, with and without a safe stack.
TEST(FrameStorageTest, CallDepthLimitTrapsIdenticallyOnEveryEngine) {
  ir::Module m("deep");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  ir::Function* f = Define(b, "f", t.FunctionTy(t.I64(), {t.I64()}));
  b.Ret(b.Add(b.Call(f, {b.Add(f->arg(0), b.I64(1))}), b.I64(1)));
  DefineMain(b);
  b.Ret(b.Call(f, {b.I64(0)}));
  for (core::Protection p : {core::Protection::kNone, core::Protection::kCpi}) {
    core::Config config;
    config.protection = p;
    const RunResult r = RunAllEngines(m, config, core::ProtectionName(p));
    EXPECT_EQ(r.status, RunStatus::kCrash);
    EXPECT_EQ(r.message, "stack overflow: call depth limit");
    EXPECT_EQ(r.counters.calls, 2001u);  // main + 2000 frames of f
    // main's call, then an add and a call in each frame of f; the last
    // call is the one that traps.
    EXPECT_EQ(r.counters.instructions, 1u + 2000u * 2u);
  }
}

// Registers of a frame are whatever its own arguments and instructions put
// there: the frame storage is reused as calls go deep, come back and go deep
// again through callees with far more registers than their callers.
TEST(FrameStorageTest, DeepShallowDeepThroughWideCallees) {
  ir::Module m("wide");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  // wide(a, b, c): a 48-step chain over its arguments.
  ir::Function* wide = Define(b, "wide", t.FunctionTy(t.I64(), {t.I64(), t.I64(), t.I64()}));
  ir::Value* acc = wide->arg(0);
  for (int i = 0; i < 48; ++i) {
    acc = b.Add(b.Mul(acc, b.I64(3)), i % 2 == 0 ? wide->arg(1) : wide->arg(2));
  }
  b.Ret(acc);
  // deep(n) = n == 0 ? wide(n + 7, 1, 2) : deep(n - 1) + n
  ir::Function* deep = Define(b, "deep", t.FunctionTy(t.I64(), {t.I64()}));
  ir::BasicBlock* leaf = deep->CreateBlock("leaf");
  ir::BasicBlock* rec = deep->CreateBlock("rec");
  b.CondBr(b.ICmpEq(deep->arg(0), b.I64(0)), leaf, rec);
  b.SetInsertPoint(leaf);
  b.Ret(b.Call(wide, {b.Add(deep->arg(0), b.I64(7)), b.I64(1), b.I64(2)}));
  b.SetInsertPoint(rec);
  b.Ret(b.Add(b.Call(deep, {b.Sub(deep->arg(0), b.I64(1))}), deep->arg(0)));
  DefineMain(b);
  const std::vector<uint64_t> depths = {300, 1, 0, 1500, 2, 40};
  for (uint64_t n : depths) {
    b.Output(b.Call(deep, {b.I64(n)}));
    b.Output(b.Call(wide, {b.I64(n), b.I64(5), b.I64(9)}));
  }
  b.Ret(b.I64(0));

  auto wide_ref = [](uint64_t a, uint64_t x, uint64_t y) {
    for (int i = 0; i < 48; ++i) {
      a = a * 3 + (i % 2 == 0 ? x : y);
    }
    return a;
  };
  std::vector<uint64_t> want;
  for (uint64_t n : depths) {
    want.push_back(wide_ref(7, 1, 2) + n * (n + 1) / 2);
    want.push_back(wide_ref(n, 5, 9));
  }
  for (core::Protection p : {core::Protection::kNone, core::Protection::kCpi}) {
    core::Config config;
    config.protection = p;
    const RunResult r = RunAllEngines(m, config, core::ProtectionName(p));
    EXPECT_EQ(r.status, RunStatus::kOk) << r.message;
    EXPECT_EQ(r.output, want);
  }
}

// A stack overflow in victim() overwrites its saved return slot with the
// address of target(a, b). The return transfers there with zeroed
// arguments (a frame pushed with no continuation); target's own return then
// crashes.
TEST(FrameStorageTest, CorruptedReturnPushesHijackFrame) {
  ir::Module m("hijack");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  ir::Function* target = Define(b, "target", t.FunctionTy(t.I64(), {t.I64(), t.I64()}));
  b.Output(b.Add(b.Add(target->arg(0), target->arg(1)), b.I64(777)));
  b.Ret(b.I64(0));
  ir::Function* victim = Define(b, "victim", t.FunctionTy(t.VoidTy(), {}));
  // The array sits right below the return slot: element 2 is the slot.
  ir::Value* arr = b.Alloca(t.ArrayOf(t.I64(), 2), "arr");
  b.Store(b.PtrToInt(b.FuncAddr(target)), b.IndexAddr(arr, b.I64(2)));
  b.Ret();
  DefineMain(b);
  b.Call(victim, {});
  b.Output(b.I64(1));
  b.Ret(b.I64(0));
  const RunResult r = RunAllEngines(m, core::Config{}, "hijack");
  EXPECT_EQ(r.status, RunStatus::kCrash);
  EXPECT_EQ(r.message, "return from a hijacked context");
  EXPECT_EQ(r.output, (std::vector<uint64_t>{777}));
  EXPECT_EQ(r.counters.hijack_transfers, 1u);
  EXPECT_EQ(r.counters.calls, 3u);  // main, victim, the hijacked target
}

// Threads keep their frames apart: workers recurse while the main thread
// recurses too, interleaved every few instructions, and each thread's
// results come out right at every quantum and on every engine.
TEST(FrameStorageTest, SpawnedThreadsRecurseInTheirOwnFrames) {
  ir::Module m("threads");
  auto& t = m.types();
  ir::IRBuilder b(&m);
  // sum(n) = n == 0 ? 0 : sum(n - 1) + n * k, with k the second argument.
  ir::Function* sum = Define(b, "sum", t.FunctionTy(t.I64(), {t.I64(), t.I64()}));
  ir::BasicBlock* base = sum->CreateBlock("base");
  ir::BasicBlock* rec = sum->CreateBlock("rec");
  b.CondBr(b.ICmpEq(sum->arg(0), b.I64(0)), base, rec);
  b.SetInsertPoint(base);
  b.Ret(b.I64(0));
  b.SetInsertPoint(rec);
  ir::Value* inner = b.Call(sum, {b.Sub(sum->arg(0), b.I64(1)), sum->arg(1)});
  b.Ret(b.Add(inner, b.Mul(sum->arg(0), sum->arg(1))));
  ir::Function* worker = Define(b, "worker", t.FunctionTy(t.I64(), {t.I64()}));
  b.Ret(b.Call(sum, {worker->arg(0), worker->arg(0)}));
  DefineMain(b);
  const std::vector<uint64_t> ns = {40, 170, 95};
  std::vector<ir::Value*> tids;
  for (uint64_t n : ns) {
    tids.push_back(b.Spawn(worker, {b.I64(n)}));
  }
  b.Output(b.Call(sum, {b.I64(120), b.I64(1)}));
  for (ir::Value* tid : tids) {
    b.Output(b.Join(tid));
  }
  b.Ret(b.I64(0));

  std::vector<uint64_t> want = {120 * 121 / 2};
  for (uint64_t n : ns) {
    want.push_back(n * n * (n + 1) / 2);
  }
  RunResult first;
  for (uint64_t quantum : {1, 3, 64}) {
    core::Config config;
    config.protection = core::Protection::kCpi;
    config.thread_quantum = quantum;
    const std::string label = "quantum " + std::to_string(quantum);
    const RunResult r = RunAllEngines(m, config, label);
    EXPECT_EQ(r.status, RunStatus::kOk) << r.message;
    EXPECT_EQ(r.output, want) << label;
    EXPECT_EQ(r.counters.thread_spawns, 3u) << label;
    if (quantum == 1) {
      first = r;
    } else {
      ExpectIdentical(r, first, label + " vs quantum 1");
    }
  }
}

}  // namespace
}  // namespace cpi::vm
