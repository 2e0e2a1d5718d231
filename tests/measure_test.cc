// Tests for the parallel measurement harness: the work-stealing thread pool
// (src/support/pool.h) and the content-addressed RunCells with its
// Measurement reduction (src/workloads/measure.h).
//
// The load-bearing property is the serial-vs-parallel differential: every
// Measurement field must be bit-identical between --jobs 1 (strictly
// serial, no worker threads) and --jobs N. The bench suite
// relies on it — parallelism may only change wall-clock, never a number.
// Content addressing must be invisible the same way: a repeated cell gets
// exactly the result it would get alone, and cells differing in any one
// Config field stay apart.
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/attacks/ripe.h"
#include "src/support/pool.h"
#include "src/workloads/measure.h"

namespace {

using cpi::ThreadPool;
using cpi::core::Config;
using cpi::core::Protection;
using cpi::workloads::CellResult;
using cpi::workloads::MeasureCell;
using cpi::workloads::Measurement;
using cpi::workloads::Workload;

// ---------------------------------------------------------------------------
// Thread pool.

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ResultsLandInTheirOwnSlots) {
  ThreadPool pool(4);
  std::vector<uint64_t> out(10000, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i + 1; });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i + 1);
  }
}

TEST(ThreadPoolTest, SingleJobPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;  // no synchronisation: jobs == 1 must be serial
  pool.ParallelFor(100, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPoolTest, ExceptionFromLowestIndexPropagates) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    pool.ParallelFor(256, [&](size_t i) {
      executed.fetch_add(1);
      if (i == 11 || i == 37) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    // Both indices throw on every run; the harness deterministically
    // rethrows the lowest one after all indices finished.
    EXPECT_STREQ(e.what(), "boom 11");
  }
  EXPECT_EQ(executed.load(), 256);
}

TEST(ThreadPoolTest, SerialPoolKeepsTheSameExceptionContract) {
  // jobs == 1 must behave like jobs == N: every index still runs, and the
  // lowest-index exception is rethrown at the end.
  ThreadPool pool(1);
  int executed = 0;
  try {
    pool.ParallelFor(64, [&](size_t i) {
      ++executed;
      if (i == 7 || i == 23) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");
  }
  EXPECT_EQ(executed, 64);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(3);
  std::vector<uint64_t> sums(8, 0);
  pool.ParallelFor(sums.size(), [&](size_t i) {
    std::vector<uint64_t> inner(32, 0);
    pool.ParallelFor(inner.size(), [&](size_t j) { inner[j] = 100 * i + j; });
    uint64_t sum = 0;
    for (uint64_t v : inner) {
      sum += v;
    }
    sums[i] = sum;
  });
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], 100 * i * 32 + 31 * 32 / 2);
  }
}

TEST(ThreadPoolTest, SubmitAndAwaitFromInsideTask) {
  ThreadPool pool(2);
  auto outer = pool.SubmitTask([&pool] {
    auto inner = pool.SubmitTask([] { return 21; });
    return pool.Await(std::move(inner)) * 2;
  });
  EXPECT_EQ(pool.Await(std::move(outer)), 42);
}

TEST(ThreadPoolTest, SubmitTaskPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.SubmitTask([]() -> int { throw std::logic_error("task failed"); });
  EXPECT_THROW(pool.Await(std::move(future)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Measurement differential.

std::vector<Workload> Subset() {
  // Small but diverse: C and C++ profiles, function-pointer dispatch,
  // pointer chasing and vtable-heavy code — enough to exercise every
  // overhead scheme's instrumentation.
  std::vector<Workload> subset;
  for (const char* name : {"400.perlbench", "429.mcf", "447.dealII", "471.omnetpp"}) {
    const Workload* w = cpi::workloads::FindWorkload(name);
    EXPECT_NE(w, nullptr) << name;
    if (w != nullptr) {
      subset.push_back(*w);
    }
  }
  return subset;
}

void ExpectIdentical(const std::vector<Measurement>& a, const std::vector<Measurement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].workload);
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].language, b[i].language);
    EXPECT_EQ(a[i].vanilla_cycles, b[i].vanilla_cycles);
    EXPECT_EQ(a[i].vanilla_memory_bytes, b[i].vanilla_memory_bytes);
    // Bit-identical, not approximately equal: the cells are deterministic
    // and the reduction order is fixed, so the doubles must match exactly.
    EXPECT_EQ(a[i].overhead_pct, b[i].overhead_pct);
    EXPECT_EQ(a[i].memory_bytes, b[i].memory_bytes);
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].stats.total_functions, b[i].stats.total_functions);
    EXPECT_EQ(a[i].stats.unsafe_frame_functions, b[i].stats.unsafe_frame_functions);
    EXPECT_EQ(a[i].stats.total_mem_ops, b[i].stats.total_mem_ops);
    EXPECT_EQ(a[i].stats.instrumented_cpi, b[i].stats.instrumented_cpi);
    EXPECT_EQ(a[i].stats.instrumented_cps, b[i].stats.instrumented_cps);
  }
}

// Vanilla plus one cell per protection, at the default Config, for every
// workload: one RunCells pass, reduced per workload.
std::vector<Measurement> Measure(const std::vector<Workload>& workloads,
                                 const std::vector<const cpi::ir::Module*>& built,
                                 const std::vector<Protection>& protections, int jobs) {
  std::vector<MeasureCell> cells;
  std::vector<cpi::workloads::MeasurementCells> plan;
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    plan.push_back(cpi::workloads::AddMeasurementCells(cells, wi, protections));
  }
  const auto results = cpi::workloads::RunCells(workloads, built, cells, jobs);
  std::vector<Measurement> out;
  for (const auto& at : plan) {
    out.push_back(cpi::workloads::ReduceMeasurement(workloads[at.workload], at, results));
  }
  return out;
}

std::vector<Measurement> MeasureFresh(const std::vector<Workload>& workloads,
                                      const std::vector<Protection>& protections, int jobs) {
  const auto built = cpi::workloads::BuildWorkloads(workloads, /*scale=*/1, jobs);
  return Measure(workloads, cpi::workloads::ModuleViews(built), protections, jobs);
}

TEST(MeasureDifferentialTest, SerialAndParallelMeasurementsAreBitIdentical) {
  std::vector<Workload> subset;
  subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto protections = cpi::workloads::OverheadProtections();
  const auto serial = MeasureFresh(subset, protections, /*jobs=*/1);
  const auto parallel = MeasureFresh(subset, protections, /*jobs=*/4);
  ExpectIdentical(serial, parallel);
}

TEST(MeasureDifferentialTest, SharedPrebuiltModulesMatchFreshBuilds) {
  // The suite driver builds each workload once and feeds the same modules
  // to several tables; results must match per-table fresh builds exactly.
  std::vector<Workload> subset;
  subset = Subset();
  ASSERT_FALSE(subset.empty());
  const auto protections = cpi::workloads::OverheadProtections();
  const auto built = cpi::workloads::BuildWorkloads(subset, /*scale=*/1, /*jobs=*/4);
  const auto shared =
      Measure(subset, cpi::workloads::ModuleViews(built), protections, /*jobs=*/4);
  const auto fresh = MeasureFresh(subset, protections, /*jobs=*/1);
  ExpectIdentical(shared, fresh);
}

TEST(MeasureDifferentialTest, FailingColumnsAreReportedNotFatal) {
  // Table 3 depends on this: a SoftBound run that does not complete leaves a
  // status entry and no overhead entry instead of aborting the whole sweep.
  std::vector<Workload> subset;
  subset = Subset();
  ASSERT_FALSE(subset.empty());
  const std::vector<Protection> protections = {Protection::kSoftBound};
  const auto ms = MeasureFresh(subset, protections, /*jobs=*/2);
  for (const auto& m : ms) {
    ASSERT_EQ(m.status.count(Protection::kSoftBound), 1u);
    const bool ok = m.status.at(Protection::kSoftBound) == cpi::vm::RunStatus::kOk;
    EXPECT_EQ(m.overhead_pct.count(Protection::kSoftBound), ok ? 1u : 0u);
    EXPECT_EQ(m.memory_bytes.count(Protection::kSoftBound), ok ? 1u : 0u);
  }
}

// ---------------------------------------------------------------------------
// Content addressing.

void ExpectSameResult(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.safe_store_bytes, b.safe_store_bytes);
  EXPECT_EQ(a.safe_store_ops, b.safe_store_ops);
  EXPECT_EQ(a.store_contended_ops, b.store_contended_ops);
  EXPECT_EQ(a.shard_migrations, b.shard_migrations);
  EXPECT_EQ(a.stats.total_functions, b.stats.total_functions);
  EXPECT_EQ(a.stats.unsafe_frame_functions, b.stats.unsafe_frame_functions);
  EXPECT_EQ(a.stats.total_mem_ops, b.stats.total_mem_ops);
  EXPECT_EQ(a.stats.instrumented_cpi, b.stats.instrumented_cpi);
  EXPECT_EQ(a.stats.instrumented_cps, b.stats.instrumented_cps);
}

// One SPEC model and one threaded server (so shards, migrate and the
// scheduler matter), built once.
struct CellFixture {
  std::vector<Workload> workloads = {*cpi::workloads::FindWorkload("403.gcc"),
                                     cpi::workloads::ChurnServer().front()};
  std::vector<std::unique_ptr<cpi::ir::Module>> built =
      cpi::workloads::BuildWorkloads(workloads, /*scale=*/1);
  std::vector<const cpi::ir::Module*> views = cpi::workloads::ModuleViews(built);

  CellResult Alone(const MeasureCell& cell) const {
    return cpi::workloads::RunCell(*views[cell.workload], workloads[cell.workload], cell);
  }
};

MeasureCell Cell(size_t workload, Protection p) {
  MeasureCell cell;
  cell.workload = workload;
  cell.config.protection = p;
  return cell;
}

// A list that names several cells more than once, interleaved.
std::vector<MeasureCell> CellsWithRepeats() {
  std::vector<MeasureCell> cells;
  for (int round = 0; round < 3; ++round) {
    for (size_t wi : {0u, 1u}) {
      for (Protection p : {Protection::kNone, Protection::kCpi, Protection::kSafeStack}) {
        if (round == 0 || p != Protection::kSafeStack) {
          cells.push_back(Cell(wi, p));
        }
      }
    }
  }
  return cells;
}

TEST(MeasureDifferentialTest, RepeatedCellsGetTheLoneCellResult) {
  const CellFixture f;
  const auto cells = CellsWithRepeats();
  ASSERT_EQ(cpi::workloads::UniqueCells(cells), 6u);
  ASSERT_LT(cpi::workloads::UniqueCells(cells), cells.size());
  const auto results = cpi::workloads::RunCells(f.workloads, f.views, cells, /*jobs=*/2);
  ASSERT_EQ(results.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    ExpectSameResult(results[i], f.Alone(cells[i]));
  }
}

TEST(MeasureDifferentialTest, CellsDifferingInOneFieldStayApart) {
  const CellFixture f;
  // Two CPI base cells: the SPEC model, and the threaded server at 4 shards
  // (so migration has owners to move). Each variant changes exactly one
  // field of one base, chosen so the change moves a counter: merging it
  // into its base would show. Two variants are their own cells but leave
  // every counter as it was: `temporal` only adds liveness checks, which
  // cost nothing on a clean run, and `scheme` selects the same built-in CPI
  // by pointer instead of by id.
  const MeasureCell spec = Cell(0, Protection::kCpi);
  MeasureCell server = Cell(1, Protection::kCpi);
  server.config.shards = 4;
  struct Variant {
    const char* field;
    MeasureCell base;
    void (*change)(Config&);
  };
  const Variant variants[] = {
      {"store", server, [](Config& c) { c.store = cpi::runtime::StoreKind::kHash; }},
      {"isolation", server, [](Config& c) { c.isolation = cpi::runtime::IsolationKind::kSfi; }},
      {"shards", server, [](Config& c) { c.shards = 16; }},
      {"migrate", server, [](Config& c) { c.migrate = true; }},
      {"mpx_assist", server, [](Config& c) { c.mpx_assist = true; }},
      {"opt_level", spec, [](Config& c) { c.opt_level = 1; }},
      {"temporal", spec, [](Config& c) { c.temporal = true; }},
      {"scheme", spec,
       [](Config& c) { c.scheme = &cpi::core::SchemeRegistry::Get(Protection::kCpi); }},
  };
  std::vector<MeasureCell> cells = {spec, server};
  for (const Variant& v : variants) {
    MeasureCell cell = v.base;
    v.change(cell.config);
    cells.push_back(cell);
  }
  EXPECT_EQ(cpi::workloads::UniqueCells(cells), cells.size());
  const auto results = cpi::workloads::RunCells(f.workloads, f.views, cells, /*jobs=*/2);
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(i < 2 ? "base" : variants[i - 2].field);
    ExpectSameResult(results[i], f.Alone(cells[i]));
  }
  for (size_t i = 2; i < cells.size(); ++i) {
    SCOPED_TRACE(variants[i - 2].field);
    const CellResult& base = results[cells[i].workload == 0 ? 0 : 1];
    const bool moved = results[i].cycles != base.cycles ||
                       results[i].store_contended_ops != base.store_contended_ops ||
                       results[i].shard_migrations != base.shard_migrations;
    const std::string field = variants[i - 2].field;
    EXPECT_EQ(moved, field != "temporal" && field != "scheme");
  }
}

TEST(MeasureDifferentialTest, SerialAndParallelAgreeWithRepeats) {
  const CellFixture f;
  const auto cells = CellsWithRepeats();
  const auto serial = cpi::workloads::RunCells(f.workloads, f.views, cells, /*jobs=*/1);
  const auto parallel = cpi::workloads::RunCells(f.workloads, f.views, cells, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    ExpectSameResult(serial[i], parallel[i]);
  }
}

TEST(AttackMatrixDifferentialTest, SerialAndParallelMatrixAgree) {
  cpi::core::Config config;
  config.protection = Protection::kCpi;
  const auto serial = cpi::attacks::RunAttackMatrix(config);
  const auto parallel = cpi::attacks::RunAttackMatrix(config, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].spec.Name());
    EXPECT_EQ(serial[i].spec.Name(), parallel[i].spec.Name());
    EXPECT_EQ(serial[i].outcome, parallel[i].outcome);
    EXPECT_EQ(serial[i].status, parallel[i].status);
    EXPECT_EQ(serial[i].violation, parallel[i].violation);
    EXPECT_EQ(serial[i].message, parallel[i].message);
  }
}

}  // namespace
