// Measurement harness behind the bench suite: runs workloads under
// several protection configurations and returns each run's simulated
// cycles, memory footprint and safe-store counters plus the static
// compilation statistics of Table 2; bench/suite reduces them to tables.
//
// The harness is organised around *cells*. A MeasureCell is one
// (workload × configuration) execution: clone the workload's pre-built
// module, instrument the clone under the cell's Config, run it. Cells are
// independent by construction (ir::CloneModule gives every cell its own
// module and VM), so RunCells executes them across a work-stealing thread
// pool (src/support/pool.h) and writes each result into its own slot — the
// reductions that follow read results by cell position, which makes every
// derived number bit-identical at any `jobs` value. That invariant is
// enforced by the serial-vs-parallel differential test in
// tests/measure_test.cc.
//
// RunCells is content-addressed: a (workload, Config) pair requested twice
// runs once. The suite therefore plans every table as a list of the cells
// it needs, concatenates the lists, and runs them in one RunCells pass; a
// cell shared by several tables (Table 1's CPI column is also the
// isolation ablation's "segment" column) is simply requested by each.
#ifndef CPI_SRC_WORKLOADS_MEASURE_H_
#define CPI_SRC_WORKLOADS_MEASURE_H_

#include <memory>
#include <vector>

#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/workloads/workloads.h"

namespace cpi::workloads {

// One (workload × configuration) execution unit of the measurement layer.
struct MeasureCell {
  size_t workload = 0;  // index into the parallel workload/built vectors
  core::Config config;  // full configuration this cell runs under
};

// Raw observations from one cell; the harnesses reduce these in cell order.
struct CellResult {
  vm::RunStatus status = vm::RunStatus::kOk;
  uint64_t cycles = 0;
  uint64_t memory_bytes = 0;      // total footprint (MemoryFootprint::TotalBytes)
  uint64_t safe_store_bytes = 0;  // resident safe pointer store
  uint64_t safe_store_ops = 0;    // safe-pointer-store operations executed
  // Store ops that paid the shard-crossing sync premium (the shard
  // ablation's contention metric; == safe_store_ops after the first spawn
  // at the default shard count of 1).
  uint64_t store_contended_ops = 0;
  // Shards whose owner changed at an epoch publish (Config::migrate; 0 with
  // migration off).
  uint64_t shard_migrations = 0;
  analysis::ModuleStats stats;    // static stats under the cell's config
};

// Builds every workload once, in parallel across `jobs` threads
// (jobs <= 0 selects hardware concurrency; 1 is strictly serial).
std::vector<std::unique_ptr<ir::Module>> BuildWorkloads(
    const std::vector<Workload>& workloads, int scale, int jobs = 1);

// Non-owning view of a BuildWorkloads result, as RunCells consumes it.
std::vector<const ir::Module*> ModuleViews(
    const std::vector<std::unique_ptr<ir::Module>>& built);

// Runs one cell against the workload's pre-built base module.
CellResult RunCell(const ir::Module& built, const Workload& workload,
                   const MeasureCell& cell);

// Executes `cells` across `jobs` threads. Results come back indexed like
// `cells`, regardless of the execution interleaving. Cells are addressed by
// content: within one call, cells with equal (workload, core::ConfigFields)
// run once and every position gets that one result, so callers may request
// a cell as often as their tables need it. Static stats (CellResult::stats)
// are computed once per (workload, char_star_heuristic, cast_dataflow) on
// the built module and handed to every such cell's compile.
std::vector<CellResult> RunCells(const std::vector<Workload>& workloads,
                                 const std::vector<const ir::Module*>& built,
                                 const std::vector<MeasureCell>& cells, int jobs = 1);

// How many cells of `cells` RunCells actually runs.
size_t UniqueCells(const std::vector<MeasureCell>& cells);

// The registry schemes that report an overhead column (Table 1 / Fig. 4 /
// Table 4 / §5.2 shape), as a protection list.
std::vector<core::Protection> OverheadProtections();

}  // namespace cpi::workloads

#endif  // CPI_SRC_WORKLOADS_MEASURE_H_
