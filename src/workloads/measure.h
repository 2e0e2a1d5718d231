// Measurement harness behind the bench suite: runs workloads under
// several protection configurations and reports relative overheads (in
// simulated cycles) plus the static compilation statistics of Table 2.
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

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/workloads/workloads.h"

namespace cpi::workloads {

struct Measurement {
  std::string workload;
  std::string language;
  uint64_t vanilla_cycles = 0;
  // protection -> overhead percent vs the vanilla run. Entries exist only
  // for protections whose run completed (see `status`).
  std::map<core::Protection, double> overhead_pct;
  // protection -> total memory footprint in bytes (for §5.2 memory numbers).
  std::map<core::Protection, uint64_t> memory_bytes;
  // protection -> run status. SoftBound legitimately fails some workloads
  // (unsafe pointer idioms produce false violations, like the paper
  // reports); such columns are recorded here instead of aborting the sweep.
  std::map<core::Protection, vm::RunStatus> status;
  uint64_t vanilla_memory_bytes = 0;
  // Static statistics (FNUStack / MOCPS / MOCPI).
  analysis::ModuleStats stats;

  // Overhead for `p`, CPI_CHECKed to have been measured and completed — for
  // drivers whose columns must always succeed (Table 1 / Fig. 4 / Table 4).
  // Drivers that tolerate failing columns (Table 3 / Fig. 5) consult
  // `status` instead.
  double OverheadPct(core::Protection p) const;
};

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

// Frontend-builds every workload once, in parallel across `jobs` threads
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
// a cell as often as their tables need it.
std::vector<CellResult> RunCells(const std::vector<Workload>& workloads,
                                 const std::vector<const ir::Module*>& built,
                                 const std::vector<MeasureCell>& cells, int jobs = 1);

// How many cells of `cells` RunCells actually runs.
size_t UniqueCells(const std::vector<MeasureCell>& cells);

// Positions, in a RunCells cell list, of the cells behind one Measurement:
// the workload's vanilla baseline and one cell per protection column.
struct MeasurementCells {
  size_t workload = 0;
  size_t vanilla = 0;
  std::vector<std::pair<core::Protection, size_t>> columns;
};

// Appends `workload`'s vanilla cell and one cell per protection, each under
// `base` with only the protection changed, to `cells`.
MeasurementCells AddMeasurementCells(std::vector<MeasureCell>& cells, size_t workload,
                                     const std::vector<core::Protection>& protections,
                                     const core::Config& base = {});

// Reduces those cells' results (indexed like the RunCells cell list) to a
// Measurement. The vanilla run must complete; failing columns are recorded
// in `status` instead of aborting.
Measurement ReduceMeasurement(const Workload& workload, const MeasurementCells& at,
                              const std::vector<CellResult>& results);

// Column of overhead values for one protection, in workload order.
std::vector<double> OverheadColumn(const std::vector<Measurement>& measurements,
                                   core::Protection protection);

// Same, restricted to one language ("C" / "C++").
std::vector<double> OverheadColumnForLanguage(const std::vector<Measurement>& measurements,
                                              core::Protection protection,
                                              const std::string& language);

// The registry schemes that report an overhead column (Table 1 / Fig. 4 /
// Table 4 / §5.2 shape), as a protection list for AddMeasurementCells.
std::vector<core::Protection> OverheadProtections();

}  // namespace cpi::workloads

#endif  // CPI_SRC_WORKLOADS_MEASURE_H_
