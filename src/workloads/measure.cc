#include "src/workloads/measure.h"

#include <map>
#include <set>
#include <tuple>

#include "src/ir/clone.h"
#include "src/support/check.h"
#include "src/support/pool.h"

namespace cpi::workloads {

std::vector<std::unique_ptr<ir::Module>> BuildWorkloads(
    const std::vector<Workload>& workloads, int scale, int jobs) {
  std::vector<std::unique_ptr<ir::Module>> built(workloads.size());
  ThreadPool pool(jobs);
  pool.ParallelFor(workloads.size(),
                   [&](size_t i) { built[i] = workloads[i].build(scale); });
  return built;
}

std::vector<const ir::Module*> ModuleViews(
    const std::vector<std::unique_ptr<ir::Module>>& built) {
  std::vector<const ir::Module*> views;
  views.reserve(built.size());
  for (const auto& m : built) {
    views.push_back(m.get());
  }
  return views;
}

namespace {

CellResult RunCellWithStats(const ir::Module& built, const Workload& workload,
                            const MeasureCell& cell, const analysis::ModuleStats& stats) {
  auto module = ir::CloneModule(built);
  core::Compiler compiler(cell.config);
  const core::CompileOutput co = compiler.Instrument(*module, stats);
  const vm::RunResult r = core::Run(*module, cell.config, workload.input);
  CellResult out;
  out.status = r.status;
  out.cycles = r.counters.cycles;
  out.memory_bytes = r.memory.TotalBytes();
  out.safe_store_bytes = r.memory.safe_store_bytes;
  out.safe_store_ops = r.counters.safe_store_ops;
  out.store_contended_ops = r.counters.store_contended_ops;
  out.shard_migrations = r.counters.shard_migrations;
  out.stats = co.stats;
  return out;
}

// For each cell, the position of the first cell with the same content.
std::vector<size_t> FirstOccurrences(const std::vector<MeasureCell>& cells) {
  const auto less = [&cells](size_t a, size_t b) {
    return std::tuple_cat(std::tie(cells[a].workload), core::ConfigFields(cells[a].config)) <
           std::tuple_cat(std::tie(cells[b].workload), core::ConfigFields(cells[b].config));
  };
  std::set<size_t, decltype(less)> seen(less);
  std::vector<size_t> first(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    first[i] = *seen.insert(i).first;
  }
  return first;
}

}  // namespace

CellResult RunCell(const ir::Module& built, const Workload& workload,
                   const MeasureCell& cell) {
  return RunCellWithStats(built, workload, cell, core::StaticStats(built, cell.config));
}

std::vector<CellResult> RunCells(const std::vector<Workload>& workloads,
                                 const std::vector<const ir::Module*>& built,
                                 const std::vector<MeasureCell>& cells, int jobs) {
  CPI_CHECK(workloads.size() == built.size());
  const std::vector<size_t> first = FirstOccurrences(cells);

  // Static stats depend only on the built program and the classifier
  // switches, not on the scheme or the run: compute them once per distinct
  // (workload, char_star_heuristic, cast_dataflow), on the built module that
  // every cell's clone reproduces.
  using StatsKey = std::tuple<size_t, bool, bool>;
  std::map<StatsKey, size_t> stats_keys;
  std::vector<size_t> stats_cell;             // a cell of each key
  std::vector<size_t> stats_of(cells.size());  // cell -> key index
  for (size_t i = 0; i < cells.size(); ++i) {
    if (first[i] != i) {
      continue;
    }
    const MeasureCell& cell = cells[i];
    CPI_CHECK(cell.workload < built.size());
    const StatsKey key{cell.workload, cell.config.char_star_heuristic,
                       cell.config.cast_dataflow};
    const auto [it, inserted] = stats_keys.emplace(key, stats_cell.size());
    if (inserted) {
      stats_cell.push_back(i);
    }
    stats_of[i] = it->second;
  }
  std::vector<analysis::ModuleStats> stats(stats_cell.size());
  ThreadPool pool(jobs);
  pool.ParallelFor(stats.size(), [&](size_t k) {
    const MeasureCell& cell = cells[stats_cell[k]];
    stats[k] = core::StaticStats(*built[cell.workload], cell.config);
  });

  std::vector<CellResult> results(cells.size());
  pool.ParallelFor(cells.size(), [&](size_t i) {
    if (first[i] != i) {
      return;  // a repeat: copied from its first occurrence below
    }
    const MeasureCell& cell = cells[i];
    results[i] = RunCellWithStats(*built[cell.workload], workloads[cell.workload], cell,
                                  stats[stats_of[i]]);
  });
  for (size_t i = 0; i < cells.size(); ++i) {
    results[i] = results[first[i]];
  }
  return results;
}

size_t UniqueCells(const std::vector<MeasureCell>& cells) {
  const std::vector<size_t> first = FirstOccurrences(cells);
  size_t n = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    n += first[i] == i;
  }
  return n;
}

std::vector<core::Protection> OverheadProtections() {
  std::vector<core::Protection> out;
  for (const core::ProtectionScheme* s : core::SchemeRegistry::OverheadColumns()) {
    out.push_back(s->id());
  }
  return out;
}

}  // namespace cpi::workloads
