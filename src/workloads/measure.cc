#include "src/workloads/measure.h"

#include <cstdio>
#include <set>
#include <tuple>

#include "src/ir/clone.h"
#include "src/support/check.h"
#include "src/support/pool.h"
#include "src/support/stats.h"

namespace cpi::workloads {

double Measurement::OverheadPct(core::Protection p) const {
  const auto it = overhead_pct.find(p);
  if (it == overhead_pct.end()) {
    const auto st = status.find(p);
    std::fprintf(stderr, "workload %s: no overhead for protection %s (status: %s)\n",
                 workload.c_str(), core::ProtectionName(p),
                 st == status.end() ? "not measured" : vm::RunStatusName(st->second));
    CPI_CHECK(it != overhead_pct.end());
  }
  return it->second;
}

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

CellResult RunCell(const ir::Module& built, const Workload& workload,
                   const MeasureCell& cell) {
  auto module = ir::CloneModule(built);
  core::Compiler compiler(cell.config);
  const core::CompileOutput co = compiler.Instrument(*module);
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

namespace {

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

std::vector<CellResult> RunCells(const std::vector<Workload>& workloads,
                                 const std::vector<const ir::Module*>& built,
                                 const std::vector<MeasureCell>& cells, int jobs) {
  CPI_CHECK(workloads.size() == built.size());
  const std::vector<size_t> first = FirstOccurrences(cells);
  std::vector<CellResult> results(cells.size());
  ThreadPool pool(jobs);
  pool.ParallelFor(cells.size(), [&](size_t i) {
    if (first[i] != i) {
      return;  // a repeat: copied from its first occurrence below
    }
    const MeasureCell& cell = cells[i];
    CPI_CHECK(cell.workload < built.size());
    results[i] = RunCell(*built[cell.workload], workloads[cell.workload], cell);
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

MeasurementCells AddMeasurementCells(std::vector<MeasureCell>& cells, size_t workload,
                                     const std::vector<core::Protection>& protections,
                                     const core::Config& base) {
  MeasurementCells at;
  at.workload = workload;
  MeasureCell cell;
  cell.workload = workload;
  cell.config = base;
  cell.config.protection = core::Protection::kNone;
  at.vanilla = cells.size();
  cells.push_back(cell);
  for (core::Protection p : protections) {
    cell.config.protection = p;
    at.columns.emplace_back(p, cells.size());
    cells.push_back(cell);
  }
  return at;
}

Measurement ReduceMeasurement(const Workload& workload, const MeasurementCells& at,
                              const std::vector<CellResult>& results) {
  const CellResult& vanilla = results[at.vanilla];
  CPI_CHECK(vanilla.status == vm::RunStatus::kOk);
  Measurement m;
  m.workload = workload.name;
  m.language = workload.language;
  m.stats = vanilla.stats;
  m.vanilla_cycles = vanilla.cycles;
  m.vanilla_memory_bytes = vanilla.memory_bytes;
  for (const auto& [p, i] : at.columns) {
    const CellResult& r = results[i];
    m.status[p] = r.status;
    if (r.status != vm::RunStatus::kOk) {
      continue;
    }
    m.overhead_pct[p] = OverheadPercent(static_cast<double>(r.cycles),
                                        static_cast<double>(m.vanilla_cycles));
    m.memory_bytes[p] = r.memory_bytes;
  }
  return m;
}

std::vector<double> OverheadColumn(const std::vector<Measurement>& measurements,
                                   core::Protection protection) {
  std::vector<double> column;
  for (const auto& m : measurements) {
    column.push_back(m.OverheadPct(protection));
  }
  return column;
}

std::vector<core::Protection> OverheadProtections() {
  std::vector<core::Protection> out;
  for (const core::ProtectionScheme* s : core::SchemeRegistry::OverheadColumns()) {
    out.push_back(s->id());
  }
  return out;
}

std::vector<double> OverheadColumnForLanguage(const std::vector<Measurement>& measurements,
                                              core::Protection protection,
                                              const std::string& language) {
  std::vector<double> column;
  for (const auto& m : measurements) {
    if (m.language == language) {
      column.push_back(m.OverheadPct(protection));
    }
  }
  return column;
}

}  // namespace cpi::workloads
