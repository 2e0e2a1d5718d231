// The unified bench suite: every paper table/figure in one process.
//
//   suite                 human-readable report, all tables
//   suite --json          one consolidated machine-readable report
//   suite --scale N       workload size multiplier ("small" == 1)
//   suite --jobs N        cell parallelism (default: hardware concurrency)
//   suite --opt N         additionally emit the ablation_opt table (per-
//                         scheme overhead with the post-instrumentation
//                         optimizer off/on) and the optimizer's CPI
//                         instrumentation counts. The standard tables always
//                         run at O0 and stay byte-identical at any --opt.
//   suite --engine E      VM execution tier (fused, decoded, reference)
//
// The paper's tables are views of one set of (workload × configuration)
// runs, and the suite is built that way: every workload set is built once,
// in one BuildWorkloads; every table appends the cells it reads to one plan
// and keeps their positions; one content-addressed RunCells pass runs each
// distinct (workload, Config) once across the --jobs thread pool
// (src/support/pool.h); each table is then reduced from its own positions.
// A cell that several tables read (Table 1's CPI column, the isolation
// ablation's "segment" column, the §5.2 kArray row) is requested by each
// and run once. The RIPE attack matrices run after the cells.
//
// Every table is reduced once, into one report document (bench/report.h);
// --json prints that document as JSON, and the human report prints the same
// document as text tables, ending with the wall-clock split.
//
// Table values are bit-identical at any --jobs value and under any engine
// (the cost model is simulated; the pool and the tier only change
// wall-clock). The document keeps everything that varies between runs
// (wall_ms, the build_ms / cells_ms / attacks_ms split, the cells /
// unique_cells counts, jobs, host concurrency, fusion stats) and the
// diagnostic listings (cfi_hijacks, opt_instrumentation) outside "tables",
// so `jq .tables` output is byte-stable; tests/frozen_tables.py diffs the
// --opt 1 payload against the committed BENCH_pr10.json baseline.
//
// docs/PAPER_MAP.md maps each table emitted here back to the paper.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/flags.h"
#include "bench/report.h"
#include "src/attacks/ripe.h"
#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/ir/clone.h"
#include "src/support/stats.h"
#include "src/vm/decode.h"
#include "src/workloads/measure.h"

namespace {

using cpi::bench::Node;
using cpi::core::Config;
using cpi::core::Protection;
using cpi::core::ProtectionScheme;
using cpi::runtime::StoreKind;
using cpi::workloads::CellResult;
using cpi::workloads::MeasureCell;
using cpi::workloads::Workload;
using AttackResults = std::vector<cpi::attacks::AttackResult>;

class Stopwatch {
 public:
  double Ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

const char* SchemeName(Protection p) { return cpi::core::SchemeRegistry::Get(p).name(); }

// A percent as every table prints it.
Node Pct(double v) { return Node::Number(v); }

// {keys[i]: Pct(values[i])}.
Node PctMap(const std::vector<std::string>& keys, const std::vector<double>& values) {
  Node map = Node::Object();
  for (size_t i = 0; i < keys.size(); ++i) {
    map.Add(keys[i], Pct(values[i]));
  }
  return map;
}

// The mean of each column of `grid` ([row][column]).
std::vector<double> ColumnMeans(const std::vector<std::vector<double>>& grid) {
  std::vector<double> means;
  for (size_t c = 0; c < grid.front().size(); ++c) {
    std::vector<double> column;
    for (const std::vector<double>& row : grid) {
      column.push_back(row[c]);
    }
    means.push_back(cpi::Mean(column));
  }
  return means;
}

// One attack matrix's outcome counts, in AttackOutcome order; with
// `auth_aborts`, also its kPointerAuthFailure verdicts (the aborts the
// ret-chain schemes turn ret-hijacks into).
Node Tally(const AttackResults& results, Node row, bool auth_aborts) {
  int counts[4] = {0, 0, 0, 0};
  int aborts = 0;
  for (const cpi::attacks::AttackResult& r : results) {
    ++counts[static_cast<int>(r.outcome)];
    aborts += r.violation == cpi::runtime::Violation::kPointerAuthFailure;
  }
  row.Add("hijacked", counts[0])
      .Add("prevented", counts[1])
      .Add("crashed", counts[2])
      .Add("no_effect", counts[3]);
  if (auth_aborts) {
    row.Add("auth_aborts", aborts);
  }
  return row;
}

uint64_t EliminatedSafeStoreOps(const cpi::opt::OptReport& report) {
  uint64_t n = 0;
  for (const cpi::opt::PassStats& ps : report.passes) {
    n += ps.eliminated_safe_store_ops;
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const cpi::bench::Flags flags = cpi::bench::Parse(argc, argv);
  const Stopwatch total;
  const std::vector<Protection> overhead_protections = cpi::workloads::OverheadProtections();
  // Table 3 is Table 1 plus the SoftBound column.
  std::vector<Protection> spec_protections = overhead_protections;
  spec_protections.push_back(Protection::kSoftBound);

  // -------------------------------------------------------------------------
  // Every workload set in one list, built once. A set is kept as
  // the positions of its workloads in that list.
  std::vector<Workload> workloads;
  const auto add_set = [&workloads](const std::vector<Workload>& set) {
    std::vector<size_t> at;
    for (const Workload& w : set) {
      at.push_back(workloads.size());
      workloads.push_back(w);
    }
    return at;
  };
  const auto& spec = cpi::workloads::SpecCpu2006();
  const std::vector<size_t> spec_at = add_set(spec);
  const std::vector<size_t> phoronix_at = add_set(cpi::workloads::Phoronix());
  const std::vector<size_t> web_at = add_set(cpi::workloads::WebServer());
  const std::vector<size_t> mt_at = add_set(cpi::workloads::ConcurrentServer());
  const std::vector<size_t> ev_at = add_set(cpi::workloads::EventLoop());
  const std::vector<size_t> churn_only_at = add_set(cpi::workloads::ChurnServer());

  const Stopwatch build_watch;
  const auto built = cpi::workloads::BuildWorkloads(workloads, flags.scale, flags.jobs);
  const auto views = cpi::workloads::ModuleViews(built);
  const double build_ms = build_watch.Ms();

  // -------------------------------------------------------------------------
  // The plan. Every table appends the cells it needs to one list and keeps
  // their positions; RunCells runs each distinct (workload, Config) once,
  // so a table asks for every cell it reads — its own vanilla baselines
  // included — even where another table asks for the same one. Every cell
  // honors --engine; the standard tables stay at O0 regardless of --opt.
  std::vector<MeasureCell> cells;
  const auto cell = [&cells, &flags](size_t workload, Protection protection,
                                     Config config = {}) {
    config.protection = protection;
    config.engine = flags.engine;
    cells.push_back({workload, config});
    return cells.size() - 1;
  };
  // Per workload of `set`: its vanilla cell, then one cell per protection.
  const auto by_scheme = [&cell](const std::vector<size_t>& set,
                                 const std::vector<Protection>& protections) {
    std::vector<std::vector<size_t>> plan;
    for (size_t wi : set) {
      std::vector<size_t> row = {cell(wi, Protection::kNone)};
      for (Protection p : protections) {
        row.push_back(cell(wi, p));
      }
      plan.push_back(std::move(row));
    }
    return plan;
  };

  // Table 1 / Table 2 / Table 3 (SPEC), Fig. 4 (Phoronix), Table 4 (web
  // server) and Table 4 "concurrent" (multi-worker servers on the VM's
  // thread scheduler).
  const auto spec_plan = by_scheme(spec_at, spec_protections);
  const auto phoronix_plan = by_scheme(phoronix_at, overhead_protections);
  const auto web_plan = by_scheme(web_at, overhead_protections);
  const auto mt_plan = by_scheme(mt_at, overhead_protections);

  // Fig. 5: every defense row's average overhead on a four-workload subset.
  const std::vector<std::string> fig5_subset = {"401.bzip2", "447.dealII", "458.sjeng",
                                                "464.h264ref"};
  std::vector<size_t> fig5_at;
  for (size_t k = 0; k < spec.size(); ++k) {
    if (std::count(fig5_subset.begin(), fig5_subset.end(), spec[k].name) > 0) {
      fig5_at.push_back(spec_at[k]);
    }
  }
  const auto defense_rows = cpi::core::SchemeRegistry::DefenseRows();
  std::vector<Protection> defense_protections;
  for (const ProtectionScheme* s : defense_rows) {
    defense_protections.push_back(s->id());
  }
  const auto fig5_plan = by_scheme(fig5_at, defense_protections);

  // §3.2.3 isolation and §4 MPX ablations under CPI, against vanilla.
  // Segment isolation is the default, so the "segment" and "software"
  // columns are Table 1's CPI cells.
  const std::vector<std::string> iso_names = {"segment", "info-hiding", "sfi"};
  const cpi::runtime::IsolationKind iso_kinds[] = {cpi::runtime::IsolationKind::kSegment,
                                                   cpi::runtime::IsolationKind::kInfoHiding,
                                                   cpi::runtime::IsolationKind::kSfi};
  Config mpx_config;
  mpx_config.mpx_assist = true;
  std::vector<size_t> spec_vanilla;
  std::vector<std::vector<size_t>> iso_plan;  // [workload][isolation kind]
  std::vector<std::pair<size_t, size_t>> mpx_plan;  // [workload] {software, mpx}
  for (size_t wi : spec_at) {
    spec_vanilla.push_back(cell(wi, Protection::kNone));
    std::vector<size_t> row;
    for (cpi::runtime::IsolationKind kind : iso_kinds) {
      Config config;
      config.isolation = kind;
      row.push_back(cell(wi, Protection::kCpi, config));
    }
    iso_plan.push_back(std::move(row));
    mpx_plan.push_back(
        {cell(wi, Protection::kCpi), cell(wi, Protection::kCpi, mpx_config)});
  }

  // §5.2 memory sweep: every overhead scheme under each safe-store layout
  // (kArray, the default, repeats Table 1's cells).
  const std::vector<StoreKind> stores = {StoreKind::kHash, StoreKind::kTwoLevel,
                                         StoreKind::kArray};
  std::vector<std::vector<std::vector<size_t>>> mem_plan;  // [store][workload][scheme]
  for (StoreKind store : stores) {
    Config config;
    config.store = store;
    std::vector<std::vector<size_t>> per_store;
    for (size_t wi : spec_at) {
      std::vector<size_t> row;
      for (Protection p : overhead_protections) {
        row.push_back(cell(wi, p, config));
      }
      per_store.push_back(std::move(row));
    }
    mem_plan.push_back(std::move(per_store));
  }

  // ablation_shards: the safe-region shard sweep over the event-loop and
  // concurrent servers. S=1 is the historical flat contention model; the
  // reduction cross-checks that sharding only re-prices accesses
  // (identical safe-store op counts at every shard count).
  // ablation_churn: static vs epoch-versioned (Config::migrate) ownership
  // over the churn server — which retires and respawns its worker pool, so
  // connection cells outlive the generation that allocated them — plus the
  // same servers, to show migration never charges more than the static
  // table. Each plan row is {vanilla, CPI cells...}.
  const std::vector<uint32_t> shard_counts = {1, 2, 4, 8, 16, 64};
  std::vector<std::string> shard_names;
  for (uint32_t shards : shard_counts) {
    shard_names.push_back(std::to_string(shards));
  }
  std::vector<size_t> shard_set = ev_at;
  shard_set.insert(shard_set.end(), mt_at.begin(), mt_at.end());
  std::vector<size_t> churn_set = churn_only_at;
  churn_set.insert(churn_set.end(), shard_set.begin(), shard_set.end());
  const auto sharded = [&cell](size_t wi, uint32_t shards, bool migrate) {
    Config config;
    config.shards = shards;
    config.migrate = migrate;
    return cell(wi, Protection::kCpi, config);
  };
  std::vector<std::vector<size_t>> shard_plan;  // [workload] vanilla, S...
  for (size_t wi : shard_set) {
    std::vector<size_t> row = {cell(wi, Protection::kNone)};
    for (uint32_t shards : shard_counts) {
      row.push_back(sharded(wi, shards, false));
    }
    shard_plan.push_back(std::move(row));
  }
  std::vector<std::vector<size_t>> churn_plan;  // [workload] vanilla, {st, ep}...
  for (size_t wi : churn_set) {
    std::vector<size_t> row = {cell(wi, Protection::kNone)};
    for (uint32_t shards : shard_counts) {
      row.push_back(sharded(wi, shards, false));
      row.push_back(sharded(wi, shards, true));
    }
    churn_plan.push_back(std::move(row));
  }

  // table_composites: SPEC overhead of the composable-scheme rows
  // (SchemeRegistry::CompositeTableRows — ptrenc-ret-chain and the
  // registered composites). Cells select by Config::scheme, since a
  // composite has no Protection id of its own. A separate table so every
  // frozen single-scheme table stays byte-identical.
  const auto composite_schemes = cpi::core::SchemeRegistry::CompositeTableRows();
  std::vector<std::vector<size_t>> comp_plan;  // [scheme][workload]
  for (const ProtectionScheme* s : composite_schemes) {
    Config config;
    config.scheme = s;
    std::vector<size_t> row;
    for (size_t wi : spec_at) {
      row.push_back(cell(wi, s->id(), config));
    }
    comp_plan.push_back(std::move(row));
  }

  // ablation_opt (--opt >= 1 only): per-scheme overhead at O0 (Table 1's
  // cells) and at O<opt>, each against the same-level vanilla baseline.
  Config opt_config;
  opt_config.opt_level = flags.opt;
  std::vector<std::vector<std::pair<size_t, size_t>>> opt_plan;  // [workload][scheme]
  std::vector<size_t> opt_vanilla;
  if (flags.opt >= 1) {
    for (size_t wi : spec_at) {
      opt_vanilla.push_back(cell(wi, Protection::kNone, opt_config));
      std::vector<std::pair<size_t, size_t>> row;
      for (Protection p : overhead_protections) {
        row.push_back({cell(wi, p), cell(wi, p, opt_config)});
      }
      opt_plan.push_back(std::move(row));
    }
  }

  // -------------------------------------------------------------------------
  // One pass over the whole plan.
  const Stopwatch cells_watch;
  const std::vector<CellResult> results =
      cpi::workloads::RunCells(workloads, views, cells, flags.jobs);
  const double cells_ms = cells_watch.Ms();
  const size_t unique_cells = cpi::workloads::UniqueCells(cells);

  // Failure audit. The overhead tables tolerate failing cells (they drop out
  // of "overhead_pct", and Table 3 lists them in "fails") so one bad scheme
  // cannot abort a long sweep, but the suite as a whole must not exit 0 when
  // a cell silently failed. SoftBound is the documented exemption: the paper
  // reports it breaking on unsafe pointer idioms (Table 3), and the recorded
  // baselines carry those cells as fails:["softbound"].
  int unexpected_failures = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Config& config = cells[i].config;
    if (results[i].status == cpi::vm::RunStatus::kOk ||
        (config.scheme == nullptr && config.protection == Protection::kSoftBound)) {
      continue;
    }
    std::fprintf(stderr, "suite: FAILED cell %s under %s: %s\n",
                 workloads[cells[i].workload].name.c_str(),
                 config.scheme != nullptr ? config.scheme->name() : SchemeName(config.protection),
                 cpi::vm::RunStatusName(results[i].status));
    ++unexpected_failures;
  }
  if (unexpected_failures != 0) {
    std::fprintf(stderr, "suite: %d unexpected cell failure(s); exiting non-zero\n",
                 unexpected_failures);
  }

  // The optimizer's static CPI instrumentation counts (--opt >= 1), per
  // workload and aggregated per pass over the SPEC set.
  std::vector<cpi::core::CompileOutput> opt_counts;
  if (flags.opt >= 1) {
    opt_counts.resize(spec.size());
    cpi::ThreadPool(flags.jobs).ParallelFor(spec.size(), [&](size_t k) {
      Config config = opt_config;
      config.protection = Protection::kCpi;
      auto clone = cpi::ir::CloneModule(*views[spec_at[k]]);
      opt_counts[k] = cpi::core::Compiler(config).Instrument(*clone);
    });
  }

  // -------------------------------------------------------------------------
  // Attack matrices: §5.1 RIPE and the cross-thread matrix, one row per
  // registry RipeRow (Fig. 5 reads its verdicts from the RIPE rows), and
  // both matrices per composite row, which selects by Config::scheme.
  const Stopwatch attacks_watch;
  const auto run_matrix = [&flags](AttackResults (*run)(const Config&, int),
                                   const ProtectionScheme* s, bool select_scheme) {
    Config config;
    config.protection = s->id();
    config.scheme = select_scheme ? s : nullptr;
    config.engine = flags.engine;
    return run(config, flags.jobs);
  };
  const auto ripe_schemes = cpi::core::SchemeRegistry::RipeRows();
  std::map<const ProtectionScheme*, AttackResults> ripe;
  std::map<const ProtectionScheme*, AttackResults> ripe_concurrent;
  for (const ProtectionScheme* s : ripe_schemes) {
    ripe[s] = run_matrix(&cpi::attacks::RunAttackMatrix, s, false);
    ripe_concurrent[s] = run_matrix(&cpi::attacks::RunCrossThreadMatrix, s, false);
  }
  std::vector<std::pair<AttackResults, AttackResults>> composite_attacks;
  for (const ProtectionScheme* s : composite_schemes) {
    composite_attacks.push_back({run_matrix(&cpi::attacks::RunAttackMatrix, s, true),
                                 run_matrix(&cpi::attacks::RunCrossThreadMatrix, s, true)});
  }
  // Every scheme runs the same spec list, so any row gives the matrix size.
  const size_t ripe_attacks = ripe.begin()->second.size();
  const size_t ripe_concurrent_attacks = ripe_concurrent.begin()->second.size();
  const double attacks_ms = attacks_watch.Ms();

  // -------------------------------------------------------------------------
  // Reductions, each reading its own cells, into the report's tables.
  // `overhead` requires both runs to have completed.
  const auto overhead = [&results](size_t at, size_t vanilla_at) {
    const CellResult& r = results[at];
    const CellResult& vanilla = results[vanilla_at];
    CPI_CHECK(r.status == cpi::vm::RunStatus::kOk);
    CPI_CHECK(vanilla.status == cpi::vm::RunStatus::kOk);
    return cpi::OverheadPercent(static_cast<double>(r.cycles),
                                static_cast<double>(vanilla.cycles));
  };
  const auto ok = [&results](size_t at) {
    return results[at].status == cpi::vm::RunStatus::kOk;
  };
  const auto workload_of = [&](size_t at) -> const Workload& {
    return workloads[cells[at].workload];
  };
  Node tables = Node::Object();

  // Table 1 / 3 / 4 / Fig. 4 shape: per workload, the overhead of every
  // protection column whose run completed; with `fails`, the ones that did
  // not. A plan row may hold more columns than the table reads.
  const auto overhead_table = [&](const std::vector<std::vector<size_t>>& plan,
                                  const std::vector<Protection>& columns, bool lang,
                                  bool fails) {
    Node rows = Node::Array();
    for (const std::vector<size_t>& at : plan) {
      CPI_CHECK(ok(at[0]));
      Node row = Node::Object().Add("workload", workload_of(at[0]).name);
      if (lang) {
        row.Add("lang", workload_of(at[0]).language);
      }
      Node overheads = Node::Object();
      Node failed = Node::Array();
      for (size_t c = 0; c < columns.size(); ++c) {
        if (ok(at[1 + c])) {
          overheads.Add(SchemeName(columns[c]), Pct(overhead(at[1 + c], at[0])));
        } else {
          failed.Push(SchemeName(columns[c]));
        }
      }
      row.Add("overhead_pct", std::move(overheads));
      if (fails) {
        row.Add("fails", std::move(failed));
      }
      rows.Push(std::move(row));
    }
    return Node::Object().Add("rows", std::move(rows));
  };
  tables.Add("table1_spec_overhead", overhead_table(spec_plan, overhead_protections,
                                                    /*lang=*/true, /*fails=*/false));

  Node table2 = Node::Array();
  for (const std::vector<size_t>& at : spec_plan) {
    const cpi::analysis::ModuleStats& stats = results[at[0]].stats;
    table2.Push(Node::Object()
                    .Add("workload", workload_of(at[0]).name)
                    .Add("lang", workload_of(at[0]).language)
                    .Add("fnustack_pct", Pct(stats.FnuStackPercent()))
                    .Add("mocps_pct", Pct(stats.MoCpsPercent()))
                    .Add("mocpi_pct", Pct(stats.MoCpiPercent())));
  }
  tables.Add("table2_compile_stats", Node::Object().Add("rows", std::move(table2)));
  tables.Add("table3_softbound", overhead_table(spec_plan, spec_protections, false, true));
  tables.Add("table4_webserver", overhead_table(web_plan, overhead_protections, false, false));
  tables.Add("table4_concurrent", overhead_table(mt_plan, overhead_protections, false, false));
  tables.Add("fig4_phoronix", overhead_table(phoronix_plan, overhead_protections, false, false));

  Node fig5 = Node::Array();
  for (size_t di = 0; di < defense_rows.size(); ++di) {
    const ProtectionScheme* s = defense_rows[di];
    // Every defense row is also a RIPE row, so the matrix runs once per
    // scheme in the whole suite.
    const auto matrix = ripe.find(s);
    CPI_CHECK(matrix != ripe.end());
    const auto hijacked = std::count_if(matrix->second.begin(), matrix->second.end(),
                                        [](const auto& r) { return r.Hijacked(); });
    bool some_fail = false;
    std::vector<double> overheads;
    for (const std::vector<size_t>& at : fig5_plan) {
      if (!ok(at[1 + di])) {
        some_fail = true;
        continue;
      }
      overheads.push_back(overhead(at[1 + di], at[0]));
    }
    fig5.Push(Node::Object()
                  .Add("name", s->name())
                  .Add("mechanism", s->description())
                  .Add("hijacked", hijacked)
                  .Add("attacks", matrix->second.size())
                  .Add("stops_all", hijacked == 0)
                  .Add("some_fail", some_fail)
                  .Add("avg_overhead_pct", overheads.empty() ? Node() : Pct(cpi::Mean(overheads))));
  }
  tables.Add("fig5_defense_matrix", Node::Object().Add("rows", std::move(fig5)));

  Node iso_rows = Node::Array();
  Node mpx_rows = Node::Array();
  std::vector<std::vector<double>> iso_grid;  // [workload][isolation kind]
  std::vector<std::vector<double>> mpx_grid;  // [workload] {software, mpx}
  for (size_t k = 0; k < spec.size(); ++k) {
    std::vector<double> iso;
    for (size_t at : iso_plan[k]) {
      iso.push_back(overhead(at, spec_vanilla[k]));
    }
    iso_rows.Push(
        Node::Object().Add("workload", spec[k].name).Add("overhead_pct", PctMap(iso_names, iso)));
    iso_grid.push_back(std::move(iso));
    mpx_grid.push_back({overhead(mpx_plan[k].first, spec_vanilla[k]),
                        overhead(mpx_plan[k].second, spec_vanilla[k])});
    mpx_rows.Push(Node::Object()
                      .Add("workload", spec[k].name)
                      .Add("software_pct", Pct(mpx_grid.back()[0]))
                      .Add("mpx_pct", Pct(mpx_grid.back()[1])));
  }
  tables.Add("ablation_isolation",
             Node::Object()
                 .Add("rows", std::move(iso_rows))
                 .Add("average", PctMap(iso_names, ColumnMeans(iso_grid))));
  tables.Add("ablation_mpx", Node::Object()
                                 .Add("rows", std::move(mpx_rows))
                                 .Add("average", PctMap({"software_pct", "mpx_pct"},
                                                        ColumnMeans(mpx_grid))));

  const auto ripe_table = [&ripe_schemes](const std::map<const ProtectionScheme*,
                                                         AttackResults>& matrices,
                                          size_t attacks) {
    Node rows = Node::Array();
    for (const ProtectionScheme* s : ripe_schemes) {
      rows.Push(Tally(matrices.at(s), Node::Object().Add("name", s->name()), false));
    }
    return Node::Object().Add("attacks", attacks).Add("rows", std::move(rows));
  };
  tables.Add("ripe_effectiveness", ripe_table(ripe, ripe_attacks));
  tables.Add("ripe_concurrent", ripe_table(ripe_concurrent, ripe_concurrent_attacks));

  std::vector<std::string> overhead_names;
  for (Protection p : overhead_protections) {
    overhead_names.push_back(SchemeName(p));
  }
  if (flags.opt >= 1) {
    // [scheme] per-workload {O0, O<opt>} overheads.
    std::vector<std::vector<std::vector<double>>> grids(overhead_protections.size());
    Node rows = Node::Array();
    for (size_t k = 0; k < opt_plan.size(); ++k) {
      Node per_scheme = Node::Object();
      for (size_t pi = 0; pi < overhead_protections.size(); ++pi) {
        const auto& [o0, on] = opt_plan[k][pi];
        grids[pi].push_back({overhead(o0, spec_vanilla[k]), overhead(on, opt_vanilla[k])});
        per_scheme.Add(overhead_names[pi], PctMap({"o0", "o1"}, grids[pi].back()));
      }
      rows.Push(
          Node::Object().Add("workload", spec[k].name).Add("overhead_pct", std::move(per_scheme)));
    }
    Node average = Node::Object();
    for (size_t pi = 0; pi < overhead_protections.size(); ++pi) {
      average.Add(overhead_names[pi], PctMap({"o0", "o1"}, ColumnMeans(grids[pi])));
    }
    tables.Add("ablation_opt", Node::Object()
                                   .Add("opt_level", flags.opt)
                                   .Add("rows", std::move(rows))
                                   .Add("average", std::move(average)));
  }

  Node mem_rows = Node::Array();
  for (size_t si = 0; si < stores.size(); ++si) {
    Node overheads = Node::Object();
    Node store_bytes = Node::Object();
    for (size_t pi = 0; pi < overhead_protections.size(); ++pi) {
      std::vector<double> overhead_col;
      std::vector<double> bytes_col;
      for (size_t k = 0; k < spec.size(); ++k) {
        const CellResult& r = results[mem_plan[si][k][pi]];
        CPI_CHECK(r.status == cpi::vm::RunStatus::kOk);
        overhead_col.push_back(
            cpi::OverheadPercent(static_cast<double>(r.memory_bytes),
                                 static_cast<double>(results[spec_vanilla[k]].memory_bytes)));
        bytes_col.push_back(static_cast<double>(r.safe_store_bytes));
      }
      overheads.Add(overhead_names[pi], Pct(cpi::Median(overhead_col)));
      store_bytes.Add(overhead_names[pi], Node::Number(cpi::Median(bytes_col), 0));
    }
    mem_rows.Push(Node::Object()
                      .Add("store", cpi::runtime::StoreKindName(stores[si]))
                      .Add("median_overhead_pct", std::move(overheads))
                      .Add("median_safe_store_bytes", std::move(store_bytes)));
  }
  tables.Add("mem_overhead", Node::Object().Add("stores", std::move(mem_rows)));

  const auto contended_share = [](const CellResult& r) {
    return r.safe_store_ops == 0 ? 0.0
                                 : 100.0 * static_cast<double>(r.store_contended_ops) /
                                       static_cast<double>(r.safe_store_ops);
  };
  Node shard_counts_node = Node::Array();
  for (uint32_t shards : shard_counts) {
    shard_counts_node.Push(shards);
  }
  Node shard_rows = Node::Array();
  std::vector<std::vector<double>> shard_overhead;   // [workload][shard count]
  std::vector<std::vector<double>> shard_contended;  // [workload][shard count]
  for (const std::vector<size_t>& row : shard_plan) {
    std::vector<double> overheads;
    std::vector<double> contended;
    for (size_t si = 0; si < shard_counts.size(); ++si) {
      const CellResult& r = results[row[1 + si]];
      CPI_CHECK(r.safe_store_ops == results[row[1]].safe_store_ops);
      overheads.push_back(overhead(row[1 + si], row[0]));
      contended.push_back(contended_share(r));
    }
    shard_rows.Push(Node::Object()
                        .Add("workload", workload_of(row[0]).name)
                        .Add("overhead_pct", PctMap(shard_names, overheads))
                        .Add("contended_pct", PctMap(shard_names, contended)));
    shard_overhead.push_back(std::move(overheads));
    shard_contended.push_back(std::move(contended));
  }
  tables.Add("ablation_shards",
             Node::Object()
                 .Add("shard_counts", shard_counts_node)
                 .Add("rows", std::move(shard_rows))
                 .Add("average",
                      Node::Object()
                          .Add("overhead_pct", PctMap(shard_names, ColumnMeans(shard_overhead)))
                          .Add("contended_pct",
                               PctMap(shard_names, ColumnMeans(shard_contended)))));

  // Per shard count the churn reduction cross-checks: identical safe-store
  // op counts, epoch contended ops <= static, and zero migrations with the
  // flag off. The epoch column's one-time publish charges are counted in
  // `migrations` (owner changes across the whole run).
  Node churn_rows = Node::Array();
  std::vector<std::vector<double>> static_contended;  // [workload][shard count]
  std::vector<std::vector<double>> epoch_contended;   // [workload][shard count]
  for (const std::vector<size_t>& row : churn_plan) {
    std::vector<double> st_over, ep_over, st_cont, ep_cont;
    Node migrations = Node::Object();
    for (size_t si = 0; si < shard_counts.size(); ++si) {
      const CellResult& st = results[row[1 + 2 * si]];
      const CellResult& ep = results[row[2 + 2 * si]];
      CPI_CHECK(st.safe_store_ops == results[row[1]].safe_store_ops);
      CPI_CHECK(ep.safe_store_ops == st.safe_store_ops);
      CPI_CHECK(ep.store_contended_ops <= st.store_contended_ops);
      CPI_CHECK(st.shard_migrations == 0);
      st_over.push_back(overhead(row[1 + 2 * si], row[0]));
      ep_over.push_back(overhead(row[2 + 2 * si], row[0]));
      st_cont.push_back(contended_share(st));
      ep_cont.push_back(contended_share(ep));
      migrations.Add(shard_names[si], ep.shard_migrations);
    }
    churn_rows.Push(Node::Object()
                        .Add("workload", workload_of(row[0]).name)
                        .Add("static_overhead_pct", PctMap(shard_names, st_over))
                        .Add("epoch_overhead_pct", PctMap(shard_names, ep_over))
                        .Add("static_contended_pct", PctMap(shard_names, st_cont))
                        .Add("epoch_contended_pct", PctMap(shard_names, ep_cont))
                        .Add("migrations", std::move(migrations)));
    static_contended.push_back(std::move(st_cont));
    epoch_contended.push_back(std::move(ep_cont));
  }
  tables.Add("ablation_churn",
             Node::Object()
                 .Add("shard_counts", std::move(shard_counts_node))
                 .Add("rows", std::move(churn_rows))
                 .Add("average",
                      Node::Object()
                          .Add("static_contended_pct",
                               PctMap(shard_names, ColumnMeans(static_contended)))
                          .Add("epoch_contended_pct",
                               PctMap(shard_names, ColumnMeans(epoch_contended)))));

  std::vector<std::string> spec_names;
  for (const Workload& w : spec) {
    spec_names.push_back(w.name);
  }
  Node composite_rows = Node::Array();
  for (size_t ci = 0; ci < composite_schemes.size(); ++ci) {
    std::vector<double> overheads;
    for (size_t k = 0; k < spec.size(); ++k) {
      overheads.push_back(overhead(comp_plan[ci][k], spec_vanilla[k]));
    }
    composite_rows.Push(
        Node::Object()
            .Add("name", composite_schemes[ci]->name())
            .Add("mechanism", composite_schemes[ci]->description())
            .Add("avg_overhead_pct", Pct(cpi::Mean(overheads)))
            .Add("overhead_pct", PctMap(spec_names, overheads))
            .Add("ripe", Tally(composite_attacks[ci].first, Node::Object(), true))
            .Add("ripe_concurrent", Tally(composite_attacks[ci].second, Node::Object(), true)));
  }
  tables.Add("table_composites", Node::Object()
                                     .Add("attacks", ripe_attacks)
                                     .Add("concurrent_attacks", ripe_concurrent_attacks)
                                     .Add("rows", std::move(composite_rows)));

  // -------------------------------------------------------------------------
  // The report. Everything outside "tables" may vary between runs; the
  // wall-clock split comes last, so the text report ends with it.
  Node report = Node::Object()
                    .Add("bench", "suite")
                    .Add("scale", flags.scale)
                    .Add("jobs", flags.jobs)
                    .Add("hardware_concurrency", cpi::ThreadPool::DefaultJobs())
                    .Add("tables", std::move(tables));

  // Fusion statistics describe the execution tier, not the measured
  // program, and vary with --engine while the tables never do.
  const cpi::vm::FusionStats fusion = cpi::vm::GetFusionStats();
  Node patterns = Node::Array();
  for (size_t i = 0; i < std::min<size_t>(fusion.patterns.size(), 10); ++i) {
    const cpi::vm::FusionPatternStat& ps = fusion.patterns[i];
    patterns.Push(Node::Object()
                      .Add("name", ps.name)
                      .Add("sites", ps.sites)
                      .Add("weight", ps.weight)
                      .Add("hits", ps.hits));
  }
  report.Add("engine", cpi::vm::EngineKindName(flags.engine))
      .Add("fusion", Node::Object()
                         .Add("modules", fusion.modules)
                         .Add("ops_before", fusion.ops_before)
                         .Add("ops_after", fusion.ops_after)
                         .Add("patterns", std::move(patterns)));

  // Diagnostic listings: the attacks behind the cfi RIPE row's hijack count
  // (the [19,15,9]-style bypasses), and (--opt >= 1) the optimizer's static
  // work.
  Node cfi_hijacks = Node::Array();
  for (const cpi::attacks::AttackResult& r :
       ripe.at(&cpi::core::SchemeRegistry::Get(Protection::kCfi))) {
    if (r.Hijacked()) {
      cfi_hijacks.Push(r.spec.Name());
    }
  }
  report.Add("cfi_hijacks", std::move(cfi_hijacks));
  if (flags.opt >= 1) {
    Node rows = Node::Array();
    std::map<std::string, cpi::opt::PassStats> per_pass;
    for (size_t k = 0; k < opt_counts.size(); ++k) {
      const cpi::core::CompileOutput& co = opt_counts[k];
      rows.Push(Node::Object()
                    .Add("workload", spec[k].name)
                    .Add("vanilla", co.instructions_before)
                    .Add("instrumented", co.instructions_after)
                    .Add("optimized", co.instructions_after_opt)
                    .Add("removed", co.opt.TotalRemoved())
                    .Add("checks_elim", co.opt.TotalEliminatedChecks())
                    .Add("store_ops_elim", EliminatedSafeStoreOps(co.opt)));
      for (const cpi::opt::PassStats& ps : co.opt.passes) {
        cpi::opt::PassStats& agg = per_pass[ps.pass];
        agg.removed_instructions += ps.removed_instructions;
        agg.eliminated_checks += ps.eliminated_checks;
        agg.eliminated_safe_store_ops += ps.eliminated_safe_store_ops;
        agg.eliminated_seal_ops += ps.eliminated_seal_ops;
        agg.forwarded_loads += ps.forwarded_loads;
        agg.leaf_ret_elisions += ps.leaf_ret_elisions;
      }
    }
    Node passes = Node::Array();
    for (const auto& [name, ps] : per_pass) {
      passes.Push(Node::Object()
                      .Add("pass", name)
                      .Add("removed", ps.removed_instructions)
                      .Add("checks_elim", ps.eliminated_checks)
                      .Add("store_ops_elim", ps.eliminated_safe_store_ops)
                      .Add("seal_ops_elim", ps.eliminated_seal_ops)
                      .Add("forwarded_loads", ps.forwarded_loads)
                      .Add("leaf_ret_elisions", ps.leaf_ret_elisions));
    }
    report.Add("opt_instrumentation", Node::Object()
                                          .Add("opt_level", flags.opt)
                                          .Add("rows", std::move(rows))
                                          .Add("passes", std::move(passes)));
  }

  report.Add("cells", cells.size())
      .Add("unique_cells", unique_cells)
      .Add("wall_ms", Node::Number(total.Ms(), 1))
      .Add("build_ms", Node::Number(build_ms, 1))
      .Add("cells_ms", Node::Number(cells_ms, 1))
      .Add("attacks_ms", Node::Number(attacks_ms, 1));
  if (flags.json) {
    cpi::bench::WriteJson(report);
  } else {
    cpi::bench::WriteText(report);
  }
  return unexpected_failures == 0 ? 0 : 1;
}
