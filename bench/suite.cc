// The unified bench suite: every paper table/figure in one process.
//
//   suite                 human-readable report, all tables
//   suite --json          one consolidated machine-readable report
//   suite --scale N       workload size multiplier ("small" == 1)
//   suite --jobs N        cell parallelism (default: hardware concurrency)
//   suite --time          append the wall-clock split to the human report
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
// Table values are bit-identical at any --jobs value and under any engine
// (the cost model is simulated; the pool and the tier only change
// wall-clock). The JSON layout keeps everything that varies between runs
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
#include "src/attacks/ripe.h"
#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/ir/clone.h"
#include "src/support/stats.h"
#include "src/support/table.h"
#include "src/vm/decode.h"
#include "src/workloads/measure.h"

namespace {

using cpi::Table;
using cpi::core::Config;
using cpi::core::Protection;
using cpi::core::ProtectionScheme;
using cpi::runtime::StoreKind;
using cpi::workloads::CellResult;
using cpi::workloads::MeasureCell;
using cpi::workloads::Measurement;
using cpi::workloads::MeasurementCells;
using cpi::workloads::Workload;

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

// ---------------------------------------------------------------------------
// Per-table data, reduced once and rendered twice (human table / JSON).

struct OverheadTable {  // table1 / table3 / table4 / fig4 shape
  std::vector<const Measurement*> rows;
  std::vector<Protection> columns;
};

struct Fig5Row {
  const ProtectionScheme* scheme = nullptr;
  int hijacked = 0;
  int attacks = 0;
  bool some_fail = false;
  bool has_overhead = false;
  double avg_overhead_pct = 0;
};

struct AblationIsolation {
  std::vector<std::string> workloads;
  // column name -> per-workload overheads (column order fixed below)
  std::vector<std::pair<std::string, std::vector<double>>> columns;
};

struct AblationMpx {
  std::vector<std::string> workloads;
  std::vector<double> software_pct;
  std::vector<double> mpx_pct;
};

struct RipeRow {
  const ProtectionScheme* scheme = nullptr;
  int counts[4] = {0, 0, 0, 0};  // AttackOutcome order
};

// One composite-table row (SchemeRegistry::CompositeTableRows): SPEC
// overhead column plus both attack matrices, with the auth-abort count
// (kPointerAuthFailure verdicts) broken out — the ret-chain schemes turn
// ret-hijacks into exactly these.
struct CompositeRow {
  const ProtectionScheme* scheme = nullptr;
  std::vector<double> overhead_pct;  // per SPEC workload
  double avg_overhead_pct = 0;
  RipeRow ripe;
  RipeRow ripe_concurrent;
  int ripe_auth_aborts = 0;
  int ripec_auth_aborts = 0;
};

struct MemStoreRow {
  StoreKind store;
  std::map<Protection, double> median_overhead_pct;
  std::map<Protection, double> median_safe_store_bytes;
};

struct AblationOpt {
  std::vector<std::string> workloads;
  // scheme -> per-workload {O0, O1} overhead percents
  std::map<Protection, std::vector<std::pair<double, double>>> overhead_pct;
};

struct AblationShards {
  std::vector<uint32_t> shard_counts;
  std::vector<std::string> workloads;
  // [workload][shard-count] CPI overhead vs vanilla / contended-op share.
  std::vector<std::vector<double>> overhead_pct;
  std::vector<std::vector<double>> contended_pct;
};

struct AblationChurn {
  std::vector<uint32_t> shard_counts;
  std::vector<std::string> workloads;
  // [workload][shard-count], static ownership vs epoch migration
  // (Config::migrate). The epoch column's one-time publish charges are
  // counted in `migrations` (owner changes across the whole run).
  std::vector<std::vector<double>> static_overhead_pct;
  std::vector<std::vector<double>> epoch_overhead_pct;
  std::vector<std::vector<double>> static_contended_pct;
  std::vector<std::vector<double>> epoch_contended_pct;
  std::vector<std::vector<uint64_t>> migrations;
};

uint64_t EliminatedSafeStoreOps(const cpi::opt::OptReport& report) {
  uint64_t n = 0;
  for (const cpi::opt::PassStats& ps : report.passes) {
    n += ps.eliminated_safe_store_ops;
  }
  return n;
}

// ---------------------------------------------------------------------------
// JSON emission. Percents use %.3f throughout.

void JsonOverheadMap(const Measurement& m, const std::vector<Protection>& columns) {
  std::printf("\"overhead_pct\":{");
  bool first = true;
  for (Protection p : columns) {
    if (m.status.count(p) != 0 && m.status.at(p) != cpi::vm::RunStatus::kOk) {
      continue;
    }
    std::printf("%s\"%s\":%.3f", first ? "" : ",", SchemeName(p), m.overhead_pct.at(p));
    first = false;
  }
  std::printf("}");
}

void JsonFailList(const Measurement& m, const std::vector<Protection>& columns) {
  std::printf("\"fails\":[");
  bool first = true;
  for (Protection p : columns) {
    if (m.status.count(p) != 0 && m.status.at(p) != cpi::vm::RunStatus::kOk) {
      std::printf("%s\"%s\"", first ? "" : ",", SchemeName(p));
      first = false;
    }
  }
  std::printf("]");
}

void JsonOverheadTable(const OverheadTable& t, bool lang, bool fails) {
  std::printf("{\"rows\":[");
  for (size_t i = 0; i < t.rows.size(); ++i) {
    const Measurement& m = *t.rows[i];
    std::printf("%s{\"workload\":\"%s\",", i == 0 ? "" : ",", m.workload.c_str());
    if (lang) {
      std::printf("\"lang\":\"%s\",", m.language.c_str());
    }
    JsonOverheadMap(m, t.columns);
    if (fails) {
      std::printf(",");
      JsonFailList(m, t.columns);
    }
    std::printf("}");
  }
  std::printf("]}");
}

// ---------------------------------------------------------------------------
// Human rendering.

void PrintOverheadTable(const char* title, const OverheadTable& t, bool lang) {
  std::printf("%s\n\n", title);
  std::vector<std::string> header = {"Benchmark"};
  if (lang) {
    header.push_back("Lang");
  }
  for (Protection p : t.columns) {
    header.push_back(SchemeName(p));
  }
  Table table(header);
  for (const Measurement* m : t.rows) {
    std::vector<std::string> row = {m->workload};
    if (lang) {
      row.push_back(m->language);
    }
    for (Protection p : t.columns) {
      if (m->status.count(p) != 0 && m->status.at(p) != cpi::vm::RunStatus::kOk) {
        row.push_back("fails");
      } else {
        row.push_back(Table::FormatPercent(m->overhead_pct.at(p)));
      }
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf("\n");
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
  // Every workload set in one list, frontend-built once. A set is kept as
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
  Config engine_base;
  engine_base.engine = flags.engine;
  std::vector<MeasureCell> cells;
  const auto cell = [&cells, &engine_base](size_t workload, Protection protection,
                                           Config config = {}) {
    config.protection = protection;
    config.engine = engine_base.engine;
    cells.push_back({workload, config});
    return cells.size() - 1;
  };
  const auto measure = [&cells, &engine_base](const std::vector<size_t>& set,
                                              const std::vector<Protection>& protections) {
    std::vector<MeasurementCells> at;
    for (size_t wi : set) {
      at.push_back(cpi::workloads::AddMeasurementCells(cells, wi, protections, engine_base));
    }
    return at;
  };

  // Table 1 / Table 2 / Table 3 (SPEC), Fig. 4 (Phoronix), Table 4 (web
  // server) and Table 4 "concurrent" (multi-worker servers on the VM's
  // thread scheduler): vanilla plus one cell per column.
  const auto spec_plan = measure(spec_at, spec_protections);
  const auto phoronix_plan = measure(phoronix_at, overhead_protections);
  const auto web_plan = measure(web_at, overhead_protections);
  const auto mt_plan = measure(mt_at, overhead_protections);

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
  const auto fig5_plan = measure(fig5_at, defense_protections);

  // §3.2.3 isolation and §4 MPX ablations under CPI, against vanilla.
  // Segment isolation is the default, so the "segment" and "software"
  // columns are Table 1's CPI cells.
  const std::vector<std::pair<std::string, cpi::runtime::IsolationKind>> iso_kinds = {
      {"segment", cpi::runtime::IsolationKind::kSegment},
      {"info-hiding", cpi::runtime::IsolationKind::kInfoHiding},
      {"sfi", cpi::runtime::IsolationKind::kSfi}};
  Config mpx_config;
  mpx_config.mpx_assist = true;
  std::vector<size_t> spec_vanilla;
  std::vector<std::vector<size_t>> iso_plan;  // [workload][isolation kind]
  std::vector<std::pair<size_t, size_t>> mpx_plan;  // [workload] {software, mpx}
  for (size_t wi : spec_at) {
    spec_vanilla.push_back(cell(wi, Protection::kNone));
    std::vector<size_t> row;
    for (const auto& [name, kind] : iso_kinds) {
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

  // -------------------------------------------------------------------------
  // Reductions, each reading its own cells. `overhead` requires both runs
  // to have completed.
  const auto overhead = [&results](size_t at, size_t vanilla_at) {
    const CellResult& r = results[at];
    const CellResult& vanilla = results[vanilla_at];
    CPI_CHECK(r.status == cpi::vm::RunStatus::kOk);
    CPI_CHECK(vanilla.status == cpi::vm::RunStatus::kOk);
    return cpi::OverheadPercent(static_cast<double>(r.cycles),
                                static_cast<double>(vanilla.cycles));
  };
  const auto reduce = [&workloads, &results](const std::vector<MeasurementCells>& plan) {
    std::vector<Measurement> ms;
    for (const MeasurementCells& at : plan) {
      ms.push_back(cpi::workloads::ReduceMeasurement(workloads[at.workload], at, results));
    }
    return ms;
  };
  const std::vector<Measurement> spec_ms = reduce(spec_plan);
  const std::vector<Measurement> phoronix_ms = reduce(phoronix_plan);
  const std::vector<Measurement> web_ms = reduce(web_plan);
  const std::vector<Measurement> mt_ms = reduce(mt_plan);
  const std::vector<Measurement> fig5_ms = reduce(fig5_plan);
  const auto overhead_table = [](const std::vector<Measurement>& ms,
                                 const std::vector<Protection>& columns) {
    OverheadTable t;
    t.columns = columns;
    for (const Measurement& m : ms) {
      t.rows.push_back(&m);
    }
    return t;
  };
  const OverheadTable table1 = overhead_table(spec_ms, overhead_protections);
  const OverheadTable table3 = overhead_table(spec_ms, spec_protections);
  const OverheadTable fig4 = overhead_table(phoronix_ms, overhead_protections);
  const OverheadTable table4 = overhead_table(web_ms, overhead_protections);
  const OverheadTable table4_concurrent = overhead_table(mt_ms, overhead_protections);

  AblationIsolation iso;
  for (const auto& [name, kind] : iso_kinds) {
    iso.columns.push_back({name, {}});
  }
  AblationMpx mpx;
  for (size_t k = 0; k < spec.size(); ++k) {
    iso.workloads.push_back(spec[k].name);
    for (size_t c = 0; c < iso_kinds.size(); ++c) {
      iso.columns[c].second.push_back(overhead(iso_plan[k][c], spec_vanilla[k]));
    }
    mpx.workloads.push_back(spec[k].name);
    mpx.software_pct.push_back(overhead(mpx_plan[k].first, spec_vanilla[k]));
    mpx.mpx_pct.push_back(overhead(mpx_plan[k].second, spec_vanilla[k]));
  }

  std::vector<MemStoreRow> mem_rows;
  for (size_t si = 0; si < stores.size(); ++si) {
    std::map<Protection, std::vector<double>> overheads;
    std::map<Protection, std::vector<double>> store_bytes;
    for (size_t k = 0; k < spec.size(); ++k) {
      const double base_mem = static_cast<double>(results[spec_vanilla[k]].memory_bytes);
      for (size_t pi = 0; pi < overhead_protections.size(); ++pi) {
        const CellResult& r = results[mem_plan[si][k][pi]];
        CPI_CHECK(r.status == cpi::vm::RunStatus::kOk);
        overheads[overhead_protections[pi]].push_back(
            cpi::OverheadPercent(static_cast<double>(r.memory_bytes), base_mem));
        store_bytes[overhead_protections[pi]].push_back(
            static_cast<double>(r.safe_store_bytes));
      }
    }
    MemStoreRow row;
    row.store = stores[si];
    for (Protection p : overhead_protections) {
      row.median_overhead_pct[p] = cpi::Median(overheads[p]);
      row.median_safe_store_bytes[p] = cpi::Median(store_bytes[p]);
    }
    mem_rows.push_back(row);
  }

  const auto contended_share = [](const CellResult& r) {
    return r.safe_store_ops == 0 ? 0.0
                                 : 100.0 * static_cast<double>(r.store_contended_ops) /
                                       static_cast<double>(r.safe_store_ops);
  };
  AblationShards shard_ablation;
  shard_ablation.shard_counts = shard_counts;
  for (size_t k = 0; k < shard_set.size(); ++k) {
    const std::vector<size_t>& row = shard_plan[k];
    shard_ablation.workloads.push_back(workloads[shard_set[k]].name);
    std::vector<double> overheads;
    std::vector<double> contended;
    for (size_t si = 0; si < shard_counts.size(); ++si) {
      const CellResult& r = results[row[1 + si]];
      CPI_CHECK(r.safe_store_ops == results[row[1]].safe_store_ops);
      overheads.push_back(overhead(row[1 + si], row[0]));
      contended.push_back(contended_share(r));
    }
    shard_ablation.overhead_pct.push_back(std::move(overheads));
    shard_ablation.contended_pct.push_back(std::move(contended));
  }

  // Per shard count the churn reduction cross-checks: identical safe-store
  // op counts, epoch contended ops <= static, and zero migrations with the
  // flag off.
  AblationChurn churn_ablation;
  churn_ablation.shard_counts = shard_counts;
  for (size_t k = 0; k < churn_set.size(); ++k) {
    const std::vector<size_t>& row = churn_plan[k];
    churn_ablation.workloads.push_back(workloads[churn_set[k]].name);
    std::vector<double> st_over, ep_over, st_cont, ep_cont;
    std::vector<uint64_t> migrations;
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
      migrations.push_back(ep.shard_migrations);
    }
    churn_ablation.static_overhead_pct.push_back(std::move(st_over));
    churn_ablation.epoch_overhead_pct.push_back(std::move(ep_over));
    churn_ablation.static_contended_pct.push_back(std::move(st_cont));
    churn_ablation.epoch_contended_pct.push_back(std::move(ep_cont));
    churn_ablation.migrations.push_back(std::move(migrations));
  }

  std::vector<CompositeRow> composite_rows;
  for (size_t ci = 0; ci < composite_schemes.size(); ++ci) {
    CompositeRow row;
    row.scheme = composite_schemes[ci];
    for (size_t k = 0; k < spec.size(); ++k) {
      row.overhead_pct.push_back(overhead(comp_plan[ci][k], spec_vanilla[k]));
    }
    row.avg_overhead_pct = cpi::Mean(row.overhead_pct);
    composite_rows.push_back(std::move(row));
  }

  AblationOpt opt_ablation;
  for (size_t k = 0; k < opt_plan.size(); ++k) {
    opt_ablation.workloads.push_back(spec[k].name);
    for (size_t pi = 0; pi < overhead_protections.size(); ++pi) {
      const auto& [o0, on] = opt_plan[k][pi];
      opt_ablation.overhead_pct[overhead_protections[pi]].push_back(
          {overhead(o0, spec_vanilla[k]), overhead(on, opt_vanilla[k])});
    }
  }

  // The optimizer's static CPI instrumentation counts (--opt >= 1), per
  // workload and aggregated per pass over the SPEC set.
  std::vector<cpi::core::CompileOutput> opt_counts;
  std::map<std::string, cpi::opt::PassStats> opt_per_pass;
  if (flags.opt >= 1) {
    opt_counts.resize(spec.size());
    cpi::ThreadPool(flags.jobs).ParallelFor(spec.size(), [&](size_t k) {
      Config config = opt_config;
      config.protection = Protection::kCpi;
      auto clone = cpi::ir::CloneModule(*views[spec_at[k]]);
      opt_counts[k] = cpi::core::Compiler(config).Instrument(*clone);
    });
  }
  for (const cpi::core::CompileOutput& co : opt_counts) {
    for (const cpi::opt::PassStats& ps : co.opt.passes) {
      cpi::opt::PassStats& agg = opt_per_pass[ps.pass];
      agg.pass = ps.pass;
      agg.removed_instructions += ps.removed_instructions;
      agg.eliminated_checks += ps.eliminated_checks;
      agg.eliminated_safe_store_ops += ps.eliminated_safe_store_ops;
      agg.eliminated_seal_ops += ps.eliminated_seal_ops;
      agg.forwarded_loads += ps.forwarded_loads;
      agg.leaf_ret_elisions += ps.leaf_ret_elisions;
    }
  }

  // -------------------------------------------------------------------------
  // Attack matrices: §5.1 RIPE (one row per registry RipeRow), the
  // cross-thread matrix, Fig. 5's verdicts and both matrices per composite
  // row. `attacks` reports the matrix size (identical across schemes, since
  // every scheme runs the same spec list); `cfi_hijacks`, when given,
  // collects the attacks that still hijack under CFI (the [19,15,9]-style
  // bypasses).
  const Stopwatch attacks_watch;
  const auto run_ripe_table = [&flags](
      std::vector<cpi::attacks::AttackResult> (*run)(const Config&, int),
      std::vector<RipeRow>* rows, int* attacks, std::vector<std::string>* cfi_hijacks) {
    for (const ProtectionScheme* s : cpi::core::SchemeRegistry::RipeRows()) {
      Config config;
      config.protection = s->id();
      config.engine = flags.engine;
      RipeRow row;
      row.scheme = s;
      *attacks = 0;
      for (const auto& r : run(config, flags.jobs)) {
        ++row.counts[static_cast<int>(r.outcome)];
        ++*attacks;
        if (cfi_hijacks != nullptr && s->id() == Protection::kCfi && r.Hijacked()) {
          cfi_hijacks->push_back(r.spec.Name());
        }
      }
      rows->push_back(row);
    }
  };
  std::vector<RipeRow> ripe_rows;
  int ripe_attacks = 0;
  std::vector<std::string> cfi_hijacks;
  run_ripe_table(&cpi::attacks::RunAttackMatrix, &ripe_rows, &ripe_attacks, &cfi_hijacks);

  // Cross-thread rows: thread A corrupting thread B's saved return address
  // (regular slot) and probing its safe-stack home. A separate table so the
  // historical ripe_effectiveness payload stays byte-identical.
  std::vector<RipeRow> ripe_concurrent_rows;
  int ripe_concurrent_attacks = 0;
  run_ripe_table(&cpi::attacks::RunCrossThreadMatrix, &ripe_concurrent_rows,
                 &ripe_concurrent_attacks, /*cfi_hijacks=*/nullptr);

  std::vector<Fig5Row> fig5_rows;
  for (size_t di = 0; di < defense_rows.size(); ++di) {
    const ProtectionScheme* s = defense_rows[di];
    Fig5Row row;
    row.scheme = s;
    // Matrix verdict: reuse the RIPE rows where possible (every built-in
    // defense row is also a RIPE row), so the matrix runs once per scheme
    // in the whole suite; a defense-only scheme gets its own matrix run
    // rather than a silent hijacked=0 default.
    bool have_matrix = false;
    for (const RipeRow& r : ripe_rows) {
      if (r.scheme->id() == s->id()) {
        row.hijacked = r.counts[0];
        row.attacks = r.counts[0] + r.counts[1] + r.counts[2] + r.counts[3];
        have_matrix = true;
      }
    }
    if (!have_matrix) {
      Config config;
      config.protection = s->id();
      config.engine = flags.engine;
      for (const auto& r : cpi::attacks::RunAttackMatrix(config, flags.jobs)) {
        ++row.attacks;
        if (r.Hijacked()) {
          ++row.hijacked;
        }
      }
    }
    std::vector<double> overheads;
    for (const Measurement& m : fig5_ms) {
      if (m.status.at(s->id()) != cpi::vm::RunStatus::kOk) {
        row.some_fail = true;
        continue;
      }
      overheads.push_back(m.overhead_pct.at(s->id()));
    }
    if (!overheads.empty()) {
      row.has_overhead = true;
      row.avg_overhead_pct = cpi::Mean(overheads);
    }
    fig5_rows.push_back(row);
  }

  for (CompositeRow& row : composite_rows) {
    Config config;
    config.protection = row.scheme->id();
    config.scheme = row.scheme;
    config.engine = flags.engine;
    row.ripe.scheme = row.scheme;
    for (const auto& r : cpi::attacks::RunAttackMatrix(config, flags.jobs)) {
      ++row.ripe.counts[static_cast<int>(r.outcome)];
      if (r.violation == cpi::runtime::Violation::kPointerAuthFailure) {
        ++row.ripe_auth_aborts;
      }
    }
    row.ripe_concurrent.scheme = row.scheme;
    for (const auto& r : cpi::attacks::RunCrossThreadMatrix(config, flags.jobs)) {
      ++row.ripe_concurrent.counts[static_cast<int>(r.outcome)];
      if (r.violation == cpi::runtime::Violation::kPointerAuthFailure) {
        ++row.ripec_auth_aborts;
      }
    }
  }
  const double attacks_ms = attacks_watch.Ms();

  const double wall_ms = total.Ms();

  // -------------------------------------------------------------------------
  // Failure audit. The overhead tables tolerate failing cells (they surface
  // in the JSON "fails" arrays) so one bad scheme cannot abort a long sweep,
  // but the suite as a whole must not exit 0 when a cell silently failed.
  // SoftBound is the documented exemption: the paper reports it breaking on
  // unsafe pointer idioms (Table 3), and the recorded baselines carry those
  // cells as fails:["softbound"].
  int unexpected_failures = 0;
  const auto audit = [&unexpected_failures](const char* table,
                                            const std::vector<Measurement>& ms) {
    for (const Measurement& m : ms) {
      for (const auto& [p, st] : m.status) {
        if (st == cpi::vm::RunStatus::kOk || p == Protection::kSoftBound) {
          continue;
        }
        std::fprintf(stderr, "suite: FAILED cell %s/%s under %s: %s\n", table,
                     m.workload.c_str(), SchemeName(p), cpi::vm::RunStatusName(st));
        ++unexpected_failures;
      }
    }
  };
  audit("table1/table3", spec_ms);
  audit("fig4_phoronix", phoronix_ms);
  audit("table4_webserver", web_ms);
  audit("table4_concurrent", mt_ms);
  audit("fig5_subset", fig5_ms);
  if (unexpected_failures != 0) {
    std::fprintf(stderr, "suite: %d unexpected cell failure(s); exiting non-zero\n",
                 unexpected_failures);
  }
  const int exit_code = unexpected_failures == 0 ? 0 : 1;

  // -------------------------------------------------------------------------
  // JSON report.
  if (flags.json) {
    std::printf("{\"bench\":\"suite\",\"scale\":%d,\"jobs\":%d,"
                "\"hardware_concurrency\":%d,\"wall_ms\":%.1f,\"build_ms\":%.1f,"
                "\"cells_ms\":%.1f,\"attacks_ms\":%.1f,\"cells\":%zu,\"unique_cells\":%zu,"
                "\"tables\":{",
                flags.scale, flags.jobs, cpi::ThreadPool::DefaultJobs(), wall_ms, build_ms,
                cells_ms, attacks_ms, cells.size(), unique_cells);

    std::printf("\"table1_spec_overhead\":");
    JsonOverheadTable(table1, /*lang=*/true, /*fails=*/false);

    std::printf(",\"table2_compile_stats\":{\"rows\":[");
    for (size_t i = 0; i < spec_ms.size(); ++i) {
      const Measurement& m = spec_ms[i];
      std::printf("%s{\"workload\":\"%s\",\"lang\":\"%s\",\"fnustack_pct\":%.3f,"
                  "\"mocps_pct\":%.3f,\"mocpi_pct\":%.3f}",
                  i == 0 ? "" : ",", m.workload.c_str(), m.language.c_str(),
                  m.stats.FnuStackPercent(), m.stats.MoCpsPercent(),
                  m.stats.MoCpiPercent());
    }
    std::printf("]}");

    std::printf(",\"table3_softbound\":");
    JsonOverheadTable(table3, /*lang=*/false, /*fails=*/true);

    std::printf(",\"table4_webserver\":");
    JsonOverheadTable(table4, /*lang=*/false, /*fails=*/false);

    std::printf(",\"table4_concurrent\":");
    JsonOverheadTable(table4_concurrent, /*lang=*/false, /*fails=*/false);

    std::printf(",\"fig4_phoronix\":");
    JsonOverheadTable(fig4, /*lang=*/false, /*fails=*/false);

    std::printf(",\"fig5_defense_matrix\":{\"rows\":[");
    for (size_t i = 0; i < fig5_rows.size(); ++i) {
      const Fig5Row& r = fig5_rows[i];
      std::printf("%s{\"name\":\"%s\",\"mechanism\":\"%s\",\"hijacked\":%d,"
                  "\"attacks\":%d,\"stops_all\":%s,\"some_fail\":%s,"
                  "\"avg_overhead_pct\":",
                  i == 0 ? "" : ",", r.scheme->name(), r.scheme->description(),
                  r.hijacked, r.attacks, r.hijacked == 0 ? "true" : "false",
                  r.some_fail ? "true" : "false");
      if (r.has_overhead) {
        std::printf("%.3f}", r.avg_overhead_pct);
      } else {
        std::printf("null}");
      }
    }
    std::printf("]}");

    std::printf(",\"ablation_isolation\":{\"rows\":[");
    for (size_t wi = 0; wi < iso.workloads.size(); ++wi) {
      std::printf("%s{\"workload\":\"%s\",\"overhead_pct\":{", wi == 0 ? "" : ",",
                  iso.workloads[wi].c_str());
      for (size_t c = 0; c < iso.columns.size(); ++c) {
        std::printf("%s\"%s\":%.3f", c == 0 ? "" : ",", iso.columns[c].first.c_str(),
                    iso.columns[c].second[wi]);
      }
      std::printf("}}");
    }
    std::printf("],\"average\":{");
    for (size_t c = 0; c < iso.columns.size(); ++c) {
      std::printf("%s\"%s\":%.3f", c == 0 ? "" : ",", iso.columns[c].first.c_str(),
                  cpi::Mean(iso.columns[c].second));
    }
    std::printf("}}");

    std::printf(",\"ablation_mpx\":{\"rows\":[");
    for (size_t wi = 0; wi < mpx.workloads.size(); ++wi) {
      std::printf("%s{\"workload\":\"%s\",\"software_pct\":%.3f,\"mpx_pct\":%.3f}",
                  wi == 0 ? "" : ",", mpx.workloads[wi].c_str(), mpx.software_pct[wi],
                  mpx.mpx_pct[wi]);
    }
    std::printf("],\"average\":{\"software_pct\":%.3f,\"mpx_pct\":%.3f}}",
                cpi::Mean(mpx.software_pct), cpi::Mean(mpx.mpx_pct));

    std::printf(",\"ripe_effectiveness\":{\"attacks\":%d,\"rows\":[", ripe_attacks);
    for (size_t i = 0; i < ripe_rows.size(); ++i) {
      const RipeRow& r = ripe_rows[i];
      std::printf("%s{\"name\":\"%s\",\"hijacked\":%d,\"prevented\":%d,"
                  "\"crashed\":%d,\"no_effect\":%d}",
                  i == 0 ? "" : ",", r.scheme->name(), r.counts[0], r.counts[1],
                  r.counts[2], r.counts[3]);
    }
    std::printf("]}");

    std::printf(",\"ripe_concurrent\":{\"attacks\":%d,\"rows\":[",
                ripe_concurrent_attacks);
    for (size_t i = 0; i < ripe_concurrent_rows.size(); ++i) {
      const RipeRow& r = ripe_concurrent_rows[i];
      std::printf("%s{\"name\":\"%s\",\"hijacked\":%d,\"prevented\":%d,"
                  "\"crashed\":%d,\"no_effect\":%d}",
                  i == 0 ? "" : ",", r.scheme->name(), r.counts[0], r.counts[1],
                  r.counts[2], r.counts[3]);
    }
    std::printf("]}");

    if (flags.opt >= 1) {
      std::printf(",\"ablation_opt\":{\"opt_level\":%d,\"rows\":[", flags.opt);
      for (size_t wi = 0; wi < opt_ablation.workloads.size(); ++wi) {
        std::printf("%s{\"workload\":\"%s\",\"overhead_pct\":{", wi == 0 ? "" : ",",
                    opt_ablation.workloads[wi].c_str());
        for (size_t pi = 0; pi < overhead_protections.size(); ++pi) {
          const Protection p = overhead_protections[pi];
          const auto& [o0, o1] = opt_ablation.overhead_pct.at(p)[wi];
          std::printf("%s\"%s\":{\"o0\":%.3f,\"o1\":%.3f}", pi == 0 ? "" : ",",
                      SchemeName(p), o0, o1);
        }
        std::printf("}}");
      }
      std::printf("],\"average\":{");
      for (size_t pi = 0; pi < overhead_protections.size(); ++pi) {
        const Protection p = overhead_protections[pi];
        std::vector<double> o0s;
        std::vector<double> o1s;
        for (const auto& [o0, o1] : opt_ablation.overhead_pct.at(p)) {
          o0s.push_back(o0);
          o1s.push_back(o1);
        }
        std::printf("%s\"%s\":{\"o0\":%.3f,\"o1\":%.3f}", pi == 0 ? "" : ",",
                    SchemeName(p), cpi::Mean(o0s), cpi::Mean(o1s));
      }
      std::printf("}}");
    }

    std::printf(",\"mem_overhead\":{\"stores\":[");
    for (size_t i = 0; i < mem_rows.size(); ++i) {
      std::printf("%s{\"store\":\"%s\",\"median_overhead_pct\":{", i == 0 ? "" : ",",
                  cpi::runtime::StoreKindName(mem_rows[i].store));
      for (size_t j = 0; j < overhead_protections.size(); ++j) {
        const Protection p = overhead_protections[j];
        std::printf("%s\"%s\":%.3f", j == 0 ? "" : ",", SchemeName(p),
                    mem_rows[i].median_overhead_pct.at(p));
      }
      std::printf("},\"median_safe_store_bytes\":{");
      for (size_t j = 0; j < overhead_protections.size(); ++j) {
        const Protection p = overhead_protections[j];
        std::printf("%s\"%s\":%.0f", j == 0 ? "" : ",", SchemeName(p),
                    mem_rows[i].median_safe_store_bytes.at(p));
      }
      std::printf("}}");
    }
    std::printf("]}");

    std::printf(",\"ablation_shards\":{\"shard_counts\":[");
    for (size_t si = 0; si < shard_ablation.shard_counts.size(); ++si) {
      std::printf("%s%u", si == 0 ? "" : ",", shard_ablation.shard_counts[si]);
    }
    std::printf("],\"rows\":[");
    for (size_t wi = 0; wi < shard_ablation.workloads.size(); ++wi) {
      std::printf("%s{\"workload\":\"%s\",\"overhead_pct\":{", wi == 0 ? "" : ",",
                  shard_ablation.workloads[wi].c_str());
      for (size_t si = 0; si < shard_ablation.shard_counts.size(); ++si) {
        std::printf("%s\"%u\":%.3f", si == 0 ? "" : ",",
                    shard_ablation.shard_counts[si],
                    shard_ablation.overhead_pct[wi][si]);
      }
      std::printf("},\"contended_pct\":{");
      for (size_t si = 0; si < shard_ablation.shard_counts.size(); ++si) {
        std::printf("%s\"%u\":%.3f", si == 0 ? "" : ",",
                    shard_ablation.shard_counts[si],
                    shard_ablation.contended_pct[wi][si]);
      }
      std::printf("}}");
    }
    std::printf("],\"average\":{\"overhead_pct\":{");
    const auto shard_column_mean = [&shard_ablation](
        const std::vector<std::vector<double>>& rows, size_t si) {
      std::vector<double> col;
      for (size_t wi = 0; wi < shard_ablation.workloads.size(); ++wi) {
        col.push_back(rows[wi][si]);
      }
      return cpi::Mean(col);
    };
    for (size_t si = 0; si < shard_ablation.shard_counts.size(); ++si) {
      std::printf("%s\"%u\":%.3f", si == 0 ? "" : ",", shard_ablation.shard_counts[si],
                  shard_column_mean(shard_ablation.overhead_pct, si));
    }
    std::printf("},\"contended_pct\":{");
    for (size_t si = 0; si < shard_ablation.shard_counts.size(); ++si) {
      std::printf("%s\"%u\":%.3f", si == 0 ? "" : ",", shard_ablation.shard_counts[si],
                  shard_column_mean(shard_ablation.contended_pct, si));
    }
    std::printf("}}}");

    std::printf(",\"ablation_churn\":{\"shard_counts\":[");
    for (size_t si = 0; si < churn_ablation.shard_counts.size(); ++si) {
      std::printf("%s%u", si == 0 ? "" : ",", churn_ablation.shard_counts[si]);
    }
    std::printf("],\"rows\":[");
    const auto print_churn_map = [&](const char* key,
                                     const std::vector<double>& vals) {
      std::printf("\"%s\":{", key);
      for (size_t si = 0; si < churn_ablation.shard_counts.size(); ++si) {
        std::printf("%s\"%u\":%.3f", si == 0 ? "" : ",",
                    churn_ablation.shard_counts[si], vals[si]);
      }
      std::printf("}");
    };
    for (size_t wi = 0; wi < churn_ablation.workloads.size(); ++wi) {
      std::printf("%s{\"workload\":\"%s\",", wi == 0 ? "" : ",",
                  churn_ablation.workloads[wi].c_str());
      print_churn_map("static_overhead_pct", churn_ablation.static_overhead_pct[wi]);
      std::printf(",");
      print_churn_map("epoch_overhead_pct", churn_ablation.epoch_overhead_pct[wi]);
      std::printf(",");
      print_churn_map("static_contended_pct", churn_ablation.static_contended_pct[wi]);
      std::printf(",");
      print_churn_map("epoch_contended_pct", churn_ablation.epoch_contended_pct[wi]);
      std::printf(",\"migrations\":{");
      for (size_t si = 0; si < churn_ablation.shard_counts.size(); ++si) {
        std::printf("%s\"%u\":%llu", si == 0 ? "" : ",",
                    churn_ablation.shard_counts[si],
                    static_cast<unsigned long long>(churn_ablation.migrations[wi][si]));
      }
      std::printf("}}");
    }
    std::printf("],\"average\":{");
    const auto churn_column_mean = [&churn_ablation](
        const std::vector<std::vector<double>>& rows, size_t si) {
      std::vector<double> col;
      for (size_t wi = 0; wi < churn_ablation.workloads.size(); ++wi) {
        col.push_back(rows[wi][si]);
      }
      return cpi::Mean(col);
    };
    const auto print_churn_avg = [&](const char* key,
                                     const std::vector<std::vector<double>>& rows) {
      std::printf("\"%s\":{", key);
      for (size_t si = 0; si < churn_ablation.shard_counts.size(); ++si) {
        std::printf("%s\"%u\":%.3f", si == 0 ? "" : ",",
                    churn_ablation.shard_counts[si], churn_column_mean(rows, si));
      }
      std::printf("}");
    };
    print_churn_avg("static_contended_pct", churn_ablation.static_contended_pct);
    std::printf(",");
    print_churn_avg("epoch_contended_pct", churn_ablation.epoch_contended_pct);
    std::printf("}}");

    std::printf(",\"table_composites\":{\"attacks\":%d,\"concurrent_attacks\":%d,"
                "\"rows\":[",
                ripe_attacks, ripe_concurrent_attacks);
    const auto print_composite_ripe = [](const char* key, const RipeRow& r,
                                         int auth_aborts) {
      std::printf("\"%s\":{\"hijacked\":%d,\"prevented\":%d,\"crashed\":%d,"
                  "\"no_effect\":%d,\"auth_aborts\":%d}",
                  key, r.counts[0], r.counts[1], r.counts[2], r.counts[3],
                  auth_aborts);
    };
    for (size_t ri = 0; ri < composite_rows.size(); ++ri) {
      const CompositeRow& row = composite_rows[ri];
      std::printf("%s{\"name\":\"%s\",\"mechanism\":\"%s\",", ri == 0 ? "" : ",",
                  row.scheme->name(), row.scheme->description());
      std::printf("\"avg_overhead_pct\":%.3f,\"overhead_pct\":{",
                  row.avg_overhead_pct);
      for (size_t wi = 0; wi < spec.size(); ++wi) {
        std::printf("%s\"%s\":%.3f", wi == 0 ? "" : ",", spec[wi].name.c_str(),
                    row.overhead_pct[wi]);
      }
      std::printf("},");
      print_composite_ripe("ripe", row.ripe, row.ripe_auth_aborts);
      std::printf(",");
      print_composite_ripe("ripe_concurrent", row.ripe_concurrent,
                           row.ripec_auth_aborts);
      std::printf("}");
    }
    std::printf("]}");

    std::printf("}");  // closes "tables" — byte-identical across engines

    // Fusion statistics live OUTSIDE .tables: they describe the execution
    // tier, not the measured program, and vary with --engine while the
    // tables never do.
    const cpi::vm::FusionStats fusion = cpi::vm::GetFusionStats();
    std::printf(",\"engine\":\"%s\",\"fusion\":{\"modules\":%llu,"
                "\"ops_before\":%llu,\"ops_after\":%llu,\"patterns\":[",
                cpi::vm::EngineKindName(flags.engine),
                static_cast<unsigned long long>(fusion.modules),
                static_cast<unsigned long long>(fusion.ops_before),
                static_cast<unsigned long long>(fusion.ops_after));
    const size_t npat = std::min<size_t>(fusion.patterns.size(), 10);
    for (size_t i = 0; i < npat; ++i) {
      const cpi::vm::FusionPatternStat& ps = fusion.patterns[i];
      std::printf("%s{\"name\":\"%s\",\"sites\":%llu,\"weight\":%llu,"
                  "\"hits\":%llu}",
                  i == 0 ? "" : ",", ps.name.c_str(),
                  static_cast<unsigned long long>(ps.sites),
                  static_cast<unsigned long long>(ps.weight),
                  static_cast<unsigned long long>(ps.hits));
    }
    std::printf("]}");

    // Diagnostic listings, also outside .tables: the attacks behind the cfi
    // RIPE row's hijack count, and (--opt >= 1) the optimizer's static work.
    std::printf(",\"cfi_hijacks\":[");
    for (size_t i = 0; i < cfi_hijacks.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ",", cfi_hijacks[i].c_str());
    }
    std::printf("]");
    if (flags.opt >= 1) {
      std::printf(",\"opt_instrumentation\":{\"opt_level\":%d,\"rows\":[", flags.opt);
      for (size_t wi = 0; wi < opt_counts.size(); ++wi) {
        const cpi::core::CompileOutput& co = opt_counts[wi];
        std::printf("%s{\"workload\":\"%s\",\"vanilla\":%zu,\"instrumented\":%zu,"
                    "\"optimized\":%zu,\"removed\":%llu,\"checks_elim\":%llu,"
                    "\"store_ops_elim\":%llu}",
                    wi == 0 ? "" : ",", spec[wi].name.c_str(), co.instructions_before,
                    co.instructions_after, co.instructions_after_opt,
                    static_cast<unsigned long long>(co.opt.TotalRemoved()),
                    static_cast<unsigned long long>(co.opt.TotalEliminatedChecks()),
                    static_cast<unsigned long long>(EliminatedSafeStoreOps(co.opt)));
      }
      std::printf("],\"passes\":[");
      bool first = true;
      for (const auto& [name, ps] : opt_per_pass) {
        std::printf("%s{\"pass\":\"%s\",\"removed\":%llu,\"checks_elim\":%llu,"
                    "\"store_ops_elim\":%llu,\"seal_ops_elim\":%llu,"
                    "\"forwarded_loads\":%llu,\"leaf_ret_elisions\":%llu}",
                    first ? "" : ",", name.c_str(),
                    static_cast<unsigned long long>(ps.removed_instructions),
                    static_cast<unsigned long long>(ps.eliminated_checks),
                    static_cast<unsigned long long>(ps.eliminated_safe_store_ops),
                    static_cast<unsigned long long>(ps.eliminated_seal_ops),
                    static_cast<unsigned long long>(ps.forwarded_loads),
                    static_cast<unsigned long long>(ps.leaf_ret_elisions));
        first = false;
      }
      std::printf("]}");
    }
    std::printf("}\n");
    return exit_code;
  }

  // -------------------------------------------------------------------------
  // Human report.
  std::printf("Unified bench suite — all paper tables, one process "
              "(scale %d, jobs %d)\n\n",
              flags.scale, flags.jobs);

  std::printf("Table 1 / Fig. 3 — SPEC CPU2006 performance overhead\n\n");
  {
    std::vector<std::string> header = {"Benchmark", "Lang"};
    for (Protection p : table1.columns) {
      header.push_back(SchemeName(p));
    }
    Table t(header);
    for (const Measurement* m : table1.rows) {
      std::vector<std::string> row = {m->workload, m->language};
      for (Protection p : table1.columns) {
        row.push_back(Table::FormatPercent(m->OverheadPct(p)));
      }
      t.AddRow(row);
    }
    t.AddSeparator();
    // The paper's headline summary rows.
    const struct {
      const char* label;
      const char* language;  // "" = all
      double (*reduce)(const std::vector<double>&);
    } summaries[] = {
        {"Average (C/C++)", "", +[](const std::vector<double>& xs) { return cpi::Mean(xs); }},
        {"Median (C/C++)", "", +[](const std::vector<double>& xs) { return cpi::Median(xs); }},
        {"Maximum (C/C++)", "", +[](const std::vector<double>& xs) { return cpi::Max(xs); }},
        {"Average (C only)", "C", +[](const std::vector<double>& xs) { return cpi::Mean(xs); }},
        {"Median (C only)", "C", +[](const std::vector<double>& xs) { return cpi::Median(xs); }},
        {"Maximum (C only)", "C", +[](const std::vector<double>& xs) { return cpi::Max(xs); }},
    };
    for (const auto& s : summaries) {
      std::vector<std::string> row = {s.label, ""};
      for (Protection p : table1.columns) {
        const std::vector<double> xs =
            s.language[0] == '\0'
                ? cpi::workloads::OverheadColumn(spec_ms, p)
                : cpi::workloads::OverheadColumnForLanguage(spec_ms, p, s.language);
        row.push_back(Table::FormatPercent(s.reduce(xs)));
      }
      t.AddRow(row);
    }
    t.Print();
    std::printf("\n");
  }

  std::printf("Table 2 — Levee compilation statistics\n\n");
  {
    Table t({"Benchmark", "Lang", "FNUStack", "MOCPS", "MOCPI"});
    for (const auto& m : spec_ms) {
      t.AddRow({m.workload, m.language, Table::FormatPercent(m.stats.FnuStackPercent()),
                Table::FormatPercent(m.stats.MoCpsPercent()),
                Table::FormatPercent(m.stats.MoCpiPercent())});
    }
    t.Print();
    std::printf("\n");
  }

  PrintOverheadTable("Table 3 — Levee vs SoftBound-style full memory safety", table3,
                     /*lang=*/false);
  PrintOverheadTable("Table 4 — web-server stack throughput overhead", table4,
                     /*lang=*/false);
  PrintOverheadTable("Table 4 (concurrent) — multi-worker servers, simulated threads",
                     table4_concurrent, /*lang=*/false);
  PrintOverheadTable("Fig. 4 — Phoronix suite performance overhead", fig4,
                     /*lang=*/false);

  std::printf("Fig. 5 — control-flow hijack defense mechanisms\n\n");
  {
    Table t({"Mechanism", "Stops all control-flow hijacks?", "Avg overhead"});
    for (const Fig5Row& r : fig5_rows) {
      std::string verdict = r.hijacked == 0
                                ? "Yes"
                                : "No: " + std::to_string(r.hijacked) + "/" +
                                      std::to_string(r.attacks) + " attacks still hijack";
      std::string overhead =
          r.has_overhead ? Table::FormatPercent(r.avg_overhead_pct) : std::string("n/a");
      if (r.some_fail) {
        overhead += " (some fail)";
      }
      t.AddRow({r.scheme->description(), verdict, overhead});
    }
    t.Print();
    std::printf("\n");
  }

  std::printf("Ablation (§3.2.3) — isolation mechanism cost under CPI\n\n");
  {
    Table t({"Benchmark", "segment", "info-hiding", "sfi"});
    for (size_t wi = 0; wi < iso.workloads.size(); ++wi) {
      t.AddRow({iso.workloads[wi], Table::FormatPercent(iso.columns[0].second[wi]),
                Table::FormatPercent(iso.columns[1].second[wi]),
                Table::FormatPercent(iso.columns[2].second[wi])});
    }
    t.AddSeparator();
    t.AddRow({"Average", Table::FormatPercent(cpi::Mean(iso.columns[0].second)),
              Table::FormatPercent(cpi::Mean(iso.columns[1].second)),
              Table::FormatPercent(cpi::Mean(iso.columns[2].second))});
    t.Print();
    std::printf("\n");
  }

  std::printf("Ablation (§4) — projected hardware-assisted (MPX-style) CPI\n\n");
  {
    Table t({"Benchmark", "CPI (software)", "CPI (MPX-assisted)"});
    for (size_t wi = 0; wi < mpx.workloads.size(); ++wi) {
      t.AddRow({mpx.workloads[wi], Table::FormatPercent(mpx.software_pct[wi]),
                Table::FormatPercent(mpx.mpx_pct[wi])});
    }
    t.AddSeparator();
    t.AddRow({"Average", Table::FormatPercent(cpi::Mean(mpx.software_pct)),
              Table::FormatPercent(cpi::Mean(mpx.mpx_pct))});
    t.Print();
    std::printf("\n");
  }

  std::printf("Ablation — safe-region shard count (event-loop + concurrent servers)\n\n");
  {
    std::vector<std::string> header = {"Benchmark"};
    for (uint32_t shards : shard_ablation.shard_counts) {
      header.push_back("S=" + std::to_string(shards));
    }
    const auto print_shard_table = [&](const std::vector<std::vector<double>>& rows) {
      Table t(header);
      for (size_t wi = 0; wi < shard_ablation.workloads.size(); ++wi) {
        std::vector<std::string> row = {shard_ablation.workloads[wi]};
        for (double v : rows[wi]) {
          row.push_back(Table::FormatPercent(v));
        }
        t.AddRow(row);
      }
      t.AddSeparator();
      std::vector<std::string> avg = {"Average"};
      for (size_t si = 0; si < shard_ablation.shard_counts.size(); ++si) {
        std::vector<double> col;
        for (size_t wi = 0; wi < shard_ablation.workloads.size(); ++wi) {
          col.push_back(rows[wi][si]);
        }
        avg.push_back(Table::FormatPercent(cpi::Mean(col)));
      }
      t.AddRow(avg);
      t.Print();
    };
    std::printf("CPI overhead vs vanilla at each shard count:\n\n");
    print_shard_table(shard_ablation.overhead_pct);
    std::printf("\nShare of safe-store ops paying the shard-crossing premium:\n\n");
    print_shard_table(shard_ablation.contended_pct);
    std::printf("\n");
  }

  std::printf("Ablation — static vs epoch shard ownership (worker churn)\n\n");
  {
    std::vector<std::string> header = {"Benchmark"};
    for (uint32_t shards : churn_ablation.shard_counts) {
      header.push_back("S=" + std::to_string(shards) + " st");
      header.push_back("S=" + std::to_string(shards) + " ep");
    }
    const auto print_churn_table = [&](const std::vector<std::vector<double>>& st,
                                       const std::vector<std::vector<double>>& ep) {
      Table t(header);
      const size_t n_counts = churn_ablation.shard_counts.size();
      for (size_t wi = 0; wi < churn_ablation.workloads.size(); ++wi) {
        std::vector<std::string> row = {churn_ablation.workloads[wi]};
        for (size_t si = 0; si < n_counts; ++si) {
          row.push_back(Table::FormatPercent(st[wi][si]));
          row.push_back(Table::FormatPercent(ep[wi][si]));
        }
        t.AddRow(row);
      }
      t.AddSeparator();
      std::vector<std::string> avg = {"Average"};
      for (size_t si = 0; si < n_counts; ++si) {
        for (const auto* rows : {&st, &ep}) {
          std::vector<double> col;
          for (size_t wi = 0; wi < churn_ablation.workloads.size(); ++wi) {
            col.push_back((*rows)[wi][si]);
          }
          avg.push_back(Table::FormatPercent(cpi::Mean(col)));
        }
      }
      t.AddRow(avg);
      t.Print();
    };
    std::printf("CPI overhead vs vanilla, static (st) vs epoch (ep) ownership:\n\n");
    print_churn_table(churn_ablation.static_overhead_pct,
                      churn_ablation.epoch_overhead_pct);
    std::printf("\nShare of safe-store ops paying the shard-crossing premium:\n\n");
    print_churn_table(churn_ablation.static_contended_pct,
                      churn_ablation.epoch_contended_pct);
    std::printf("\n");
  }

  std::printf("RIPE-style attack matrix (§5.1): %d attack combinations\n\n", ripe_attacks);
  {
    Table t({"Protection", "Hijacked", "Prevented", "Crashed", "No effect"});
    for (const RipeRow& r : ripe_rows) {
      t.AddRow({r.scheme->name(), std::to_string(r.counts[0]),
                std::to_string(r.counts[1]), std::to_string(r.counts[2]),
                std::to_string(r.counts[3])});
    }
    t.Print();
    std::printf("\nDetailed CFI bypasses (the [19,15,9]-style attacks):\n");
    for (const std::string& name : cfi_hijacks) {
      std::printf("  HIJACKED under CFI: %s\n", name.c_str());
    }
    std::printf("\n");
  }

  std::printf("Cross-thread attack matrix: %d combinations (thread A vs thread B)\n\n",
              ripe_concurrent_attacks);
  {
    Table t({"Protection", "Hijacked", "Prevented", "Crashed", "No effect"});
    for (const RipeRow& r : ripe_concurrent_rows) {
      t.AddRow({r.scheme->name(), std::to_string(r.counts[0]),
                std::to_string(r.counts[1]), std::to_string(r.counts[2]),
                std::to_string(r.counts[3])});
    }
    t.Print();
    std::printf("\n");
  }

  std::printf("Composite schemes — stacked pipelines (overhead + both matrices)\n\n");
  {
    Table t({"Scheme", "Avg overhead", "RIPE hijacked", "RIPE auth-aborts",
             "X-thread hijacked", "X-thread auth-aborts"});
    for (const CompositeRow& row : composite_rows) {
      t.AddRow({row.scheme->name(), Table::FormatPercent(row.avg_overhead_pct),
                std::to_string(row.ripe.counts[0]) + "/" + std::to_string(ripe_attacks),
                std::to_string(row.ripe_auth_aborts),
                std::to_string(row.ripe_concurrent.counts[0]) + "/" +
                    std::to_string(ripe_concurrent_attacks),
                std::to_string(row.ripec_auth_aborts)});
    }
    t.Print();
    std::printf("\nThe ret-chain rows convert saved-return corruption — including the\n"
                "cross-thread variants — into kPointerAuthFailure aborts (auth-aborts).\n\n");
  }

  if (flags.opt >= 1) {
    std::printf("Ablation — post-instrumentation optimizer (overhead at O0 vs O%d)\n\n",
                flags.opt);
    std::vector<std::string> header = {"Benchmark"};
    for (Protection p : overhead_protections) {
      header.push_back(std::string(SchemeName(p)) + " O0");
      header.push_back(std::string(SchemeName(p)) + " O" + std::to_string(flags.opt));
    }
    Table t(header);
    for (size_t wi = 0; wi < opt_ablation.workloads.size(); ++wi) {
      std::vector<std::string> row = {opt_ablation.workloads[wi]};
      for (Protection p : overhead_protections) {
        const auto& [o0, o1] = opt_ablation.overhead_pct.at(p)[wi];
        row.push_back(Table::FormatPercent(o0));
        row.push_back(Table::FormatPercent(o1));
      }
      t.AddRow(row);
    }
    t.AddSeparator();
    std::vector<std::string> avg = {"Average"};
    for (Protection p : overhead_protections) {
      std::vector<double> o0s;
      std::vector<double> o1s;
      for (const auto& [o0, o1] : opt_ablation.overhead_pct.at(p)) {
        o0s.push_back(o0);
        o1s.push_back(o1);
      }
      avg.push_back(Table::FormatPercent(cpi::Mean(o0s)));
      avg.push_back(Table::FormatPercent(cpi::Mean(o1s)));
    }
    t.AddRow(avg);
    t.Print();

    std::printf("\nCPI instrumentation counts at --opt %d "
                "(instructions: vanilla / instrumented / optimized)\n\n",
                flags.opt);
    Table counts_table({"Benchmark", "Vanilla", "Instrumented", "Optimized", "Removed",
                        "ChecksElim", "StoreOpsElim"});
    for (size_t wi = 0; wi < opt_counts.size(); ++wi) {
      const cpi::core::CompileOutput& co = opt_counts[wi];
      counts_table.AddRow({spec[wi].name, std::to_string(co.instructions_before),
                           std::to_string(co.instructions_after),
                           std::to_string(co.instructions_after_opt),
                           std::to_string(co.opt.TotalRemoved()),
                           std::to_string(co.opt.TotalEliminatedChecks()),
                           std::to_string(EliminatedSafeStoreOps(co.opt))});
    }
    counts_table.Print();

    std::printf("\nPer-pass statistics (aggregated over the SPEC set):\n\n");
    Table pass_table({"Pass", "Removed", "ChecksElim", "StoreOpsElim", "SealOpsElim",
                      "ForwardedLoads", "LeafRetElisions"});
    for (const auto& [name, ps] : opt_per_pass) {
      pass_table.AddRow({name, std::to_string(ps.removed_instructions),
                         std::to_string(ps.eliminated_checks),
                         std::to_string(ps.eliminated_safe_store_ops),
                         std::to_string(ps.eliminated_seal_ops),
                         std::to_string(ps.forwarded_loads),
                         std::to_string(ps.leaf_ret_elisions)});
    }
    pass_table.Print();
    std::printf("\n");
  }

  std::printf("§5.2 — memory overhead of the safe region (median over SPEC models)\n\n");
  {
    std::vector<std::string> header = {"Configuration"};
    for (Protection p : overhead_protections) {
      header.push_back(SchemeName(p));
    }
    Table t(header);
    for (const auto& row : mem_rows) {
      std::vector<std::string> cells = {std::string("store = ") +
                                        cpi::runtime::StoreKindName(row.store)};
      for (Protection p : overhead_protections) {
        cells.push_back(Table::FormatPercent(row.median_overhead_pct.at(p)));
      }
      t.AddRow(cells);
    }
    t.Print();

    std::printf("\nMedian resident safe-store bytes (runtime shape per scheme):\n\n");
    Table bytes_table(header);
    for (const auto& row : mem_rows) {
      std::vector<std::string> cells = {std::string("store = ") +
                                        cpi::runtime::StoreKindName(row.store)};
      for (Protection p : overhead_protections) {
        cells.push_back(std::to_string(
            static_cast<uint64_t>(row.median_safe_store_bytes.at(p))));
      }
      bytes_table.AddRow(cells);
    }
    bytes_table.Print();
    std::printf("\n");
  }

  if (flags.timing) {
    std::printf("wall-clock: %.1f ms total (scale %d, jobs %d)\n", wall_ms, flags.scale,
                flags.jobs);
    std::printf("  build    %8.1f ms\n", build_ms);
    std::printf("  cells    %8.1f ms  (%zu submitted, %zu unique)\n", cells_ms, cells.size(),
                unique_cells);
    std::printf("  attacks  %8.1f ms\n", attacks_ms);
  }
  return exit_code;
}
