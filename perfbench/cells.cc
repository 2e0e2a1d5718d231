// The benchmark's cells program: builds one workload's measurement cells, runs them, and
// prints what it measured as one JSON object on the last line of stdout.
//
//   perfbench_cells --workload spec-cells|fuzz-cells|mt-servers --seed N
//                    --jobs J --mode expect|time|trace --records FILE
//                    [--rep K] [--t0-ns NS] [--spans FILE] [--corrupt]
//
// A cell is one (program x core::Config) clone, instrument and run. run.py
// starts every mode in a fresh process:
//
//   expect  the correctness oracle. Runs every cell on the reference engine
//           (vm::EngineKind::kReference) and again on the configured engine,
//           compares the full records (status, violation, exit code, output,
//           every Counter, MemoryFootprint, static stats) and writes the
//           reference records to --records. --corrupt perturbs one
//           reference record first, so the check must report it.
//   time    the untraced run: builds the programs, then times one
//           workloads::RunCells call over the cells in the order --seed
//           and --rep fix. The results are compared against --records
//           after the clock stops.
//   trace   the traced run: the same cells through ThreadPool::ParallelFor,
//           each layer call of each cell wrapped in a span. Spans stay in
//           memory and are written to --spans at exit.
//
// Every timing is taken here, around public library calls; the library
// itself is not instrumented.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/levee.h"
#include "src/core/scheme.h"
#include "src/fuzz/generator.h"
#include "src/ir/clone.h"
#include "src/support/pool.h"
#include "src/vm/decode.h"
#include "src/vm/machine.h"
#include "src/workloads/measure.h"
#include "src/workloads/workloads.h"

namespace {

using cpi::core::Config;
using cpi::core::Protection;
using cpi::workloads::MeasureCell;
using cpi::workloads::Workload;

// Generated programs per fuzz-cells run: fuzz::MakePlan(seed + i), i < this.
constexpr uint64_t kFuzzPrograms = 60;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_cells: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads

struct Bench {
  std::vector<Workload> programs;
  std::vector<MeasureCell> cells;  // canonical order; cell id == index
  double generate_ms = 0;          // time to define programs and cells
};

// A registry scheme as a Config: built-ins by Protection id (the form the
// suite's sweeps use, so repeats are recognisable), composites by pointer.
Config SchemeConfig(const cpi::core::ProtectionScheme* s) {
  Config c;
  if (&cpi::core::SchemeRegistry::Get(s->id()) == s) {
    c.protection = s->id();
  } else {
    c.scheme = s;
  }
  return c;
}

void AddCell(Bench& b, size_t program, const Config& config) {
  MeasureCell cell;
  cell.workload = program;
  cell.config = config;
  b.cells.push_back(cell);
}

Bench SpecCells() {
  Bench b;
  b.programs = cpi::workloads::SpecCpu2006();
  const auto& schemes = cpi::core::SchemeRegistry::All();
  for (size_t wi = 0; wi < b.programs.size(); ++wi) {
    for (const auto* s : schemes) {
      AddCell(b, wi, SchemeConfig(s));
    }
  }
  // The §5.2 store sweep; its kArray third repeats the default cells above.
  for (auto store : {cpi::runtime::StoreKind::kHash, cpi::runtime::StoreKind::kTwoLevel,
                     cpi::runtime::StoreKind::kArray}) {
    for (size_t wi = 0; wi < b.programs.size(); ++wi) {
      for (Protection p : cpi::workloads::OverheadProtections()) {
        Config c;
        c.protection = p;
        c.store = store;
        AddCell(b, wi, c);
      }
    }
  }
  for (size_t wi = 0; wi < b.programs.size(); ++wi) {
    Config c;
    c.protection = Protection::kCpi;
    c.isolation = cpi::runtime::IsolationKind::kInfoHiding;
    AddCell(b, wi, c);
    c.isolation = cpi::runtime::IsolationKind::kSfi;
    AddCell(b, wi, c);
    c.isolation = Config{}.isolation;
    c.mpx_assist = true;
    AddCell(b, wi, c);
  }
  return b;
}

Bench FuzzCells(uint64_t seed) {
  Bench b;
  for (uint64_t i = 0; i < kFuzzPrograms; ++i) {
    const cpi::fuzz::Plan plan = cpi::fuzz::MakePlan(seed + i);
    Workload w;
    w.name = "fuzz." + std::to_string(seed + i);
    w.language = "C";
    w.build = [plan](int) { return cpi::fuzz::Materialize(plan); };
    b.programs.push_back(std::move(w));
  }
  for (size_t wi = 0; wi < b.programs.size(); ++wi) {
    for (const auto* s : cpi::core::SchemeRegistry::All()) {
      for (int opt : {0, 1}) {
        Config c = SchemeConfig(s);
        c.opt_level = opt;
        AddCell(b, wi, c);
      }
    }
  }
  return b;
}

Bench MtServers() {
  Bench b;
  for (const auto* set : {&cpi::workloads::ConcurrentServer(), &cpi::workloads::EventLoop(),
                          &cpi::workloads::ChurnServer()}) {
    b.programs.insert(b.programs.end(), set->begin(), set->end());
  }
  for (size_t wi = 0; wi < b.programs.size(); ++wi) {
    for (const auto* s : cpi::core::SchemeRegistry::All()) {
      Config c = SchemeConfig(s);
      AddCell(b, wi, c);  // shards 1, static ownership
      c.shards = 16;
      c.migrate = true;
      AddCell(b, wi, c);
    }
  }
  return b;
}

Bench MakeBench(const std::string& workload, uint64_t seed) {
  const int64_t start = NowNs();
  Bench b;
  if (workload == "spec-cells") b = SpecCells();
  else if (workload == "fuzz-cells") b = FuzzCells(seed);
  else if (workload == "mt-servers") b = MtServers();
  else Die("unknown workload " + workload);
  b.generate_ms = Ms(NowNs() - start);
  return b;
}

// Every Config field, so two cells with equal keys do identical work.
std::string ConfigKey(const Config& c) {
  std::ostringstream os;
  os << static_cast<int>(c.protection) << '/' << c.scheme << '/' << static_cast<int>(c.store)
     << '/' << static_cast<int>(c.isolation) << '/' << c.shards << '/' << c.migrate << '/'
     << c.debug_mode << c.temporal << c.char_star_heuristic << c.cast_dataflow
     << c.mpx_assist << c.reference_interpreter << '/' << static_cast<int>(c.engine) << '/'
     << c.opt_level << '/' << c.thread_quantum << '/' << c.max_steps << '/' << c.seed << '/'
     << c.faults;
  return os.str();
}

// Share of cells whose (program, Config) repeats an earlier cell's.
double DupCellFrac(const Bench& b) {
  std::map<std::pair<size_t, std::string>, int> seen;
  size_t dups = 0;
  for (const MeasureCell& c : b.cells) {
    if (seen[{c.workload, ConfigKey(c.config)}]++ > 0) ++dups;
  }
  return static_cast<double>(dups) / static_cast<double>(b.cells.size());
}

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Cell submission order of repetition `rep` of a run: a Fisher-Yates shuffle
// of the canonical cell list driven by splitmix64 from (seed, rep). Which
// cells run first sets glibc's dynamic mmap threshold and with it the peak
// resident set, so every repetition of a run gets another order and the
// run's medians average over orders; the seed fixes them all.
std::vector<size_t> SubmissionOrder(size_t n, uint64_t seed, uint64_t rep) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t state = seed;
  state = SplitMix64(state) ^ rep;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[SplitMix64(state) % i]);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Per-cell records

constexpr uint64_t cpi::vm::Counters::*kCounterFields[] = {
    &cpi::vm::Counters::instructions,     &cpi::vm::Counters::cycles,
    &cpi::vm::Counters::mem_accesses,     &cpi::vm::Counters::safe_store_ops,
    &cpi::vm::Counters::store_contended_ops, &cpi::vm::Counters::shard_migrations,
    &cpi::vm::Counters::seal_ops,         &cpi::vm::Counters::checks,
    &cpi::vm::Counters::calls,            &cpi::vm::Counters::hijack_transfers,
    &cpi::vm::Counters::cache_hits,       &cpi::vm::Counters::cache_misses,
    &cpi::vm::Counters::thread_spawns,
};
constexpr uint64_t cpi::vm::MemoryFootprint::*kMemoryFields[] = {
    &cpi::vm::MemoryFootprint::regular_bytes,
    &cpi::vm::MemoryFootprint::safe_store_bytes,
    &cpi::vm::MemoryFootprint::safe_stack_bytes,
    &cpi::vm::MemoryFootprint::safe_store_entries,
};
constexpr uint64_t cpi::analysis::ModuleStats::*kStatsFields[] = {
    &cpi::analysis::ModuleStats::total_functions,
    &cpi::analysis::ModuleStats::unsafe_frame_functions,
    &cpi::analysis::ModuleStats::total_mem_ops,
    &cpi::analysis::ModuleStats::instrumented_cpi,
    &cpi::analysis::ModuleStats::instrumented_cps,
};

// Everything a cell's run is expected to reproduce.
struct Record {
  uint64_t status = 0;
  uint64_t violation = 0;
  uint64_t exit_code = 0;
  std::vector<uint64_t> output;
  cpi::vm::Counters counters;
  cpi::vm::MemoryFootprint memory;
  cpi::analysis::ModuleStats stats;
};

Record MakeRecord(const cpi::vm::RunResult& r, const cpi::analysis::ModuleStats& stats) {
  Record rec;
  rec.status = static_cast<uint64_t>(r.status);
  rec.violation = static_cast<uint64_t>(r.violation);
  rec.exit_code = r.exit_code;
  rec.output = r.output;
  rec.counters = r.counters;
  rec.memory = r.memory;
  rec.stats = stats;
  return rec;
}

bool SameRecord(const Record& a, const Record& b) {
  if (a.status != b.status || a.violation != b.violation || a.exit_code != b.exit_code ||
      a.output != b.output) {
    return false;
  }
  for (auto f : kCounterFields) {
    if (a.counters.*f != b.counters.*f) return false;
  }
  for (auto f : kMemoryFields) {
    if (a.memory.*f != b.memory.*f) return false;
  }
  for (auto f : kStatsFields) {
    if (a.stats.*f != b.stats.*f) return false;
  }
  return true;
}

// The fields a workloads::CellResult carries, against the expected record.
bool MatchesCellResult(const cpi::workloads::CellResult& r, const Record& e) {
  bool same = static_cast<uint64_t>(r.status) == e.status &&
              r.cycles == e.counters.cycles && r.memory_bytes == e.memory.TotalBytes() &&
              r.safe_store_bytes == e.memory.safe_store_bytes &&
              r.safe_store_ops == e.counters.safe_store_ops &&
              r.store_contended_ops == e.counters.store_contended_ops &&
              r.shard_migrations == e.counters.shard_migrations;
  for (auto f : kStatsFields) {
    same = same && r.stats.*f == e.stats.*f;
  }
  return same;
}

// One line per cell: status violation exit n_out out... counters memory stats.
void WriteRecords(const std::string& path, const std::vector<Record>& records) {
  std::ofstream os(path);
  for (const Record& r : records) {
    os << r.status << ' ' << r.violation << ' ' << r.exit_code << ' ' << r.output.size();
    for (uint64_t v : r.output) os << ' ' << v;
    for (auto f : kCounterFields) os << ' ' << r.counters.*f;
    for (auto f : kMemoryFields) os << ' ' << r.memory.*f;
    for (auto f : kStatsFields) os << ' ' << r.stats.*f;
    os << '\n';
  }
  if (!os) Die("cannot write " + path);
}

std::vector<Record> ReadRecords(const std::string& path, size_t expected_cells) {
  std::ifstream is(path);
  std::vector<Record> records;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    Record r;
    size_t n = 0;
    ls >> r.status >> r.violation >> r.exit_code >> n;
    r.output.resize(n);
    for (uint64_t& v : r.output) ls >> v;
    for (auto f : kCounterFields) ls >> r.counters.*f;
    for (auto f : kMemoryFields) ls >> r.memory.*f;
    for (auto f : kStatsFields) ls >> r.stats.*f;
    if (!ls) Die("malformed record in " + path);
    records.push_back(std::move(r));
  }
  if (records.size() != expected_cells) Die("record count mismatch in " + path);
  return records;
}

// ---------------------------------------------------------------------------
// Spans

enum SpanName { kCell, kClone, kInstrument, kDecode, kExecute, kNumSpanNames };
const char* const kSpanNames[] = {"cell", "ir.clone", "core.instrument", "vm.decode",
                                  "vm.execute"};

struct Span {
  SpanName name;
  int64_t start = 0;  // steady-clock ns
  int64_t end = 0;
  int parent = -1;  // index into the same cell's span list
};

// Self time of each span: its duration minus the part of its interval that
// its direct children cover (the union of their intervals, clipped).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>> kids;
    for (const Span& s : spans) {
      if (s.parent == static_cast<int>(i)) {
        kids.emplace_back(std::max(s.start, spans[i].start), std::min(s.end, spans[i].end));
      }
    }
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start;
    for (const auto& [a, b] : kids) {
      const int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[i] = spans[i].end - spans[i].start - covered;
  }
  return self;
}

// Everything one traced cell observed.
struct TracedCell {
  std::vector<Span> spans;
  Record record;
  uint64_t insns_after_instrument = 0;
  uint64_t removed_insns = 0;
  uint64_t eliminated_checks = 0;
};

// Runs one cell layer by layer. With `trace` unset it records nothing but
// the result (the oracle's path).
TracedCell RunCellLayers(const cpi::ir::Module& built, const Workload& w, const Config& config,
                         bool trace) {
  TracedCell out;
  auto span = [&](SpanName name, auto&& fn) {
    const int64_t start = trace ? NowNs() : 0;
    fn();
    if (trace) out.spans.push_back(Span{name, start, NowNs(), /*parent=*/0});
  };
  const int64_t cell_start = trace ? NowNs() : 0;
  std::unique_ptr<cpi::ir::Module> module;
  span(kClone, [&] { module = cpi::ir::CloneModule(built); });
  cpi::core::CompileOutput co;
  span(kInstrument, [&] { co = cpi::core::Compiler(config).Instrument(*module); });
  if (trace && config.engine == cpi::vm::EngineKind::kFused && !config.reference_interpreter) {
    span(kDecode, [&] {
      cpi::vm::DecodedModule decoded(*module, cpi::vm::ComputeProgramLayout(*module),
                                     /*fuse=*/true);
    });
  }
  cpi::vm::RunResult r;
  span(kExecute, [&] { r = cpi::core::Run(*module, config, w.input); });
  if (trace) {
    // The cell span goes first: its children name it as parent 0.
    out.spans.insert(out.spans.begin(), Span{kCell, cell_start, NowNs(), -1});
  }
  out.record = MakeRecord(r, co.stats);
  out.insns_after_instrument = co.instructions_after;
  out.removed_insns = co.instructions_after - co.instructions_after_opt;
  out.eliminated_checks = co.opt.TotalEliminatedChecks();
  return out;
}

// ---------------------------------------------------------------------------
// Output

class JsonLine {
 public:
  void Add(const std::string& key, double value) { fields_.emplace_back(key, value); }
  void Print() const {
    std::printf("{");
    for (size_t i = 0; i < fields_.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i ? ", " : "", fields_[i].first.c_str(), fields_[i].second);
    }
    std::printf("}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, double>> fields_;
};

// Peak resident set of this process so far, in MB (VmHWM).
double PeakRssMb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Args {
  std::string workload;
  std::string mode;
  std::string records;
  std::string spans;
  uint64_t seed = 1;
  uint64_t rep = 0;
  int jobs = 1;
  int64_t t0_ns = 0;
  bool corrupt = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--mode") a.mode = v;
    else if (flag == "--records") a.records = v;
    else if (flag == "--spans") a.spans = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--rep") a.rep = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--jobs") a.jobs = std::atoi(v.c_str());
    else if (flag == "--t0-ns") a.t0_ns = std::strtoll(v.c_str(), nullptr, 10);
    else Die("unknown flag " + flag);
  }
  if (a.workload.empty() || a.records.empty() || a.jobs < 1) Die("bad arguments");
  if (a.mode != "expect" && a.mode != "time" && a.mode != "trace") Die("bad --mode");
  if (a.t0_ns == 0) a.t0_ns = NowNs();
  return a;
}

// ---------------------------------------------------------------------------
// Modes

int Expect(const Args& args, const Bench& bench, const std::vector<const cpi::ir::Module*>& views) {
  const size_t n = bench.cells.size();
  std::vector<Record> reference(n);
  std::vector<Record> timed(n);
  cpi::ThreadPool pool(args.jobs);
  pool.ParallelFor(n, [&](size_t i) {
    const MeasureCell& cell = bench.cells[i];
    Config config = cell.config;
    config.engine = cpi::vm::EngineKind::kReference;
    reference[i] = RunCellLayers(*views[cell.workload], bench.programs[cell.workload], config,
                                 false).record;
  });
  pool.ParallelFor(n, [&](size_t i) {
    const MeasureCell& cell = bench.cells[i];
    timed[i] = RunCellLayers(*views[cell.workload], bench.programs[cell.workload], cell.config,
                             false).record;
  });
  if (args.corrupt) reference[n / 2].counters.cycles += 1;
  size_t wrong = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!SameRecord(reference[i], timed[i])) ++wrong;
  }
  WriteRecords(args.records, reference);
  JsonLine out;
  out.Add("cells", static_cast<double>(n));
  out.Add("wrong", static_cast<double>(wrong));
  out.Print();
  return 0;
}

int Time(const Args& args, const Bench& bench, const std::vector<const cpi::ir::Module*>& views,
         const std::vector<MeasureCell>& submitted, const std::vector<size_t>& order) {
  const int64_t start = NowNs();
  const std::vector<cpi::workloads::CellResult> results =
      cpi::workloads::RunCells(bench.programs, views, submitted, args.jobs);
  const int64_t end = NowNs();
  const double peak_rss_mb = PeakRssMb();

  const std::vector<Record> expected = ReadRecords(args.records, bench.cells.size());
  size_t wrong = 0;
  double insns = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    if (!MatchesCellResult(results[k], expected[order[k]])) ++wrong;
    insns += static_cast<double>(expected[order[k]].counters.instructions);
  }
  JsonLine out;
  out.Add("setup_s", static_cast<double>(start - args.t0_ns) / 1e9);
  out.Add("wall_s", static_cast<double>(end - start) / 1e9);
  out.Add("peak_rss_mb", peak_rss_mb);
  out.Add("sim_insns", insns);
  out.Add("cells", static_cast<double>(order.size()));
  out.Add("wrong", static_cast<double>(wrong));
  out.Print();
  return 0;
}

int Trace(const Args& args, const Bench& bench, const std::vector<const cpi::ir::Module*>& views,
          const std::vector<MeasureCell>& submitted, const std::vector<size_t>& order,
          double build_ms) {
  const size_t n = submitted.size();
  std::vector<TracedCell> cells(n);
  std::vector<int64_t> queued(n);
  cpi::ThreadPool pool(args.jobs);
  const int64_t start = NowNs();
  pool.ParallelFor(n, [&](size_t k) {
    const MeasureCell& cell = submitted[k];
    queued[k] = NowNs() - start;
    cells[k] = RunCellLayers(*views[cell.workload], bench.programs[cell.workload], cell.config,
                             true);
  });
  const int64_t end = NowNs();
  const double wall_ms = Ms(end - start);

  const std::vector<Record> expected = ReadRecords(args.records, bench.cells.size());
  size_t wrong = 0;
  size_t self_mismatch = 0;
  std::vector<double> layer_ms(kNumSpanNames, 0);
  std::vector<double> cell_ms;
  std::vector<double> execute_ms;
  double queue_wait_ms = 0;
  double insns_after = 0, removed = 0, eliminated = 0;
  double store_ops = 0, contended = 0, migrations = 0, store_bytes = 0;
  double sim_insns = 0, mem_accesses = 0, calls = 0, spawns = 0;
  for (size_t k = 0; k < n; ++k) {
    const TracedCell& c = cells[k];
    if (!SameRecord(c.record, expected[order[k]])) ++wrong;
    const std::vector<int64_t> self = SelfTimes(c.spans);
    int64_t self_sum = 0;
    for (size_t s = 0; s < c.spans.size(); ++s) {
      self_sum += self[s];
      layer_ms[c.spans[s].name] += Ms(self[s]);
      if (c.spans[s].name == kExecute) execute_ms.push_back(Ms(c.spans[s].end - c.spans[s].start));
    }
    const int64_t cell_ns = c.spans[0].end - c.spans[0].start;
    if (self_sum != cell_ns) ++self_mismatch;
    cell_ms.push_back(Ms(cell_ns));
    queue_wait_ms += Ms(queued[k]);
    insns_after += static_cast<double>(c.insns_after_instrument);
    removed += static_cast<double>(c.removed_insns);
    eliminated += static_cast<double>(c.eliminated_checks);
    const Record& r = c.record;
    store_ops += static_cast<double>(r.counters.safe_store_ops);
    contended += static_cast<double>(r.counters.store_contended_ops);
    migrations += static_cast<double>(r.counters.shard_migrations);
    store_bytes += static_cast<double>(r.memory.safe_store_bytes);
    sim_insns += static_cast<double>(r.counters.instructions);
    mem_accesses += static_cast<double>(r.counters.mem_accesses);
    calls += static_cast<double>(r.counters.calls);
    spawns += static_cast<double>(r.counters.thread_spawns);
  }
  double busy_ms = 0;
  for (double ms : cell_ms) busy_ms += ms;
  const cpi::vm::FusionStats fusion = cpi::vm::GetFusionStats();

  if (!args.spans.empty()) {
    std::ofstream os(args.spans);
    for (size_t k = 0; k < n; ++k) {
      for (size_t s = 0; s < cells[k].spans.size(); ++s) {
        const Span& sp = cells[k].spans[s];
        os << "{\"cell\": " << order[k] << ", \"id\": " << s << ", \"parent\": " << sp.parent
           << ", \"name\": \"" << kSpanNames[sp.name] << "\", \"start_ns\": " << sp.start - start
           << ", \"end_ns\": " << sp.end - start << "}\n";
      }
    }
  }

  JsonLine out;
  out.Add("wall_s", wall_ms / 1e3);
  out.Add("cells", static_cast<double>(n));
  out.Add("wrong", static_cast<double>(wrong));
  out.Add("self_mismatch_cells", static_cast<double>(self_mismatch));
  out.Add("workloads.build_ms", build_ms);
  out.Add("workloads.generate_ms", bench.generate_ms);
  out.Add("workloads.cells", static_cast<double>(n));
  out.Add("workloads.dup_cell_frac", DupCellFrac(bench));
  out.Add("ir.clone_ms", layer_ms[kClone]);
  out.Add("core.instrument_ms", layer_ms[kInstrument]);
  out.Add("vm.decode_ms", layer_ms[kDecode]);
  out.Add("vm.execute_ms", layer_ms[kExecute]);
  out.Add("cell.self_ms", layer_ms[kCell]);
  out.Add("vm.execute_p50_ms", Percentile(execute_ms, 0.5));
  out.Add("vm.execute_p90_ms", Percentile(execute_ms, 0.9));
  out.Add("vm.host_ns_per_sim_insn", layer_ms[kExecute] * 1e6 / std::max(sim_insns, 1.0));
  out.Add("vm.ops_before_fusion", static_cast<double>(fusion.ops_before));
  out.Add("vm.fused_ops_ratio", static_cast<double>(fusion.ops_after) /
                                    std::max<double>(static_cast<double>(fusion.ops_before), 1));
  out.Add("ir.insns_after_instrument", insns_after);
  out.Add("opt.removed_insns", removed);
  out.Add("opt.eliminated_checks", eliminated);
  out.Add("cell.p50_ms", Percentile(cell_ms, 0.5));
  out.Add("cell.p90_ms", Percentile(cell_ms, 0.9));
  out.Add("support.jobs", args.jobs);
  out.Add("support.pass_wall_ms", wall_ms);
  out.Add("support.busy_ms", busy_ms);
  out.Add("support.pool_util", busy_ms / (wall_ms * args.jobs));
  out.Add("support.queue_wait_ms", queue_wait_ms / static_cast<double>(n));
  out.Add("support.critical_path_ms", *std::max_element(cell_ms.begin(), cell_ms.end()));
  out.Add("runtime.safe_store_ops", store_ops);
  out.Add("runtime.store_contended_ops", contended);
  out.Add("runtime.shard_migrations", migrations);
  out.Add("runtime.safe_store_bytes", store_bytes);
  out.Add("vm.sim_insns", sim_insns);
  out.Add("vm.mem_accesses", mem_accesses);
  out.Add("vm.calls", calls);
  out.Add("vm.thread_spawns", spawns);
  out.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  cpi::vm::ResetFusionStats();
  const Bench bench = MakeBench(args.workload, args.seed);

  const int64_t build_start = NowNs();
  const auto built = cpi::workloads::BuildWorkloads(bench.programs, /*scale=*/1, args.jobs);
  const double build_ms = Ms(NowNs() - build_start);
  const auto views = cpi::workloads::ModuleViews(built);
  if (args.mode == "expect") return Expect(args, bench, views);

  const std::vector<size_t> order = SubmissionOrder(bench.cells.size(), args.seed, args.rep);
  std::vector<MeasureCell> submitted;
  submitted.reserve(order.size());
  for (size_t id : order) submitted.push_back(bench.cells[id]);
  if (args.mode == "time") return Time(args, bench, views, submitted, order);
  return Trace(args, bench, views, submitted, order, build_ms);
}
