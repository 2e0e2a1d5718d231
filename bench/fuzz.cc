// Standing differential fuzzing campaign (see docs/FUZZING.md).
//
//   ./fuzz --cases 500 --seed 7            # the CI acceptance invocation
//   ./fuzz --replay corpus/case-123.plan   # re-run one saved corpus entry
//
// Each case: generate a random well-typed program (src/fuzz/generator),
// run it across engines x schemes x opt levels x quanta x store
// organisations plus the fault-injection campaign (src/fuzz/differential),
// and flag any disagreement. Failures are auto-minimized by delta-debugging
// the generator's decision trace and written to the corpus directory with an
// exact repro command.
//
// This driver parses its own flags (the campaign surface is disjoint from
// the suite's); its numbers go through bench/flags.h's ParseCount/ParseU64,
// so a malformed or out-of-range value exits 2 with usage.
//
//   --cases N        programs to generate, >= 1 (default 100)
//   --seed S         base seed; case i uses seed S+i (default 1)
//   --jobs N         parallel cases; 0 = hardware concurrency (default 0)
//   --max-steps N    per-cell step budget, >= 1 (default 2000000)
//   --corpus-dir D   where failures and self-test entries are written
//   --replay FILE    replay one corpus entry instead of a campaign
//   --inject N       arm the self-test divergence at oracle-instruction
//                    threshold N (used by the printed self-test repro)
//   --no-hazards     generate only hazard-free programs
//   --no-threads     generate only single-threaded programs
//   --no-self-test   skip the end-of-campaign injected-divergence self-test
//   --json           the summary as JSON (bench/report.h) instead of text
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/flags.h"
#include "bench/report.h"
#include "src/core/scheme.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/differential.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/minimize.h"
#include "src/support/pool.h"

namespace cpi {
namespace {

struct FuzzFlags {
  int cases = 100;
  uint64_t seed = 1;
  int jobs = 0;
  uint64_t max_steps = 2'000'000;
  std::string corpus_dir = "fuzz_corpus";
  std::string replay;
  uint64_t inject = 0;
  bool hazards = true;
  bool threads = true;
  bool self_test = true;
  bool json = false;
};

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cases N] [--seed S] [--jobs N] [--max-steps N]\n"
               "       [--corpus-dir DIR] [--replay FILE] [--inject N]\n"
               "       [--no-hazards] [--no-threads] [--no-self-test] [--json]\n",
               argv0);
}

FuzzFlags ParseFlags(int argc, char** argv) {
  FuzzFlags flags;
  for (int i = 1; i < argc; ++i) {
    // The value after flag argv[i]; a missing one exits 2.
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        PrintUsage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    const char* flag = argv[i];
    if (std::strcmp(flag, "--cases") == 0) {
      flags.cases = bench::ParseCount(argv[0], flag, value(), /*min=*/1, PrintUsage);
    } else if (std::strcmp(flag, "--seed") == 0) {
      flags.seed = bench::ParseU64(argv[0], flag, value(), /*min=*/0, PrintUsage);
    } else if (std::strcmp(flag, "--jobs") == 0) {
      flags.jobs = bench::ParseCount(argv[0], flag, value(), /*min=*/0, PrintUsage);
    } else if (std::strcmp(flag, "--max-steps") == 0) {
      flags.max_steps = bench::ParseU64(argv[0], flag, value(), /*min=*/1, PrintUsage);
    } else if (std::strcmp(flag, "--inject") == 0) {
      flags.inject = bench::ParseU64(argv[0], flag, value(), /*min=*/0, PrintUsage);
    } else if (std::strcmp(argv[i], "--corpus-dir") == 0 && i + 1 < argc) {
      flags.corpus_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      flags.replay = argv[++i];
    } else if (std::strcmp(argv[i], "--no-hazards") == 0) {
      flags.hazards = false;
    } else if (std::strcmp(argv[i], "--no-threads") == 0) {
      flags.threads = false;
    } else if (std::strcmp(argv[i], "--no-self-test") == 0) {
      flags.self_test = false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      flags.json = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage(argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

fuzz::DiffOptions DiffOptionsFor(const FuzzFlags& flags) {
  fuzz::DiffOptions options;
  options.max_steps = flags.max_steps;
  options.inject_divergence_at = flags.inject;
  return options;
}

int Replay(const FuzzFlags& flags, const char* argv0) {
  fuzz::Plan plan;
  if (!fuzz::LoadPlanFile(flags.replay, &plan)) {
    std::fprintf(stderr, "%s: cannot load corpus entry %s\n", argv0, flags.replay.c_str());
    return 2;
  }
  const fuzz::CaseResult result = fuzz::RunCase(plan, DiffOptionsFor(flags));
  std::printf("replay %s: %s%s%s (%d cells, %d fuel-skips)\n", flags.replay.c_str(),
              fuzz::CaseStatusName(result.status), result.detail.empty() ? "" : " — ",
              result.detail.c_str(), result.cells_run, result.fuel_skips);
  return result.status == fuzz::CaseStatus::kPass ? 0 : 1;
}

struct SelfTestOutcome {
  bool detected = false;
  bool minimized = false;
  bool reproduced = false;
  size_t ops_before = 0;
  size_t ops_after = 0;
  std::string entry;
};

// End-of-campaign honesty check: arm the executor's deliberate misreport,
// confirm the campaign machinery catches it, shrinks it, and reproduces it
// from the corpus entry it wrote. A harness that cannot detect its own
// injected divergence cannot be trusted with real ones.
SelfTestOutcome RunSelfTest(const FuzzFlags& flags, const fuzz::GenOptions& gopts) {
  SelfTestOutcome outcome;
  fuzz::DiffOptions st = DiffOptionsFor(flags);
  st.inject_divergence_at = 500;
  st.fault_campaign = false;  // irrelevant to the injected signal; saves time

  fuzz::Plan plan;
  for (int k = 0; k < 10 && !outcome.detected; ++k) {
    plan = fuzz::MakePlan(flags.seed + 1000 + static_cast<uint64_t>(k), gopts);
    const fuzz::CaseResult r = fuzz::RunCase(plan, st);
    outcome.detected = r.status == fuzz::CaseStatus::kDivergence &&
                       r.detail.find("self-test") != std::string::npos;
  }
  if (!outcome.detected) {
    return outcome;
  }
  outcome.ops_before = plan.ops.size();

  const fuzz::MinimizeResult mr = fuzz::Minimize(plan, st, fuzz::CaseStatus::kDivergence);
  outcome.ops_after = mr.plan.ops.size();
  outcome.minimized = outcome.ops_after <= outcome.ops_before;

  std::filesystem::create_directories(flags.corpus_dir);
  outcome.entry = flags.corpus_dir + "/self-test.plan";
  if (!fuzz::SavePlanFile(outcome.entry, mr.plan)) {
    return outcome;
  }
  fuzz::Plan reloaded;
  if (fuzz::LoadPlanFile(outcome.entry, &reloaded)) {
    outcome.reproduced = fuzz::RunCase(reloaded, st).status == fuzz::CaseStatus::kDivergence;
  }
  return outcome;
}

int Main(int argc, char** argv) {
  const FuzzFlags flags = ParseFlags(argc, argv);
  if (!flags.replay.empty()) {
    return Replay(flags, argv[0]);
  }

  fuzz::GenOptions gopts;
  gopts.hazards = flags.hazards;
  gopts.threads = flags.threads;
  const fuzz::DiffOptions dopts = DiffOptionsFor(flags);

  const size_t n = static_cast<size_t>(flags.cases);
  std::vector<fuzz::CaseResult> results(n);
  std::vector<fuzz::Plan> plans(n);
  {
    ThreadPool pool(flags.jobs);
    pool.ParallelFor(n, [&](size_t i) {
      plans[i] = fuzz::MakePlan(flags.seed + i, gopts);
      results[i] = fuzz::RunCase(plans[i], dopts);
    });
  }

  int divergences = 0;
  int host_errors = 0;
  int fuel_skips = 0;
  long cells = 0;
  std::map<std::string, std::set<std::string>> coverage;  // scheme -> kinds
  for (size_t i = 0; i < n; ++i) {
    const fuzz::CaseResult& r = results[i];
    cells += r.cells_run;
    fuel_skips += r.fuel_skips;
    for (const auto& [scheme, kind] : r.fault_coverage) {
      coverage[scheme].insert(kind);
    }
    if (r.status == fuzz::CaseStatus::kPass) {
      continue;
    }
    (r.status == fuzz::CaseStatus::kDivergence ? divergences : host_errors) += 1;
    const uint64_t case_seed = flags.seed + i;
    std::fprintf(stderr, "case seed=%llu: %s — %s\n",
                 static_cast<unsigned long long>(case_seed), fuzz::CaseStatusName(r.status),
                 r.detail.c_str());
    // Shrink and persist so the failure outlives this campaign.
    const fuzz::MinimizeResult mr = fuzz::Minimize(plans[i], dopts, r.status);
    std::filesystem::create_directories(flags.corpus_dir);
    const std::string entry = flags.corpus_dir + "/case-" + std::to_string(case_seed) + ".plan";
    fuzz::SavePlanFile(entry, mr.plan);
    std::fprintf(stderr,
                 "  minimized %zu -> %zu ops; saved %s\n  repro: %s --replay %s%s\n",
                 plans[i].ops.size(), mr.plan.ops.size(), entry.c_str(), argv[0],
                 entry.c_str(), flags.inject != 0 ? " --inject ..." : "");
  }

  // Every scheme must have at least one landed-and-contained fault category.
  const size_t schemes_covered = coverage.size();
  const size_t schemes_total = cpi::core::SchemeRegistry::All().size();
  const bool coverage_ok = schemes_covered == schemes_total;

  SelfTestOutcome self_test;
  if (flags.self_test) {
    self_test = RunSelfTest(flags, gopts);
  }
  const bool self_test_ok =
      !flags.self_test || (self_test.detected && self_test.minimized && self_test.reproduced);

  const bool ok = divergences == 0 && host_errors == 0 && coverage_ok && self_test_ok;
  bench::Node coverage_node = bench::Node::Object();
  for (const auto& [scheme, kinds] : coverage) {
    bench::Node list = bench::Node::Array();
    for (const std::string& kind : kinds) {
      list.Push(kind);
    }
    coverage_node.Add(scheme, std::move(list));
  }
  bench::Node report = bench::Node::Object()
                           .Add("cases", flags.cases)
                           .Add("cells", cells)
                           .Add("divergences", divergences)
                           .Add("host_errors", host_errors)
                           .Add("fuel_skips", fuel_skips)
                           .Add("fault_coverage_schemes", schemes_covered)
                           .Add("schemes", schemes_total)
                           .Add("fault_coverage", std::move(coverage_node));
  if (flags.self_test) {
    report.Add("self_test", bench::Node::Object()
                                .Add("detected", self_test.detected)
                                .Add("minimized", self_test.minimized)
                                .Add("reproduced", self_test.reproduced)
                                .Add("ops_before", self_test.ops_before)
                                .Add("ops_after", self_test.ops_after)
                                .Add("entry", self_test.entry));
  }
  report.Add("ok", ok);
  if (flags.json) {
    bench::WriteJson(report);
  } else {
    bench::WriteText(report);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace cpi

int main(int argc, char** argv) { return cpi::Main(argc, argv); }
