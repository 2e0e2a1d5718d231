// CLI parsing for bench/suite.
//
//   --json       one machine-readable JSON report
//   --time       print the wall-clock split (build / cells / attacks)
//   --scale N    workload size multiplier >= 1 (also accepts "small" == 1)
//   --jobs N     measurement-cell parallelism; 0 or omitted = hardware
//                concurrency, 1 = strictly serial (bit-identical tables
//                either way — only wall-clock changes)
//   --opt N      post-instrumentation optimization level (default 0). The
//                standard tables always run at O0; N >= 1 adds the
//                ablation_opt O0-vs-ON table and the optimizer's
//                instrumentation counts.
//   --engine E   VM execution tier: fused (default), decoded, reference.
//                Simulated counters — and therefore every table — are
//                bit-identical across tiers; only wall-clock changes.
#ifndef CPI_BENCH_FLAGS_H_
#define CPI_BENCH_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/support/pool.h"
#include "src/vm/machine.h"

namespace cpi::bench {

struct Flags {
  bool json = false;
  bool timing = false;
  int scale = 1;
  int jobs = 0;  // resolved to ThreadPool::DefaultJobs() by Parse
  int opt = 0;   // core::Config::opt_level for the measured cells
  vm::EngineKind engine = vm::EngineKind::kFused;  // core::Config::engine
};

inline void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--time] [--scale N|small] [--jobs N] [--opt N] "
               "[--engine fused|decoded|reference]\n",
               argv0);
}

[[noreturn]] inline void Reject(const char* argv0, const char* flag, const char* value) {
  std::fprintf(stderr, "invalid %s: %s\n", flag, value);
  PrintUsage(argv0);
  std::exit(2);
}

// A whole decimal count >= `min`; anything else ("foo", "-3", "2x", "")
// exits 2 with usage rather than running under a guessed value.
inline int ParseCount(const char* argv0, const char* flag, const char* value, int min) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(value[0])) || *end != '\0' ||
      errno == ERANGE || v < min || v > INT_MAX) {
    Reject(argv0, flag, value);
  }
  return static_cast<int>(v);
}

inline Flags Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      flags.json = true;
    } else if (std::strcmp(argv[i], "--time") == 0) {
      flags.timing = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      ++i;
      flags.scale = std::strcmp(argv[i], "small") == 0
                        ? 1
                        : ParseCount(argv[0], "--scale", argv[i], /*min=*/1);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      flags.jobs = ParseCount(argv[0], "--jobs", argv[++i], /*min=*/0);
    } else if (std::strcmp(argv[i], "--opt") == 0 && i + 1 < argc) {
      flags.opt = ParseCount(argv[0], "--opt", argv[++i], /*min=*/0);
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      ++i;
      if (std::strcmp(argv[i], "fused") == 0) {
        flags.engine = vm::EngineKind::kFused;
      } else if (std::strcmp(argv[i], "decoded") == 0) {
        flags.engine = vm::EngineKind::kDecoded;
      } else if (std::strcmp(argv[i], "reference") == 0) {
        flags.engine = vm::EngineKind::kReference;
      } else {
        Reject(argv[0], "--engine", argv[i]);
      }
    } else {
      // Unknown (or value-less) arguments used to be silently ignored, so a
      // typo like `--job 4` recorded a whole table under default settings.
      // Fail loudly instead.
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage(argv[0]);
      std::exit(2);
    }
  }
  if (flags.jobs == 0) {
    flags.jobs = ThreadPool::DefaultJobs();
  }
  return flags;
}

}  // namespace cpi::bench

#endif  // CPI_BENCH_FLAGS_H_
