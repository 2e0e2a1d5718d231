// Debug utility: dump a workload's IR after instrumentation and after
// optimization, with the per-pass statistics.
//
//   dump_opt <workload-name> [scheme-name]
#include <cstdio>
#include <cstring>

#include "src/core/scheme.h"
#include "src/ir/printer.h"
#include "src/workloads/workloads.h"

int main(int argc, char** argv) {
  const char* workload_name = argc > 1 ? argv[1] : "400.perlbench";
  const char* scheme_name = argc > 2 ? argv[2] : "cpi";

  const cpi::workloads::Workload* w = cpi::workloads::FindWorkload(workload_name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", workload_name);
    return 1;
  }
  const cpi::core::ProtectionScheme* s =
      cpi::core::SchemeRegistry::FindByName(scheme_name);
  if (s == nullptr) {
    std::fprintf(stderr, "unknown scheme %s\n", scheme_name);
    return 1;
  }

  cpi::core::Config config;
  config.scheme = s;
  auto instrumented = w->build(1);
  cpi::core::Compiler(config).Instrument(*instrumented);
  std::printf("=== %s under %s, O0 ===\n%s\n", workload_name, scheme_name,
              cpi::ir::PrintModule(*instrumented).c_str());

  config.opt_level = 1;
  auto optimized = w->build(1);
  const cpi::core::CompileOutput co = cpi::core::Compiler(config).Instrument(*optimized);
  std::printf("=== %s under %s, O1 ===\n%s\n", workload_name, scheme_name,
              cpi::ir::PrintModule(*optimized).c_str());
  for (const auto& ps : co.opt.passes) {
    std::printf("pass %-22s removed=%llu checks=%llu store_ops=%llu seal_ops=%llu "
                "forwarded=%llu leaf_rets=%llu\n",
                ps.pass.c_str(), (unsigned long long)ps.removed_instructions,
                (unsigned long long)ps.eliminated_checks,
                (unsigned long long)ps.eliminated_safe_store_ops,
                (unsigned long long)ps.eliminated_seal_ops,
                (unsigned long long)ps.forwarded_loads,
                (unsigned long long)ps.leaf_ret_elisions);
  }
  return 0;
}
