// Quickstart: a classic function-pointer overflow, run unprotected
// (hijacked), then rebuilt with -fcpi (safe).
//
// The program is the RIPE row direct-overflow/global/struct-func-ptr: a
// global struct holds a 32-byte buffer followed by a handler pointer, an
// unbounded copy of attacker bytes overruns the buffer, and the program then
// calls the handler. The exploit is crafted the way RIPE does it: padding up
// to the handler field, then the gadget's address (the program layout is
// known, as a binary's layout is to an attacker).
//
//   $ ./examples/example_quickstart
//
// Exits 1 if vanilla is not hijacked or CPI is.
#include <cstdio>

#include "src/attacks/ripe.h"
#include "src/ir/printer.h"

namespace {

// Runs the attack under `protection` and prints its verdict.
bool Hijacked(const cpi::attacks::AttackSpec& spec, cpi::core::Protection protection) {
  cpi::core::Config config;
  config.protection = protection;
  const cpi::attacks::AttackResult r = cpi::attacks::RunAttack(spec, config);
  std::printf("status: %s, outcome: %s\n", cpi::vm::RunStatusName(r.status),
              cpi::attacks::AttackOutcomeName(r.outcome));
  return r.Hijacked();
}

}  // namespace

int main() {
  const cpi::attacks::AttackSpec spec{cpi::attacks::Technique::kDirectOverflow,
                                      cpi::attacks::Location::kGlobal,
                                      cpi::attacks::Target::kStructFuncPtr};
  auto program = cpi::attacks::BuildAttackProgram(spec);
  std::printf("%s\n", cpi::ir::PrintModule(*program).c_str());

  std::printf("== vanilla build ==\n");
  const bool vanilla_hijacked = Hijacked(spec, cpi::core::Protection::kNone);
  std::printf("\n== rebuilt with -fcpi ==\n");
  const bool cpi_hijacked = Hijacked(spec, cpi::core::Protection::kCpi);
  std::printf("\nUnprotected, the overflow replaces the handler and the gadget runs;\n"
              "under CPI the handler is loaded from the safe store, which the\n"
              "overflow cannot reach, so the attack has no effect.\n");
  return vanilla_hijacked && !cpi_hijacked ? 0 : 1;
}
