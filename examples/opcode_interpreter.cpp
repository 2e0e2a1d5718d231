// The Perl-opcode-dispatch example from §3.3, as a RIPE row.
//
// The paper uses a bytecode interpreter to explain why CPS is stronger than
// CFI: CFI admits *any* address-taken handler at an indirect call site,
// while CPS only admits code pointers that the program actually stored
// there. The row arbitrary-write/global/func-ptr/addr-taken is that
// situation: the gadget (think of Perl's `system` opcode) has its address
// taken elsewhere in the program, so it is in coarse CFI's valid target set,
// and an attacker-controlled write replaces a global function pointer with
// it. CFI accepts the hijack; CPS and CPI reject it.
//
//   $ ./examples/example_opcode_interpreter
//
// Exits 1 unless CFI is hijacked and CPS and CPI are not.
#include <cstdio>

#include "src/attacks/ripe.h"

int main() {
  using cpi::core::Protection;
  const cpi::attacks::AttackSpec spec{cpi::attacks::Technique::kArbitraryWrite,
                                      cpi::attacks::Location::kGlobal,
                                      cpi::attacks::Target::kFunctionPointer,
                                      /*gadget_address_taken=*/true};
  std::printf("%s\n", spec.Name().c_str());

  bool hijacked[4] = {};
  const Protection protections[] = {Protection::kNone, Protection::kCfi, Protection::kCps,
                                    Protection::kCpi};
  for (int i = 0; i < 4; ++i) {
    cpi::core::Config config;
    config.protection = protections[i];
    const cpi::attacks::AttackResult r = cpi::attacks::RunAttack(spec, config);
    hijacked[i] = r.Hijacked();
    std::printf("%-9s: status=%-9s %s\n", cpi::core::ProtectionName(protections[i]),
                cpi::vm::RunStatusName(r.status),
                hijacked[i] ? "gadget EXECUTED (hijack)" : "gadget never ran");
  }
  std::printf("\nCFI admits the hijack (the gadget is in the valid target set);\n"
              "CPS/CPI reject it: the corrupted slot never went through a\n"
              "code-pointer store, so the loaded value is not a safe code pointer.\n");
  return hijacked[1] && !hijacked[2] && !hijacked[3] ? 0 : 1;
}
