// Textual rendering of modules, functions and instructions, in an
// LLVM-flavoured format. Used for debugging, golden tests, and inspecting
// what the instrumentation passes did.
#ifndef CPI_SRC_IR_PRINTER_H_
#define CPI_SRC_IR_PRINTER_H_

#include <string>

#include "src/ir/module.h"

namespace cpi::ir {

// Within a function every value prints under a unique name: its own, with a
// .N suffix if an earlier value took it, or %vN for an unnamed value at
// register position N. Printing never renumbers the module.
std::string PrintModule(const Module& module);
std::string PrintFunction(const Function& function);
// A lone instruction has no function to number against: unnamed values
// print with their current register id.
std::string PrintInstruction(const Instruction& inst);

}  // namespace cpi::ir

#endif  // CPI_SRC_IR_PRINTER_H_
