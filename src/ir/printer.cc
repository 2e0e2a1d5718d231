#include "src/ir/printer.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace cpi::ir {
namespace {

// Printed names of one function's arguments and instructions, in register
// order (args, then blocks in order: the ids RenumberValues would assign).
// An unnamed value prints as %vN, N its position; a name already taken gets
// a .1, .2, ... suffix, so every %name is defined once.
using NameTable = std::unordered_map<const Value*, std::string>;

NameTable NamesOf(const Function& f) {
  NameTable names;
  std::unordered_set<std::string> taken;
  uint32_t position = 0;
  auto add = [&](const Value* v, const std::string& name) {
    const std::string base = name.empty() ? "v" + std::to_string(position) : name;
    std::string unique = base;
    for (int n = 1; !taken.insert(unique).second; ++n) {
      unique = base + "." + std::to_string(n);
    }
    names.emplace(v, std::move(unique));
    ++position;
  };
  for (const auto& arg : f.args()) {
    add(arg.get(), arg->name());
  }
  for (const auto& bb : f.blocks()) {
    for (const Instruction* inst : bb->instructions()) {
      add(inst, inst->name());
    }
  }
  return names;
}

// `names` is null when printing a lone instruction.
std::string ValueRef(const Value* v, const NameTable* names) {
  switch (v->value_kind()) {
    case ValueKind::kConstInt: {
      const auto* c = static_cast<const ConstantInt*>(v);
      return std::to_string(static_cast<int64_t>(c->value())) + ":" + c->type()->ToString();
    }
    case ValueKind::kConstFloat:
      return std::to_string(static_cast<const ConstantFloat*>(v)->value());
    case ValueKind::kConstNull:
      return "null:" + v->type()->ToString();
    case ValueKind::kArgument:
    case ValueKind::kInstruction:
      break;
  }
  if (names != nullptr) {
    const auto it = names->find(v);
    if (it != names->end()) {
      return "%" + it->second;
    }
  }
  // A lone instruction, or a value outside the printed function.
  if (v->value_kind() == ValueKind::kArgument) {
    return "%" + static_cast<const Argument*>(v)->name();
  }
  const auto* inst = static_cast<const Instruction*>(v);
  if (!inst->name().empty()) {
    return "%" + inst->name();
  }
  return "%v" + std::to_string(inst->value_id());
}

void PrintInstructionTo(std::ostringstream& os, const Instruction& inst, const NameTable* names) {
  auto ref = [names](const Value* v) { return ValueRef(v, names); };
  if (!inst.type()->IsVoid()) {
    os << ref(&inst) << " = ";
  }
  switch (inst.op()) {
    case Opcode::kAlloca:
      os << "alloca " << inst.extra_type()->ToString() << " ["
         << StackKindName(inst.stack_kind()) << "]";
      return;
    case Opcode::kBinOp:
      os << BinOpName(inst.binop());
      break;
    case Opcode::kCast:
      os << CastKindName(inst.cast_kind());
      break;
    case Opcode::kLibCall:
      os << LibFuncName(inst.lib_func());
      break;
    case Opcode::kIntrinsic:
      os << IntrinsicName(inst.intrinsic());
      break;
    case Opcode::kCall:
      os << "call @" << inst.callee()->name();
      break;
    case Opcode::kSpawn:
      os << "spawn @" << inst.callee()->name();
      break;
    case Opcode::kFuncAddr:
      os << "funcaddr @" << inst.callee()->name();
      return;
    case Opcode::kGlobalAddr:
      os << "globaladdr @" << inst.global()->name();
      return;
    case Opcode::kFieldAddr: {
      const auto* st = static_cast<const StructType*>(
          static_cast<const PointerType*>(inst.operand(0)->type())->pointee());
      os << "fieldaddr " << ref(inst.operand(0)) << ", ."
         << st->fields()[inst.field_index()].name;
      return;
    }
    case Opcode::kBr:
      os << "br ^" << inst.successor(0)->name();
      return;
    case Opcode::kCondBr:
      os << "condbr " << ref(inst.operand(0)) << ", ^" << inst.successor(0)->name() << ", ^"
         << inst.successor(1)->name();
      return;
    default:
      os << OpcodeName(inst.op());
      break;
  }
  for (size_t i = 0; i < inst.operands().size(); ++i) {
    os << (i == 0 ? " " : ", ") << ref(inst.operand(i));
  }
  if (inst.op() == Opcode::kCast || inst.op() == Opcode::kMalloc) {
    os << " to " << inst.type()->ToString();
  }
}

}  // namespace

std::string PrintInstruction(const Instruction& inst) {
  std::ostringstream os;
  PrintInstructionTo(os, inst, nullptr);
  return os.str();
}

std::string PrintFunction(const Function& function) {
  const NameTable names = NamesOf(function);
  std::ostringstream os;
  os << "func @" << function.name() << "(";
  for (size_t i = 0; i < function.args().size(); ++i) {
    if (i != 0) {
      os << ", ";
    }
    const Argument* arg = function.args()[i].get();
    os << ValueRef(arg, &names) << ": " << arg->type()->ToString();
  }
  os << ") -> " << function.type()->return_type()->ToString();
  if (function.needs_unsafe_frame()) {
    os << " [unsafe-frame]";
  }
  if (function.has_stack_cookie()) {
    os << " [cookie]";
  }
  os << " {\n";
  for (const auto& bb : function.blocks()) {
    os << "^" << bb->name() << ":\n";
    for (const Instruction* inst : bb->instructions()) {
      os << "  ";
      std::ostringstream line;
      PrintInstructionTo(line, *inst, &names);
      os << line.str() << "\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string PrintModule(const Module& module) {
  std::ostringstream os;
  os << "; module " << module.name() << "\n";
  for (const auto& g : module.globals()) {
    os << "global @" << g->name() << ": " << g->type()->ToString()
       << (g->is_const() ? " const" : "") << "\n";
  }
  for (const auto& f : module.functions()) {
    os << "\n" << PrintFunction(*f);
  }
  return os.str();
}

}  // namespace cpi::ir
