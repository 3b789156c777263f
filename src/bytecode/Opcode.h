//===- bytecode/Opcode.h - The AOCI bytecode instruction set ----*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines the opcode enumeration for the Java-like stack bytecode the VM
/// substrate executes. The ISA is deliberately small but expressive enough
/// to encode the behavioural signatures of the paper's benchmarks:
/// arithmetic loops, object allocation, field traffic, arrays, conditional
/// control flow, and all four invocation kinds (static, virtual, interface,
/// special). Each opcode's facts are one row of Opcodes.def.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BYTECODE_OPCODE_H
#define AOCI_BYTECODE_OPCODE_H

#include <cstdint>
#include <iterator>

namespace aoci {

/// Bytecode opcodes, one per row of Opcodes.def (which documents each
/// one's semantics).
enum class Opcode : uint8_t {
#define OPCODE(Name, Mnemonic, Pops, Pushes, Weight, Operand) Name,
#include "bytecode/Opcodes.def"
};

/// What an instruction's immediate operand holds.
enum class OperandKind : uint8_t {
  None,   ///< No operand.
  Int,    ///< An integer constant.
  Local,  ///< A local-variable slot of the method.
  Field,  ///< A field index of the receiver object.
  Target, ///< A branch target pc; the opcode is a branch.
  Class,  ///< A ClassId.
  Units,  ///< A positive count of abstract work units.
  Method, ///< A MethodId; the opcode is an invoke.
};

/// One row of Opcodes.def.
struct OpcodeInfo {
  Opcode Op;
  const char *Mnemonic;
  /// Operand-stack values consumed and produced (0 for invokes, whose
  /// effect is the callee's argument slots and return value).
  uint8_t Pops, Pushes;
  /// Machine instructions the optimizing compiler emits; per unit for a
  /// Units operand.
  uint8_t Weight;
  OperandKind Operand;
};

/// Opcodes.def's rows, indexed by Opcode.
inline constexpr OpcodeInfo OpcodeTable[] = {
#define OPCODE(Name, Mnemonic, Pops, Pushes, Weight, Operand)                  \
  {Opcode::Name, Mnemonic, Pops, Pushes, Weight, OperandKind::Operand},
#include "bytecode/Opcodes.def"
};

/// Number of distinct opcodes.
constexpr unsigned NumOpcodes = std::size(OpcodeTable);

static_assert(
    [] {
      for (unsigned I = 0; I != NumOpcodes; ++I)
        if (OpcodeTable[I].Op != static_cast<Opcode>(I))
          return false;
      return true;
    }(),
    "OpcodeTable row i must describe Opcode i");

/// Returns \p Op's row of Opcodes.def.
constexpr const OpcodeInfo &opcodeInfo(Opcode Op) {
  return OpcodeTable[static_cast<unsigned>(Op)];
}

/// Returns the mnemonic for \p Op (e.g. "invokevirtual").
constexpr const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Mnemonic; }

/// Returns true for the four Invoke* opcodes.
constexpr bool isInvoke(Opcode Op) {
  return opcodeInfo(Op).Operand == OperandKind::Method;
}

/// Returns true for opcodes that transfer control (Goto and conditional
/// branches); invokes and returns are not included.
constexpr bool isBranch(Opcode Op) {
  return opcodeInfo(Op).Operand == OperandKind::Target;
}

/// Returns true for Return and ValueReturn.
constexpr bool isReturn(Opcode Op) {
  return Op == Opcode::Return || Op == Opcode::ValueReturn;
}

/// Estimated number of machine instructions the optimizing compiler would
/// emit for \p Op. This drives the paper's size classification of methods
/// (tiny/small/medium/large are defined as multiples of the size of a call,
/// Section 3.1) and the bytes-of-machine-code accounting behind Figure 5.
/// Work models straight-line compute kernels, so its footprint scales with
/// its immediate \p Operand (at least one unit).
constexpr unsigned machineWeight(Opcode Op, int64_t Operand) {
  const OpcodeInfo &Info = opcodeInfo(Op);
  if (Info.Operand != OperandKind::Units)
    return Info.Weight;
  return (Operand < 1 ? 1u : static_cast<unsigned>(Operand)) * Info.Weight;
}

} // namespace aoci

#endif // AOCI_BYTECODE_OPCODE_H
