//===- bytecode/Instruction.h - A single bytecode instruction ---*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The encoded form of a bytecode instruction, plus the common identifier
/// typedefs shared across the bytecode library.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BYTECODE_INSTRUCTION_H
#define AOCI_BYTECODE_INSTRUCTION_H

#include "bytecode/Opcode.h"

#include <cstdint>
#include <limits>

namespace aoci {

/// Index of a class within a Program.
using ClassId = uint32_t;
/// Index of a method within a Program.
using MethodId = uint32_t;
/// Index of an instruction within a method body; doubles as the call-site
/// identifier for invoke instructions.
using BytecodeIndex = uint32_t;

/// Sentinel for "no class".
constexpr ClassId InvalidClassId = std::numeric_limits<ClassId>::max();
/// Sentinel for "no method".
constexpr MethodId InvalidMethodId = std::numeric_limits<MethodId>::max();

/// One bytecode instruction.
///
/// \c Operand is the immediate: a constant for IConst, a local index for
/// Load/StoreLocal, a branch target for control flow, a ClassId for
/// New/InstanceOf, a field index for Get/PutField, a MethodId for invokes,
/// and a work-unit count for Work.
///
/// \c ConstArgMask applies only to invokes: bit i set means argument i is
/// a compile-time constant at this call site. The optimizing compiler uses
/// it to shrink the inlined-size estimate of the callee, modelling the
/// constant-folding adjustment of the paper's footnote 1.
struct Instruction {
  Opcode Op = Opcode::Nop;
  uint32_t ConstArgMask = 0;
  int64_t Operand = 0;

  Instruction() = default;
  Instruction(Opcode Op, int64_t Operand = 0, uint32_t ConstArgMask = 0)
      : Op(Op), ConstArgMask(ConstArgMask), Operand(Operand) {}

  /// Returns the estimated machine-instruction footprint of this
  /// instruction (see machineWeight()).
  unsigned machineSize() const { return machineWeight(Op, Operand); }

  bool operator==(const Instruction &Other) const {
    return Op == Other.Op && Operand == Other.Operand &&
           ConstArgMask == Other.ConstArgMask;
  }
};

// Instructions are most of a program image's bytes, and the interpreter
// strides over them. Declaring ConstArgMask before Operand lets it share
// the opcode's eight-byte slot; in constructor order (Op, Operand,
// ConstArgMask) each instruction would carry 11 bytes of padding and take
// 24 bytes.
static_assert(sizeof(Instruction) == 16,
              "Instruction must pack into 16 bytes");

} // namespace aoci

#endif // AOCI_BYTECODE_INSTRUCTION_H
