//===- bytecode/Method.h - Method metadata and body -------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares Method: the static description of a callable unit — its owner
/// class, dispatch kind, signature shape, bytecode body, and the derived
/// size metrics the inlining heuristics of Section 3.1 consume.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BYTECODE_METHOD_H
#define AOCI_BYTECODE_METHOD_H

#include "bytecode/Instruction.h"

#include <string>
#include <vector>

namespace aoci {

/// How a method participates in dispatch.
enum class MethodKind : uint8_t {
  Static,    ///< Class method: no receiver (the paper's "class methods").
  Virtual,   ///< Instance method dispatched on the receiver class.
  Interface, ///< Instance method declared on an interface.
  Special,   ///< Instance method that is never dispatched virtually
             ///< (constructors, private helpers).
};

/// Static description of a method.
class Method {
public:
  /// Owner class.
  ClassId Owner = InvalidClassId;
  /// Unqualified name, e.g. "hashCode".
  std::string Name;
  /// Dispatch kind.
  MethodKind Kind = MethodKind::Static;
  /// Number of declared parameters, excluding any receiver.
  uint16_t NumParams = 0;
  /// Number of local-variable slots, including parameters and receiver.
  uint16_t NumLocals = 0;
  /// True if the method returns a value (ValueReturn), false for void.
  bool ReturnsValue = false;
  /// True if the method may not be overridden; enables unguarded inlining
  /// of virtual calls that resolve to it (the pre-existence/final case).
  bool IsFinal = false;
  /// True for interface/abstract declarations with no body; such methods
  /// can never execute directly and exist only as dispatch roots.
  bool IsAbstract = false;
  /// The root declaration this method overrides (its own id when it is
  /// itself the root). Virtual/interface call sites name the root; dynamic
  /// dispatch maps (receiver class, root) to the implementation.
  MethodId OverrideRoot = InvalidMethodId;
  /// Bytecode body; empty for abstract methods. Written only through
  /// setBody(), which records its machine size.
  std::vector<Instruction> Body;

  /// Returns this method's id; assigned by the Program when registered.
  MethodId id() const { return Id; }

  /// Returns true for instance methods (anything with a receiver).
  bool hasReceiver() const { return Kind != MethodKind::Static; }

  /// Number of local slots occupied by the incoming arguments (receiver
  /// plus declared parameters). Arguments arrive in locals [0, numArgSlots).
  unsigned numArgSlots() const {
    return NumParams + (hasReceiver() ? 1u : 0u);
  }

  /// True when the method declares no parameters. Note the receiver does
  /// not count: this is the predicate behind the "Parameterless Methods"
  /// early-termination policy of Section 4.3, which explicitly calls the
  /// \c this parameter an exception it chooses to ignore.
  bool isParameterless() const { return NumParams == 0; }

  /// Number of bytecodes in the body. This is the unit Table 1 reports.
  unsigned bytecodeCount() const {
    return static_cast<unsigned>(Body.size());
  }

  /// Installs \p NewBody and records its machine size, \p Units, which
  /// must be machineUnitsOf(NewBody). The emitter adds it up as it emits,
  /// so building a program makes no second pass over its bodies; the
  /// verifier checks it.
  void setBody(std::vector<Instruction> NewBody, unsigned Units);

  /// The machine size of \p Body: the sum of its instructions' sizes.
  static unsigned machineUnitsOf(const std::vector<Instruction> &Body);

  /// Estimated machine instructions for the whole body; the size the
  /// inliner's tiny/small/medium/large classification is based on.
  /// Recorded by setBody(), so asking costs nothing.
  unsigned machineSize() const { return MachineUnits; }

  /// Bytecode indices of all invoke instructions in the body.
  std::vector<BytecodeIndex> callSites() const;

private:
  friend class Program;
  MethodId Id = InvalidMethodId;
  unsigned MachineUnits = 0;
};

} // namespace aoci

#endif // AOCI_BYTECODE_METHOD_H
