//===- bytecode/ProgramBuilder.h - Fluent program construction --*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small DSL for constructing Programs: classes, interfaces, method
/// declarations/overrides, and a fluent bytecode emitter with forward
/// labels. All workload generators and tests build programs through this
/// interface; it enforces the registration-order invariants the
/// ClassHierarchy relies on.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BYTECODE_PROGRAMBUILDER_H
#define AOCI_BYTECODE_PROGRAMBUILDER_H

#include "bytecode/Program.h"

#include <string>
#include <vector>

namespace aoci {

class ProgramBuilder;

/// Fluent bytecode emitter for one method. Obtain via
/// ProgramBuilder::code(); call finish() exactly once when done. Branch
/// targets are expressed as labels that may be bound before or after use.
class CodeEmitter {
public:
  /// Opaque label handle.
  using Label = unsigned;

  /// Allocates an unbound label.
  Label newLabel();

  /// Binds \p L to the next emitted instruction.
  CodeEmitter &bind(Label L);

  CodeEmitter &nop();
  CodeEmitter &iconst(int64_t V);
  CodeEmitter &constNull();
  CodeEmitter &load(unsigned Slot);
  CodeEmitter &store(unsigned Slot);
  CodeEmitter &dup();
  CodeEmitter &pop();
  CodeEmitter &swap();
  CodeEmitter &iadd();
  CodeEmitter &isub();
  CodeEmitter &imul();
  CodeEmitter &idiv();
  CodeEmitter &irem();
  CodeEmitter &iand();
  CodeEmitter &ior();
  CodeEmitter &ixor();
  CodeEmitter &ishl();
  CodeEmitter &ishr();
  CodeEmitter &ineg();
  CodeEmitter &icmpEq();
  CodeEmitter &icmpNe();
  CodeEmitter &icmpLt();
  CodeEmitter &icmpLe();
  CodeEmitter &icmpGt();
  CodeEmitter &icmpGe();
  CodeEmitter &jump(Label L);
  CodeEmitter &ifZero(Label L);
  CodeEmitter &ifNonZero(Label L);
  CodeEmitter &ifNull(Label L);
  CodeEmitter &ifNonNull(Label L);
  CodeEmitter &newObject(ClassId C);
  CodeEmitter &getField(unsigned Index);
  CodeEmitter &putField(unsigned Index);
  CodeEmitter &newArray();
  CodeEmitter &arrayLoad();
  CodeEmitter &arrayStore();
  CodeEmitter &arrayLength();
  CodeEmitter &instanceOf(ClassId C);
  CodeEmitter &work(int64_t Units);
  CodeEmitter &invokeStatic(MethodId M, uint32_t ConstArgMask = 0);
  CodeEmitter &invokeVirtual(MethodId M, uint32_t ConstArgMask = 0);
  CodeEmitter &invokeInterface(MethodId M, uint32_t ConstArgMask = 0);
  CodeEmitter &invokeSpecial(MethodId M, uint32_t ConstArgMask = 0);
  CodeEmitter &ret();
  CodeEmitter &vreturn();

  /// Index of the next instruction to be emitted; the call-site id an
  /// invoke emitted next would get.
  BytecodeIndex nextIndex() const {
    return static_cast<BytecodeIndex>(Body.size());
  }

  /// Patches labels, computes the local-slot count, and installs the body
  /// into the method. Must be called exactly once.
  void finish();

private:
  friend class ProgramBuilder;
  CodeEmitter(ProgramBuilder &Builder, MethodId M)
      : Builder(Builder), M(M) {}

  CodeEmitter &emit(Opcode Op, int64_t Operand = 0, uint32_t Mask = 0);

  ProgramBuilder &Builder;
  MethodId M;
  std::vector<Instruction> Body;
  /// Bound position per label, or -1 while unbound.
  std::vector<int64_t> LabelPos;
  /// (instruction index, label) pairs awaiting patching.
  std::vector<std::pair<size_t, Label>> Fixups;
  unsigned MaxLocalSlot = 0;
  /// Machine size of the instructions emitted so far.
  unsigned MachineUnits = 0;
  bool Finished = false;
};

/// Builder for whole programs; see the file comment for the protocol.
class ProgramBuilder {
public:
  /// Adds a concrete class. \p Super must already be registered.
  ClassId addClass(const std::string &Name, ClassId Super = InvalidClassId,
                   unsigned NumFields = 0);

  /// Adds an abstract class (dispatchable, never instantiated).
  ClassId addAbstractClass(const std::string &Name,
                           ClassId Super = InvalidClassId,
                           unsigned NumFields = 0);

  /// Adds an interface.
  ClassId addInterface(const std::string &Name);

  /// Records that \p C implements \p Iface. \p Iface must be registered
  /// before \p C.
  void implement(ClassId C, ClassId Iface);

  /// Declares a concrete method. For Virtual/Interface kinds the method is
  /// its own override root. \p NumParams excludes the receiver.
  MethodId declareMethod(ClassId Owner, const std::string &Name,
                         MethodKind Kind, unsigned NumParams,
                         bool ReturnsValue, bool IsFinal = false);

  /// Declares an abstract dispatch root (no body) on an interface or
  /// abstract class.
  MethodId declareAbstractMethod(ClassId Owner, const std::string &Name,
                                 MethodKind Kind, unsigned NumParams,
                                 bool ReturnsValue);

  /// Declares a concrete override of \p Root in \p Owner; name and
  /// signature are inherited from the root.
  MethodId addOverride(ClassId Owner, MethodId Root, bool IsFinal = false);

  /// Returns an emitter for \p M's body. The method must be concrete and
  /// not yet have a body.
  CodeEmitter code(MethodId M);

  /// Marks \p M (a static method) as the program entry point.
  void setEntry(MethodId M);

  /// Finalizes and returns the program. Asserts that every concrete method
  /// received a finished body and that an entry point was set.
  Program build();

  /// Access to the program under construction (for emitters and advanced
  /// generators that compute ids on the fly).
  Program &program() { return Prog; }

private:
  friend class CodeEmitter;
  Program Prog;
  std::vector<bool> HasBody;
};

} // namespace aoci

#endif // AOCI_BYTECODE_PROGRAMBUILDER_H
