//===- bytecode/ProgramBuilder.cpp - Fluent program construction ---------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"

#include <cassert>

using namespace aoci;

//===----------------------------------------------------------------------===//
// CodeEmitter
//===----------------------------------------------------------------------===//

CodeEmitter::Label CodeEmitter::newLabel() {
  LabelPos.push_back(-1);
  return static_cast<Label>(LabelPos.size() - 1);
}

CodeEmitter &CodeEmitter::bind(Label L) {
  assert(L < LabelPos.size() && "unknown label");
  assert(LabelPos[L] < 0 && "label bound twice");
  LabelPos[L] = static_cast<int64_t>(Body.size());
  return *this;
}

CodeEmitter &CodeEmitter::emit(Opcode Op, int64_t Operand, uint32_t Mask) {
  assert(!Finished && "emitting into a finished body");
  Body.emplace_back(Op, Operand, Mask);
  // A branch target is patched in later, but only a Units operand sizes
  // an instruction.
  MachineUnits += machineWeight(Op, Operand);
  return *this;
}

CodeEmitter &CodeEmitter::nop() { return emit(Opcode::Nop); }
CodeEmitter &CodeEmitter::iconst(int64_t V) { return emit(Opcode::IConst, V); }
CodeEmitter &CodeEmitter::constNull() { return emit(Opcode::ConstNull); }

CodeEmitter &CodeEmitter::load(unsigned Slot) {
  if (Slot > MaxLocalSlot)
    MaxLocalSlot = Slot;
  return emit(Opcode::LoadLocal, Slot);
}

CodeEmitter &CodeEmitter::store(unsigned Slot) {
  if (Slot > MaxLocalSlot)
    MaxLocalSlot = Slot;
  return emit(Opcode::StoreLocal, Slot);
}

CodeEmitter &CodeEmitter::dup() { return emit(Opcode::Dup); }
CodeEmitter &CodeEmitter::pop() { return emit(Opcode::Pop); }
CodeEmitter &CodeEmitter::swap() { return emit(Opcode::Swap); }
CodeEmitter &CodeEmitter::iadd() { return emit(Opcode::IAdd); }
CodeEmitter &CodeEmitter::isub() { return emit(Opcode::ISub); }
CodeEmitter &CodeEmitter::imul() { return emit(Opcode::IMul); }
CodeEmitter &CodeEmitter::idiv() { return emit(Opcode::IDiv); }
CodeEmitter &CodeEmitter::irem() { return emit(Opcode::IRem); }
CodeEmitter &CodeEmitter::iand() { return emit(Opcode::IAnd); }
CodeEmitter &CodeEmitter::ior() { return emit(Opcode::IOr); }
CodeEmitter &CodeEmitter::ixor() { return emit(Opcode::IXor); }
CodeEmitter &CodeEmitter::ishl() { return emit(Opcode::IShl); }
CodeEmitter &CodeEmitter::ishr() { return emit(Opcode::IShr); }
CodeEmitter &CodeEmitter::ineg() { return emit(Opcode::INeg); }
CodeEmitter &CodeEmitter::icmpEq() { return emit(Opcode::ICmpEq); }
CodeEmitter &CodeEmitter::icmpNe() { return emit(Opcode::ICmpNe); }
CodeEmitter &CodeEmitter::icmpLt() { return emit(Opcode::ICmpLt); }
CodeEmitter &CodeEmitter::icmpLe() { return emit(Opcode::ICmpLe); }
CodeEmitter &CodeEmitter::icmpGt() { return emit(Opcode::ICmpGt); }
CodeEmitter &CodeEmitter::icmpGe() { return emit(Opcode::ICmpGe); }

CodeEmitter &CodeEmitter::jump(Label L) {
  Fixups.emplace_back(Body.size(), L);
  return emit(Opcode::Goto, -1);
}

CodeEmitter &CodeEmitter::ifZero(Label L) {
  Fixups.emplace_back(Body.size(), L);
  return emit(Opcode::IfZero, -1);
}

CodeEmitter &CodeEmitter::ifNonZero(Label L) {
  Fixups.emplace_back(Body.size(), L);
  return emit(Opcode::IfNonZero, -1);
}

CodeEmitter &CodeEmitter::ifNull(Label L) {
  Fixups.emplace_back(Body.size(), L);
  return emit(Opcode::IfNull, -1);
}

CodeEmitter &CodeEmitter::ifNonNull(Label L) {
  Fixups.emplace_back(Body.size(), L);
  return emit(Opcode::IfNonNull, -1);
}

CodeEmitter &CodeEmitter::newObject(ClassId C) {
  return emit(Opcode::New, C);
}

CodeEmitter &CodeEmitter::getField(unsigned Index) {
  return emit(Opcode::GetField, Index);
}

CodeEmitter &CodeEmitter::putField(unsigned Index) {
  return emit(Opcode::PutField, Index);
}

CodeEmitter &CodeEmitter::newArray() { return emit(Opcode::NewArray); }
CodeEmitter &CodeEmitter::arrayLoad() { return emit(Opcode::ArrayLoad); }
CodeEmitter &CodeEmitter::arrayStore() { return emit(Opcode::ArrayStore); }
CodeEmitter &CodeEmitter::arrayLength() { return emit(Opcode::ArrayLength); }

CodeEmitter &CodeEmitter::instanceOf(ClassId C) {
  return emit(Opcode::InstanceOf, C);
}

CodeEmitter &CodeEmitter::work(int64_t Units) {
  assert(Units > 0 && "work units must be positive");
  return emit(Opcode::Work, Units);
}

CodeEmitter &CodeEmitter::invokeStatic(MethodId Callee, uint32_t Mask) {
  return emit(Opcode::InvokeStatic, Callee, Mask);
}

CodeEmitter &CodeEmitter::invokeVirtual(MethodId Callee, uint32_t Mask) {
  return emit(Opcode::InvokeVirtual, Callee, Mask);
}

CodeEmitter &CodeEmitter::invokeInterface(MethodId Callee, uint32_t Mask) {
  return emit(Opcode::InvokeInterface, Callee, Mask);
}

CodeEmitter &CodeEmitter::invokeSpecial(MethodId Callee, uint32_t Mask) {
  return emit(Opcode::InvokeSpecial, Callee, Mask);
}

CodeEmitter &CodeEmitter::ret() { return emit(Opcode::Return); }
CodeEmitter &CodeEmitter::vreturn() { return emit(Opcode::ValueReturn); }

void CodeEmitter::finish() {
  assert(!Finished && "finish() called twice");
  Finished = true;

  for (const auto &[InstrIdx, L] : Fixups) {
    assert(LabelPos[L] >= 0 && "branch to unbound label");
    Body[InstrIdx].Operand = LabelPos[L];
  }

  Method &Target = Builder.Prog.mutableMethod(M);
  assert(Target.Body.empty() && "method body installed twice");
  assert(!Body.empty() && "empty method body");
  Target.setBody(std::move(Body), MachineUnits);

  unsigned Needed = MaxLocalSlot + 1;
  if (Needed < Target.numArgSlots())
    Needed = Target.numArgSlots();
  Target.NumLocals = static_cast<uint16_t>(Needed);

  Builder.HasBody[M] = true;
}

//===----------------------------------------------------------------------===//
// ProgramBuilder
//===----------------------------------------------------------------------===//

ClassId ProgramBuilder::addClass(const std::string &Name, ClassId Super,
                                 unsigned NumFields) {
  Klass K;
  K.Name = Name;
  K.Super = Super;
  unsigned Inherited =
      Super == InvalidClassId ? 0 : Prog.klass(Super).NumFields;
  K.NumFields = static_cast<uint16_t>(Inherited + NumFields);
  return Prog.addClass(std::move(K));
}

ClassId ProgramBuilder::addAbstractClass(const std::string &Name,
                                         ClassId Super, unsigned NumFields) {
  ClassId C = addClass(Name, Super, NumFields);
  Prog.mutableKlass(C).IsAbstract = true;
  return C;
}

ClassId ProgramBuilder::addInterface(const std::string &Name) {
  Klass K;
  K.Name = Name;
  K.IsInterface = true;
  return Prog.addClass(std::move(K));
}

void ProgramBuilder::implement(ClassId C, ClassId Iface) {
  assert(Prog.klass(Iface).IsInterface && "implementing a non-interface");
  assert(Iface < C && "interface must be registered before implementor");
  Prog.mutableKlass(C).Interfaces.push_back(Iface);
}

MethodId ProgramBuilder::declareMethod(ClassId Owner, const std::string &Name,
                                       MethodKind Kind, unsigned NumParams,
                                       bool ReturnsValue, bool IsFinal) {
  Method M;
  M.Owner = Owner;
  M.Name = Name;
  M.Kind = Kind;
  M.NumParams = static_cast<uint16_t>(NumParams);
  M.ReturnsValue = ReturnsValue;
  M.IsFinal = IsFinal;
  MethodId Id = Prog.addMethod(std::move(M));
  HasBody.resize(Prog.numMethods(), false);
  return Id;
}

MethodId ProgramBuilder::declareAbstractMethod(ClassId Owner,
                                               const std::string &Name,
                                               MethodKind Kind,
                                               unsigned NumParams,
                                               bool ReturnsValue) {
  assert((Kind == MethodKind::Virtual || Kind == MethodKind::Interface) &&
         "only dispatched methods can be abstract");
  MethodId Id = declareMethod(Owner, Name, Kind, NumParams, ReturnsValue);
  Prog.mutableMethod(Id).IsAbstract = true;
  return Id;
}

MethodId ProgramBuilder::addOverride(ClassId Owner, MethodId Root,
                                     bool IsFinal) {
  const Method &RootM = Prog.method(Root);
  assert((RootM.Kind == MethodKind::Virtual ||
          RootM.Kind == MethodKind::Interface) &&
         "overriding a non-dispatched method");
  Method M;
  M.Owner = Owner;
  M.Name = RootM.Name;
  M.Kind = MethodKind::Virtual;
  M.NumParams = RootM.NumParams;
  M.ReturnsValue = RootM.ReturnsValue;
  M.IsFinal = IsFinal;
  M.OverrideRoot = RootM.OverrideRoot;
  MethodId Id = Prog.addMethod(std::move(M));
  HasBody.resize(Prog.numMethods(), false);
  return Id;
}

CodeEmitter ProgramBuilder::code(MethodId M) {
  assert(!Prog.method(M).IsAbstract && "abstract methods have no body");
  return CodeEmitter(*this, M);
}

void ProgramBuilder::setEntry(MethodId M) {
  assert(Prog.method(M).Kind == MethodKind::Static &&
         "entry point must be a static method");
  Prog.setEntryMethod(M);
}

Program ProgramBuilder::build() {
  assert(Prog.entryMethod() != InvalidMethodId && "no entry point set");
  for (MethodId M = 0; M != Prog.numMethods(); ++M)
    assert((Prog.method(M).IsAbstract || HasBody[M]) &&
           "concrete method missing a body");
  return std::move(Prog);
}
