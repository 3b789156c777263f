//===- bytecode/Verifier.cpp - Static bytecode checking ------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"

#include "support/StringUtils.h"

#include <vector>

using namespace aoci;

bool aoci::verifyMethod(const Program &P, const Method &M,
                        std::vector<std::string> &Errors) {
  const size_t Before = Errors.size();
  const std::string Where = P.qualifiedName(M.id());
  auto error = [&](const std::string &Msg) {
    Errors.push_back(Where + ": " + Msg);
  };

  if (M.IsAbstract) {
    if (!M.Body.empty())
      error("abstract method has a body");
    return Errors.size() == Before;
  }
  if (M.Body.empty()) {
    error("concrete method has no body");
    return false;
  }

  const unsigned Size = static_cast<unsigned>(M.Body.size());

  // Pass 1: operand validity.
  for (unsigned PC = 0; PC != Size; ++PC) {
    const Instruction &I = M.Body[PC];
    auto instrError = [&](const std::string &Msg) {
      error(formatString("pc %u (%s): ", PC, opcodeName(I.Op)) + Msg);
    };

    switch (opcodeInfo(I.Op).Operand) {
    case OperandKind::Local:
      if (I.Operand < 0 || I.Operand >= M.NumLocals)
        instrError(formatString("local slot %lld out of range (%u locals)",
                                static_cast<long long>(I.Operand),
                                M.NumLocals));
      break;
    case OperandKind::Target:
      if (I.Operand < 0 || I.Operand >= Size)
        instrError("branch target out of range");
      break;
    case OperandKind::Class:
      if (I.Operand < 0 || I.Operand >= P.numClasses()) {
        instrError("class id out of range");
        break;
      }
      if (I.Op == Opcode::New &&
          !P.klass(static_cast<ClassId>(I.Operand)).isInstantiable())
        instrError("new of a non-instantiable class");
      break;
    case OperandKind::Units:
      if (I.Operand <= 0)
        instrError("work units must be positive");
      break;
    case OperandKind::Method: {
      if (I.Operand < 0 || I.Operand >= P.numMethods()) {
        instrError("method id out of range");
        break;
      }
      const Method &Callee = P.method(static_cast<MethodId>(I.Operand));
      switch (I.Op) {
      case Opcode::InvokeStatic:
        if (Callee.Kind != MethodKind::Static)
          instrError("invokestatic of a non-static method");
        break;
      case Opcode::InvokeSpecial:
        if (Callee.Kind != MethodKind::Special)
          instrError("invokespecial of a non-special method");
        break;
      case Opcode::InvokeVirtual:
        if (Callee.Kind != MethodKind::Virtual)
          instrError("invokevirtual of a non-virtual method");
        break;
      case Opcode::InvokeInterface:
        if (Callee.Kind != MethodKind::Interface)
          instrError("invokeinterface of a non-interface method");
        break;
      default:
        break;
      }
      if ((I.Op == Opcode::InvokeStatic || I.Op == Opcode::InvokeSpecial) &&
          Callee.IsAbstract)
        instrError("direct call to an abstract method");
      if (Callee.NumParams < 32 && (I.ConstArgMask >> Callee.NumParams) != 0)
        instrError("const-arg mask names a nonexistent parameter");
      break;
    }
    case OperandKind::None:
    case OperandKind::Int:
    case OperandKind::Field:
      break;
    }
    if (I.Op == Opcode::ValueReturn && !M.ReturnsValue)
      instrError("value return from a void method");
    if (I.Op == Opcode::Return && M.ReturnsValue)
      instrError("void return from a value-returning method");
  }
  if (const unsigned Units = Method::machineUnitsOf(M.Body);
      Units != M.machineSize())
    error(formatString("recorded machine size %u, body has %u",
                       M.machineSize(), Units));
  if (Errors.size() != Before)
    return false;

  // Pass 2: stack-depth dataflow. DepthAt[pc] == -1 means unvisited.
  std::vector<int> DepthAt(Size, -1);
  std::vector<unsigned> Worklist;
  DepthAt[0] = 0;
  Worklist.push_back(0);

  auto propagate = [&](unsigned PC, int Depth) {
    if (PC >= Size) {
      error("control flow falls off the end of the body");
      return;
    }
    if (DepthAt[PC] == -1) {
      DepthAt[PC] = Depth;
      Worklist.push_back(PC);
      return;
    }
    if (DepthAt[PC] != Depth)
      error(formatString("inconsistent stack depth at pc %u (%d vs %d)", PC,
                         DepthAt[PC], Depth));
  };

  while (!Worklist.empty() && Errors.size() == Before) {
    unsigned PC = Worklist.back();
    Worklist.pop_back();
    const Instruction &I = M.Body[PC];
    int Depth = DepthAt[PC];

    unsigned Pops = opcodeInfo(I.Op).Pops, Pushes = opcodeInfo(I.Op).Pushes;
    if (isInvoke(I.Op)) {
      const Method &Callee = P.method(static_cast<MethodId>(I.Operand));
      Pops = Callee.numArgSlots();
      Pushes = Callee.ReturnsValue ? 1 : 0;
    }
    if (Depth < static_cast<int>(Pops)) {
      error(formatString("stack underflow at pc %u (%s): depth %d, needs %u",
                         PC, opcodeName(I.Op), Depth, Pops));
      break;
    }
    int NewDepth = Depth - static_cast<int>(Pops) + static_cast<int>(Pushes);
    if (NewDepth > static_cast<int>(MaxOperandStackDepth)) {
      error(formatString("operand stack deeper than %u at pc %u",
                         MaxOperandStackDepth, PC));
      break;
    }

    if (isReturn(I.Op))
      continue;
    if (I.Op == Opcode::Goto) {
      propagate(static_cast<unsigned>(I.Operand), NewDepth);
      continue;
    }
    if (isBranch(I.Op))
      propagate(static_cast<unsigned>(I.Operand), NewDepth);
    propagate(PC + 1, NewDepth);
  }

  return Errors.size() == Before;
}

std::vector<std::string> aoci::verifyProgram(const Program &P) {
  std::vector<std::string> Errors;

  if (P.entryMethod() == InvalidMethodId) {
    Errors.push_back("program has no entry point");
  } else {
    const Method &Entry = P.method(P.entryMethod());
    if (Entry.Kind != MethodKind::Static)
      Errors.push_back("entry point is not a static method");
    if (Entry.NumParams != 0)
      Errors.push_back("entry point takes parameters");
  }

  for (ClassId C = 0; C != P.numClasses(); ++C) {
    const Klass &K = P.klass(C);
    if (K.Super != InvalidClassId && K.Super >= C)
      Errors.push_back(K.Name + ": superclass registered after subclass");
    for (ClassId I : K.Interfaces) {
      if (I >= C)
        Errors.push_back(K.Name + ": interface registered after implementor");
      else if (!P.klass(I).IsInterface)
        Errors.push_back(K.Name + ": implements a non-interface");
    }
  }

  for (MethodId M = 0; M != P.numMethods(); ++M)
    verifyMethod(P, P.method(M), Errors);

  return Errors;
}
