//===- bytecode/Disassembler.cpp - Textual bytecode dumps ----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"

#include "support/StringUtils.h"

using namespace aoci;

std::string aoci::disassembleInstruction(const Program &P,
                                         const Instruction &I) {
  std::string Out = opcodeName(I.Op);
  switch (opcodeInfo(I.Op).Operand) {
  case OperandKind::None:
    break;
  case OperandKind::Int:
  case OperandKind::Local:
  case OperandKind::Field:
  case OperandKind::Target:
  case OperandKind::Units:
    Out += formatString(" %lld", static_cast<long long>(I.Operand));
    break;
  case OperandKind::Class:
    Out += ' ';
    Out += P.klass(static_cast<ClassId>(I.Operand)).Name;
    break;
  case OperandKind::Method:
    Out += ' ';
    Out += P.qualifiedName(static_cast<MethodId>(I.Operand));
    if (I.ConstArgMask != 0)
      Out += formatString(" constargs=%#x", I.ConstArgMask);
    break;
  }
  return Out;
}

std::string aoci::disassembleMethod(const Program &P, MethodId MId) {
  const Method &M = P.method(MId);
  const char *KindName = "static";
  switch (M.Kind) {
  case MethodKind::Static:
    KindName = "static";
    break;
  case MethodKind::Virtual:
    KindName = "virtual";
    break;
  case MethodKind::Interface:
    KindName = "interface";
    break;
  case MethodKind::Special:
    KindName = "special";
    break;
  }
  std::string Out = formatString(
      "%s %s %s(%u)%s%s  [bytecodes=%u, machine=%u]\n", KindName,
      M.ReturnsValue ? "value" : "void", P.qualifiedName(MId).c_str(),
      M.NumParams, M.IsFinal ? " final" : "", M.IsAbstract ? " abstract" : "",
      M.bytecodeCount(), M.machineSize());
  for (unsigned PC = 0; PC != M.Body.size(); ++PC)
    Out += formatString("  %4u: ", PC) +
           disassembleInstruction(P, M.Body[PC]) + "\n";
  return Out;
}

std::string aoci::disassembleProgram(const Program &P) {
  std::string Out;
  for (ClassId C = 0; C != P.numClasses(); ++C) {
    const Klass &K = P.klass(C);
    Out += formatString("%s %s", K.IsInterface ? "interface" : "class",
                        K.Name.c_str());
    if (K.Super != InvalidClassId)
      Out += " extends " + P.klass(K.Super).Name;
    for (size_t I = 0; I != K.Interfaces.size(); ++I)
      Out += (I == 0 ? " implements " : ", ") + P.klass(K.Interfaces[I]).Name;
    Out += formatString("  [fields=%u]\n", K.NumFields);
    for (MethodId M : K.Methods)
      Out += disassembleMethod(P, M);
    Out += "\n";
  }
  return Out;
}
