//===- tests/BytecodeTest.cpp - Unit tests for src/bytecode ----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/ClassHierarchy.h"
#include "bytecode/Disassembler.h"
#include "bytecode/ProgramBuilder.h"
#include "bytecode/SizeClass.h"
#include "bytecode/Verifier.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

using namespace aoci;

namespace {

/// Builds the paper's Figure 1 shape in miniature: Object with hashCode,
/// MyKey overriding it, and a static driver calling through the root.
struct TinyHierarchy {
  Program P;
  ClassId Object, MyKey;
  MethodId HashCode, MyKeyHashCode, Main;

  TinyHierarchy() {
    ProgramBuilder B;
    Object = B.addClass("Object");
    HashCode = B.declareMethod(Object, "hashCode", MethodKind::Virtual,
                               /*NumParams=*/0, /*ReturnsValue=*/true);
    {
      CodeEmitter E = B.code(HashCode);
      E.iconst(17).vreturn();
      E.finish();
    }
    MyKey = B.addClass("MyKey", Object, /*NumFields=*/1);
    MyKeyHashCode = B.addOverride(MyKey, HashCode);
    {
      CodeEmitter E = B.code(MyKeyHashCode);
      E.load(0).getField(0).vreturn();
      E.finish();
    }
    Main = B.declareMethod(Object, "main", MethodKind::Static, 0, false);
    {
      CodeEmitter E = B.code(Main);
      E.newObject(MyKey).invokeVirtual(HashCode).pop().ret();
      E.finish();
    }
    B.setEntry(Main);
    P = B.build();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Opcode properties
//===----------------------------------------------------------------------===//

TEST(OpcodeTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> Names;
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    std::string Name = opcodeName(static_cast<Opcode>(I));
    EXPECT_FALSE(Name.empty());
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate name " << Name;
  }
}

TEST(OpcodeTest, Predicates) {
  EXPECT_TRUE(isInvoke(Opcode::InvokeVirtual));
  EXPECT_TRUE(isInvoke(Opcode::InvokeStatic));
  EXPECT_FALSE(isInvoke(Opcode::Goto));
  EXPECT_TRUE(isBranch(Opcode::IfZero));
  EXPECT_FALSE(isBranch(Opcode::InvokeStatic));
  EXPECT_TRUE(isReturn(Opcode::ValueReturn));
  EXPECT_FALSE(isReturn(Opcode::Nop));
}

TEST(OpcodeTest, WorkWeightScalesWithOperand) {
  EXPECT_EQ(machineWeight(Opcode::Work, 10), 10u);
  EXPECT_EQ(machineWeight(Opcode::Work, 0), 1u);
  EXPECT_GT(machineWeight(Opcode::InvokeVirtual, 0),
            machineWeight(Opcode::InvokeStatic, 0) - 1);
}

namespace {

/// One program per opcode: Main pushes what the opcode consumes, then
/// executes it at pc At, then returns (a return discards what is left on
/// the operand stack).
struct OpcodeProgram {
  Program P;
  BytecodeIndex At = 0;
  /// Allocation cycles the instruction charges beyond its cost-table
  /// entry.
  uint64_t AllocCycles = 0;
};

OpcodeProgram opcodeProgram(Opcode Op) {
  ProgramBuilder B;
  const ClassId Shape = B.addInterface("Shape");
  const MethodId Area = B.declareAbstractMethod(
      Shape, "area", MethodKind::Interface, 0, /*ReturnsValue=*/true);
  const ClassId Obj = B.addClass("Obj", InvalidClassId, /*NumFields=*/2);
  B.implement(Obj, Shape);
  auto body = [&](MethodId M, auto Emit) {
    CodeEmitter E = B.code(M);
    Emit(E);
    E.finish();
  };
  body(B.addOverride(Obj, Area),
       [](CodeEmitter &E) { E.iconst(1).vreturn(); });
  const MethodId Get =
      B.declareMethod(Obj, "get", MethodKind::Virtual, 1, true);
  body(Get, [](CodeEmitter &E) { E.load(1).vreturn(); });
  const MethodId Init =
      B.declareMethod(Obj, "init", MethodKind::Special, 0, false);
  body(Init, [](CodeEmitter &E) { E.ret(); });
  const MethodId Twice =
      B.declareMethod(Obj, "twice", MethodKind::Static, 1, true);
  body(Twice, [](CodeEmitter &E) { E.load(0).dup().iadd().vreturn(); });
  const MethodId Main = B.declareMethod(Obj, "main", MethodKind::Static, 0,
                                        Op == Opcode::ValueReturn);

  OpcodeProgram Out;
  const CostModel Model;
  CodeEmitter E = B.code(Main);
  const CodeEmitter::Label Next = E.newLabel();
  // Marks the next instruction as the one under test.
  auto test = [&]() -> CodeEmitter & {
    Out.At = E.nextIndex();
    return E;
  };
  switch (Op) {
  case Opcode::Nop: test().nop(); break;
  case Opcode::IConst: test().iconst(7); break;
  case Opcode::ConstNull: test().constNull(); break;
  case Opcode::LoadLocal: E.iconst(5).store(0); test().load(0); break;
  case Opcode::StoreLocal: E.iconst(5); test().store(0); break;
  case Opcode::Dup: E.iconst(1); test().dup(); break;
  case Opcode::Pop: E.iconst(1); test().pop(); break;
  case Opcode::Swap: E.iconst(1).iconst(2); test().swap(); break;
  case Opcode::IAdd: E.iconst(6).iconst(3); test().iadd(); break;
  case Opcode::ISub: E.iconst(6).iconst(3); test().isub(); break;
  case Opcode::IMul: E.iconst(6).iconst(3); test().imul(); break;
  case Opcode::IDiv: E.iconst(6).iconst(3); test().idiv(); break;
  case Opcode::IRem: E.iconst(6).iconst(3); test().irem(); break;
  case Opcode::IAnd: E.iconst(6).iconst(3); test().iand(); break;
  case Opcode::IOr: E.iconst(6).iconst(3); test().ior(); break;
  case Opcode::IXor: E.iconst(6).iconst(3); test().ixor(); break;
  case Opcode::IShl: E.iconst(6).iconst(3); test().ishl(); break;
  case Opcode::IShr: E.iconst(6).iconst(3); test().ishr(); break;
  case Opcode::INeg: E.iconst(6); test().ineg(); break;
  case Opcode::ICmpEq: E.iconst(6).iconst(3); test().icmpEq(); break;
  case Opcode::ICmpNe: E.iconst(6).iconst(3); test().icmpNe(); break;
  case Opcode::ICmpLt: E.iconst(6).iconst(3); test().icmpLt(); break;
  case Opcode::ICmpLe: E.iconst(6).iconst(3); test().icmpLe(); break;
  case Opcode::ICmpGt: E.iconst(6).iconst(3); test().icmpGt(); break;
  case Opcode::ICmpGe: E.iconst(6).iconst(3); test().icmpGe(); break;
  case Opcode::Goto: test().jump(Next); break;
  case Opcode::IfZero: E.iconst(0); test().ifZero(Next); break;
  case Opcode::IfNonZero: E.iconst(0); test().ifNonZero(Next); break;
  case Opcode::IfNull: E.constNull(); test().ifNull(Next); break;
  case Opcode::IfNonNull: E.constNull(); test().ifNonNull(Next); break;
  case Opcode::New:
    test().newObject(Obj);
    Out.AllocCycles = Model.AllocBase + Model.AllocPerSlot * 2;
    break;
  case Opcode::GetField: E.newObject(Obj); test().getField(1); break;
  case Opcode::PutField:
    E.newObject(Obj).iconst(4);
    test().putField(1);
    break;
  case Opcode::NewArray:
    E.iconst(3);
    test().newArray();
    Out.AllocCycles = Model.AllocBase + Model.AllocPerSlot * 3;
    break;
  case Opcode::ArrayLoad:
    E.iconst(3).newArray().iconst(1);
    test().arrayLoad();
    break;
  case Opcode::ArrayStore:
    E.iconst(3).newArray().iconst(1).iconst(9);
    test().arrayStore();
    break;
  case Opcode::ArrayLength:
    E.iconst(3).newArray();
    test().arrayLength();
    break;
  case Opcode::InstanceOf: E.newObject(Obj); test().instanceOf(Shape); break;
  case Opcode::Work: test().work(5); break;
  case Opcode::InvokeStatic:
    E.iconst(4);
    test().invokeStatic(Twice, /*ConstArgMask=*/1);
    break;
  case Opcode::InvokeVirtual:
    E.newObject(Obj).iconst(4);
    test().invokeVirtual(Get);
    break;
  case Opcode::InvokeInterface:
    E.newObject(Obj);
    test().invokeInterface(Area);
    break;
  case Opcode::InvokeSpecial:
    E.newObject(Obj);
    test().invokeSpecial(Init);
    break;
  case Opcode::Return: test().ret(); break;
  case Opcode::ValueReturn: E.iconst(1); test().vreturn(); break;
  }
  if (!isReturn(Op))
    E.bind(Next).ret();
  E.finish();
  B.setEntry(Main);
  Out.P = B.build();
  return Out;
}

} // namespace

TEST(OpcodeTest, EveryRowMatchesDisassemblyStackEffectAndCycles) {
  // Each opcode's instruction in opcodeProgram(): its disassembly and its
  // machine weight, in encoding order. Ten opcodes run in no workload, so
  // only this table pins their weights.
  const struct {
    const char *Disassembly;
    unsigned Weight;
  } Expected[] = {{"nop", 0},
                  {"iconst 7", 1},
                  {"constnull", 1},
                  {"load 0", 1},
                  {"store 0", 1},
                  {"dup", 1},
                  {"pop", 1},
                  {"swap", 1},
                  {"iadd", 1},
                  {"isub", 1},
                  {"imul", 1},
                  {"idiv", 2},
                  {"irem", 2},
                  {"iand", 1},
                  {"ior", 1},
                  {"ixor", 1},
                  {"ishl", 1},
                  {"ishr", 1},
                  {"ineg", 1},
                  {"icmpeq", 2},
                  {"icmpne", 2},
                  {"icmplt", 2},
                  {"icmple", 2},
                  {"icmpgt", 2},
                  {"icmpge", 2},
                  {"goto 1", 1},
                  {"ifzero 2", 2},
                  {"ifnonzero 2", 2},
                  {"ifnull 2", 2},
                  {"ifnonnull 2", 2},
                  {"new Obj", 6},
                  {"getfield 1", 2},
                  {"putfield 1", 2},
                  {"newarray", 6},
                  {"arrayload", 3},
                  {"arraystore", 3},
                  {"arraylength", 1},
                  {"instanceof Shape", 3},
                  {"work 5", 5},
                  {"invokestatic Obj.twice constargs=0x1", 3},
                  {"invokevirtual Obj.get", 4},
                  {"invokeinterface Shape.area", 4},
                  {"invokespecial Obj.init", 3},
                  {"return", 1},
                  {"vreturn", 1}};
  ASSERT_EQ(std::size(Expected), NumOpcodes);
  const CostModel Model;
  for (unsigned I = 0; I != NumOpcodes; ++I) {
    const Opcode Op = static_cast<Opcode>(I);
    SCOPED_TRACE(opcodeName(Op));
    const OpcodeProgram C = opcodeProgram(Op);
    ASSERT_TRUE(verifyProgram(C.P).empty());
    const Instruction &Instr = C.P.method(C.P.entryMethod()).Body[C.At];
    ASSERT_EQ(Instr.Op, Op);
    EXPECT_EQ(disassembleInstruction(C.P, Instr), Expected[I].Disassembly);
    EXPECT_EQ(machineWeight(Op, Instr.Operand), Expected[I].Weight);
    // An invoke's stack effect and cycles are its callee's; a return
    // pops the frame.
    if (isInvoke(Op) || isReturn(Op))
      continue;

    VirtualMachine VM(C.P);
    VM.addThread(C.P.entryMethod());
    ThreadState &T = *VM.threads().front();
    VM.step(T, C.At);
    ASSERT_EQ(T.Frames.back().PC, C.At);
    const uint32_t Depth = T.stackDepth();
    const uint64_t Cycles = VM.cycles();
    VM.step(T, 1);
    EXPECT_EQ(T.stackDepth() + opcodeInfo(Op).Pops,
              Depth + opcodeInfo(Op).Pushes);
    EXPECT_EQ(VM.cycles() - Cycles,
              Expected[I].Weight * Model.cyclesPerUnit(OptLevel::Baseline) +
                  C.AllocCycles);
  }
}

//===----------------------------------------------------------------------===//
// SizeClass
//===----------------------------------------------------------------------===//

TEST(SizeClassTest, PaperThresholds) {
  EXPECT_EQ(classifySize(0), SizeClass::Tiny);
  EXPECT_EQ(classifySize(2 * CallSequenceSize - 1), SizeClass::Tiny);
  EXPECT_EQ(classifySize(2 * CallSequenceSize), SizeClass::Small);
  EXPECT_EQ(classifySize(5 * CallSequenceSize - 1), SizeClass::Small);
  EXPECT_EQ(classifySize(5 * CallSequenceSize), SizeClass::Medium);
  EXPECT_EQ(classifySize(25 * CallSequenceSize - 1), SizeClass::Medium);
  EXPECT_EQ(classifySize(25 * CallSequenceSize), SizeClass::Large);
}

//===----------------------------------------------------------------------===//
// ProgramBuilder
//===----------------------------------------------------------------------===//

TEST(ProgramBuilderTest, BuildsTinyHierarchy) {
  TinyHierarchy T;
  EXPECT_EQ(T.P.numClasses(), 2u);
  EXPECT_EQ(T.P.numMethods(), 3u);
  EXPECT_EQ(T.P.entryMethod(), T.Main);
  EXPECT_EQ(T.P.qualifiedName(T.MyKeyHashCode), "MyKey.hashCode");
  EXPECT_EQ(T.P.method(T.MyKeyHashCode).OverrideRoot, T.HashCode);
  EXPECT_EQ(T.P.method(T.HashCode).OverrideRoot, T.HashCode);
}

TEST(ProgramBuilderTest, FieldsAccumulateThroughInheritance) {
  ProgramBuilder B;
  ClassId A = B.addClass("A", InvalidClassId, 2);
  ClassId C = B.addClass("C", A, 3);
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, false);
  CodeEmitter E = B.code(Main);
  E.ret();
  E.finish();
  B.setEntry(Main);
  Program P = B.build();
  EXPECT_EQ(P.klass(A).NumFields, 2u);
  EXPECT_EQ(P.klass(C).NumFields, 5u);
}

TEST(ProgramBuilderTest, LabelsPatchForwardAndBackward) {
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  MethodId M = B.declareMethod(A, "loop", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(M);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(3).store(0);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.iconst(0).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Main);
    E.invokeStatic(M).pop().ret();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  EXPECT_TRUE(verifyProgram(P).empty());
  // The backward jump must target the bound Top position (pc 2) and the
  // forward IfZero must target the bound Exit position.
  const Method &Loop = P.method(M);
  bool SawBackward = false, SawForward = false;
  for (unsigned PC = 0; PC != Loop.Body.size(); ++PC) {
    const Instruction &I = Loop.Body[PC];
    if (I.Op == Opcode::Goto) {
      EXPECT_LT(I.Operand, PC);
      SawBackward = true;
    }
    if (I.Op == Opcode::IfZero) {
      EXPECT_GT(I.Operand, PC);
      SawForward = true;
    }
  }
  EXPECT_TRUE(SawBackward);
  EXPECT_TRUE(SawForward);
}

TEST(ProgramBuilderTest, NumLocalsCoversArgsAndTemps) {
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  MethodId M = B.declareMethod(A, "f", MethodKind::Static, 2, true);
  CodeEmitter E = B.code(M);
  E.load(0).load(1).iadd().store(5).load(5).vreturn();
  E.finish();
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, false);
  CodeEmitter EM = B.code(Main);
  EM.iconst(1).iconst(2).invokeStatic(M).pop().ret();
  EM.finish();
  B.setEntry(Main);
  Program P = B.build();
  EXPECT_EQ(P.method(M).NumLocals, 6u);
  // A virtual method's receiver occupies a slot too.
}

TEST(ProgramBuilderTest, FindMethodByQualifiedName) {
  TinyHierarchy T;
  EXPECT_EQ(T.P.findMethod("MyKey.hashCode"), T.MyKeyHashCode);
  EXPECT_EQ(T.P.findMethod("Nope.nope"), InvalidMethodId);
}

//===----------------------------------------------------------------------===//
// ClassHierarchy
//===----------------------------------------------------------------------===//

TEST(ClassHierarchyTest, SubtypingReflexiveAndTransitive) {
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  ClassId C = B.addClass("C", A);
  ClassId D = B.addClass("D", C);
  ClassId X = B.addClass("X");
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, false);
  CodeEmitter E = B.code(Main);
  E.ret();
  E.finish();
  B.setEntry(Main);
  Program P = B.build();
  ClassHierarchy H(P);
  EXPECT_TRUE(H.isSubtypeOf(A, A));
  EXPECT_TRUE(H.isSubtypeOf(D, A));
  EXPECT_TRUE(H.isSubtypeOf(D, C));
  EXPECT_FALSE(H.isSubtypeOf(A, D));
  EXPECT_FALSE(H.isSubtypeOf(X, A));
}

TEST(ClassHierarchyTest, InterfaceSubtyping) {
  ProgramBuilder B;
  ClassId I = B.addInterface("Comparable");
  ClassId A = B.addClass("A");
  ClassId C = B.addClass("C", A);
  B.implement(C, I);
  ClassId D = B.addClass("D", C);
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, false);
  CodeEmitter E = B.code(Main);
  E.ret();
  E.finish();
  B.setEntry(Main);
  Program P = B.build();
  ClassHierarchy H(P);
  EXPECT_TRUE(H.isSubtypeOf(C, I));
  EXPECT_TRUE(H.isSubtypeOf(D, I)) << "interface inherited via superclass";
  EXPECT_FALSE(H.isSubtypeOf(A, I));
}

TEST(ClassHierarchyTest, VirtualDispatchFindsOverride) {
  TinyHierarchy T;
  ClassHierarchy H(T.P);
  EXPECT_EQ(H.resolveVirtual(T.MyKey, T.HashCode), T.MyKeyHashCode);
  EXPECT_EQ(H.resolveVirtual(T.Object, T.HashCode), T.HashCode);
}

TEST(ClassHierarchyTest, DispatchInheritsWhenNotOverridden) {
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  MethodId F = B.declareMethod(A, "f", MethodKind::Virtual, 0, true);
  {
    CodeEmitter E = B.code(F);
    E.iconst(1).vreturn();
    E.finish();
  }
  ClassId C = B.addClass("C", A);
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Main);
    E.ret();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  ClassHierarchy H(P);
  EXPECT_EQ(H.resolveVirtual(C, F), F);
}

TEST(ClassHierarchyTest, ImplementationsAndCHA) {
  TinyHierarchy T;
  ClassHierarchy H(T.P);
  const auto &Impls = H.implementations(T.HashCode);
  EXPECT_EQ(Impls.size(), 2u);
  EXPECT_FALSE(H.isMonomorphicByCHA(T.HashCode));
  EXPECT_EQ(H.implementations(T.MyKeyHashCode).size(), 1u)
      << "leaf override is monomorphic when dispatched directly";
}

TEST(ClassHierarchyTest, AbstractClassesDoNotCountAsReceivers) {
  ProgramBuilder B;
  ClassId A = B.addAbstractClass("A");
  MethodId F = B.declareAbstractMethod(A, "f", MethodKind::Virtual, 0, true);
  ClassId C = B.addClass("C", A);
  MethodId CF = B.addOverride(C, F);
  {
    CodeEmitter E = B.code(CF);
    E.iconst(1).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Main);
    E.ret();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  ClassHierarchy H(P);
  EXPECT_TRUE(H.isMonomorphicByCHA(F));
  EXPECT_EQ(H.implementations(F).front(), CF);
}

TEST(ClassHierarchyTest, GuardFreeBindingRequiresFinal) {
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  MethodId F =
      B.declareMethod(A, "f", MethodKind::Virtual, 0, true, /*IsFinal=*/true);
  {
    CodeEmitter E = B.code(F);
    E.iconst(1).vreturn();
    E.finish();
  }
  MethodId G = B.declareMethod(A, "g", MethodKind::Virtual, 0, true);
  {
    CodeEmitter E = B.code(G);
    E.iconst(2).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Main);
    E.ret();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  ClassHierarchy H(P);
  EXPECT_TRUE(H.canBindWithoutGuard(F, F));
  EXPECT_FALSE(H.canBindWithoutGuard(G, G))
      << "non-final methods need a guard in an open world";
}

TEST(ClassHierarchyTest, ReceiversForGroupsClasses) {
  TinyHierarchy T;
  ClassHierarchy H(T.P);
  auto ObjReceivers = H.receiversFor(T.HashCode, T.HashCode);
  ASSERT_EQ(ObjReceivers.size(), 1u);
  EXPECT_EQ(ObjReceivers.front(), T.Object);
  auto KeyReceivers = H.receiversFor(T.HashCode, T.MyKeyHashCode);
  ASSERT_EQ(KeyReceivers.size(), 1u);
  EXPECT_EQ(KeyReceivers.front(), T.MyKey);
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST(VerifierTest, AcceptsWellFormedProgram) {
  TinyHierarchy T;
  EXPECT_TRUE(verifyProgram(T.P).empty());
}

namespace {

/// Builds a single-method program whose body is assembled raw, bypassing
/// the emitter, to exercise verifier rejections.
Program rawProgram(std::vector<Instruction> Body, bool ReturnsValue = false,
                   unsigned NumLocals = 4) {
  Program P;
  Klass K;
  K.Name = "K";
  ClassId C = P.addClass(std::move(K));
  Method M;
  M.Owner = C;
  M.Name = "main";
  M.Kind = MethodKind::Static;
  M.ReturnsValue = ReturnsValue;
  M.NumLocals = static_cast<uint16_t>(NumLocals);
  const unsigned Units = Method::machineUnitsOf(Body);
  M.setBody(std::move(Body), Units);
  MethodId Id = P.addMethod(std::move(M));
  P.setEntryMethod(Id);
  return P;
}

} // namespace

TEST(VerifierTest, RejectsStackUnderflow) {
  Program P = rawProgram({Instruction(Opcode::Pop), //
                          Instruction(Opcode::Return)});
  auto Errors = verifyProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("underflow"), std::string::npos);
}

TEST(VerifierTest, RejectsFallOffEnd) {
  Program P = rawProgram({Instruction(Opcode::Nop)});
  auto Errors = verifyProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("falls off"), std::string::npos);
}

TEST(VerifierTest, RejectsBadBranchTarget) {
  Program P = rawProgram({Instruction(Opcode::Goto, 99)});
  auto Errors = verifyProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("branch target"), std::string::npos);
}

TEST(VerifierTest, RejectsLocalOutOfRange) {
  Program P = rawProgram({Instruction(Opcode::LoadLocal, 9),
                          Instruction(Opcode::Pop),
                          Instruction(Opcode::Return)},
                         false, /*NumLocals=*/2);
  auto Errors = verifyProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("local slot"), std::string::npos);
}

TEST(VerifierTest, RejectsInconsistentMergeDepth) {
  // Branch-around leaves depth 1 on one path and 0 on the other.
  Program P = rawProgram({
      Instruction(Opcode::IConst, 1),   // 0: push
      Instruction(Opcode::IfZero, 3),   // 1: pop, maybe jump to 3
      Instruction(Opcode::IConst, 7),   // 2: push (depth 1 at pc 3)
      Instruction(Opcode::Return),      // 3: depth 0 vs 1
  });
  auto Errors = verifyProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("inconsistent"), std::string::npos);
}

TEST(VerifierTest, RejectsWrongReturnKind) {
  Program P = rawProgram({Instruction(Opcode::IConst, 1),
                          Instruction(Opcode::ValueReturn)},
                         /*ReturnsValue=*/false);
  auto Errors = verifyProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors.front().find("value return"), std::string::npos);
}

TEST(VerifierTest, RejectsMissingEntry) {
  Program P = rawProgram({Instruction(Opcode::Return)});
  P.setEntryMethod(InvalidMethodId);
  auto Errors = verifyProgram(P);
  ASSERT_FALSE(Errors.empty());
}

//===----------------------------------------------------------------------===//
// Disassembler
//===----------------------------------------------------------------------===//

TEST(DisassemblerTest, ResolvesSymbolicOperands) {
  TinyHierarchy T;
  std::string Text = disassembleProgram(T.P);
  EXPECT_NE(Text.find("class MyKey extends Object"), std::string::npos);
  EXPECT_NE(Text.find("invokevirtual Object.hashCode"), std::string::npos);
  EXPECT_NE(Text.find("new MyKey"), std::string::npos);
}

TEST(DisassemblerTest, MethodHeaderShowsSizes) {
  TinyHierarchy T;
  std::string Text = disassembleMethod(T.P, T.MyKeyHashCode);
  EXPECT_NE(Text.find("bytecodes=3"), std::string::npos);
}
