//===- tests/VmTest.cpp - Unit tests for src/vm -----------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

using namespace aoci;

namespace {

/// Returns the entry thread's integer result after running \p P to
/// completion in a fresh VM.
int64_t runForResult(const Program &P) {
  VirtualMachine VM(P);
  unsigned T = VM.addThread(P.entryMethod());
  VM.run();
  EXPECT_TRUE(VM.threads()[T]->Finished);
  return VM.threads()[T]->Result.asInt();
}

/// Builds a program whose static no-arg, value-returning entry is
/// populated by \p Emit.
template <typename EmitFn> Program entryProgram(EmitFn Emit) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  CodeEmitter E = B.code(Main);
  Emit(B, C, E);
  E.finish();
  B.setEntry(Main);
  return B.build();
}

} // namespace

//===----------------------------------------------------------------------===//
// Arithmetic and control flow
//===----------------------------------------------------------------------===//

TEST(InterpreterTest, ArithmeticChain) {
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    // ((7 + 5) * 3 - 4) / 2 % 5 = 16 % 5 = 1
    E.iconst(7).iconst(5).iadd().iconst(3).imul().iconst(4).isub();
    E.iconst(2).idiv().iconst(5).irem().vreturn();
  });
  EXPECT_EQ(runForResult(P), 1);
}

TEST(InterpreterTest, DivisionByZeroYieldsZero) {
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    E.iconst(9).iconst(0).idiv().vreturn();
  });
  EXPECT_EQ(runForResult(P), 0);
}

TEST(InterpreterTest, BitwiseAndShifts) {
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    // ((0b1100 & 0b1010) | 1) ^ 2 = (8|1)^2 = 11; 11 << 2 = 44; 44 >> 1 = 22
    E.iconst(12).iconst(10).iand().iconst(1).ior().iconst(2).ixor();
    E.iconst(2).ishl().iconst(1).ishr().vreturn();
  });
  EXPECT_EQ(runForResult(P), 22);
}

TEST(InterpreterTest, ComparisonsAndNegation) {
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    // (3 < 5) + (5 <= 5) + (7 > 9) + (-4 >= -4) + (2 == 2) + (2 != 2) = 4
    E.iconst(3).iconst(5).icmpLt();
    E.iconst(5).iconst(5).icmpLe().iadd();
    E.iconst(7).iconst(9).icmpGt().iadd();
    E.iconst(4).ineg().iconst(4).ineg().icmpGe().iadd();
    E.iconst(2).iconst(2).icmpEq().iadd();
    E.iconst(2).iconst(2).icmpNe().iadd();
    E.vreturn();
  });
  EXPECT_EQ(runForResult(P), 4);
}

TEST(InterpreterTest, LoopComputesTriangularNumber) {
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    // sum = 0; i = 10; while (i != 0) { sum += i; --i; } return sum;
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(0).store(0).iconst(10).store(1);
    E.bind(Top);
    E.load(1).ifZero(Exit);
    E.load(0).load(1).iadd().store(0);
    E.load(1).iconst(1).isub().store(1);
    E.jump(Top);
    E.bind(Exit);
    E.load(0).vreturn();
  });
  EXPECT_EQ(runForResult(P), 55);
}

TEST(InterpreterTest, DupPopSwap) {
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    // push 3, dup -> 3 3; swap with 10 -> order change; compute 10 - 3 = 7
    E.iconst(3).iconst(10).swap().isub(); // 10 - 3 ... wait: swap -> 10,3?
    // Stack after iconst(3), iconst(10): [3, 10]; swap -> [10, 3];
    // isub pops b=3, a=10 -> 7.
    E.dup().pop().vreturn();
  });
  EXPECT_EQ(runForResult(P), 7);
}

//===----------------------------------------------------------------------===//
// Objects, fields, arrays
//===----------------------------------------------------------------------===//

TEST(InterpreterTest, FieldRoundTrip) {
  Program P = entryProgram([](ProgramBuilder &B, ClassId, CodeEmitter &E) {
    ClassId Box = B.addClass("Box", InvalidClassId, 2);
    E.newObject(Box).store(0);
    E.load(0).iconst(41).putField(1);
    E.load(0).getField(1).iconst(1).iadd().vreturn();
  });
  EXPECT_EQ(runForResult(P), 42);
}

TEST(InterpreterTest, ArrayRoundTripAndLength) {
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    E.iconst(5).newArray().store(0);
    E.load(0).iconst(2).iconst(30).arrayStore();
    E.load(0).iconst(2).arrayLoad();
    E.load(0).arrayLength().iadd().vreturn(); // 30 + 5
  });
  EXPECT_EQ(runForResult(P), 35);
}

TEST(InterpreterTest, InstanceOfAndNullChecks) {
  Program P = entryProgram([](ProgramBuilder &B, ClassId, CodeEmitter &E) {
    ClassId A = B.addClass("A");
    ClassId C = B.addClass("C", A);
    auto L1 = E.newLabel();
    auto L2 = E.newLabel();
    // new C instanceof A -> 1; null handled by IfNull.
    E.newObject(C).instanceOf(A).ifZero(L1);
    E.constNull().ifNull(L2);
    E.iconst(-1).vreturn(); // unreachable if null branch taken
    E.bind(L1);
    E.iconst(0).vreturn();
    E.bind(L2);
    E.iconst(99).vreturn();
  });
  EXPECT_EQ(runForResult(P), 99);
}

//===----------------------------------------------------------------------===//
// Calls and dispatch
//===----------------------------------------------------------------------===//

namespace {

/// A program with a virtual root f() on A returning 1, overridden in C
/// returning 2; main dispatches on the class selected by a flag.
struct DispatchProgram {
  Program P;
  MethodId AF, CF, Main;
  ClassId A, C;

  explicit DispatchProgram(bool UseC) {
    ProgramBuilder B;
    A = B.addClass("A");
    AF = B.declareMethod(A, "f", MethodKind::Virtual, 0, true);
    {
      CodeEmitter E = B.code(AF);
      E.iconst(1).vreturn();
      E.finish();
    }
    C = B.addClass("C", A);
    CF = B.addOverride(C, AF);
    {
      CodeEmitter E = B.code(CF);
      E.iconst(2).vreturn();
      E.finish();
    }
    Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
    {
      CodeEmitter E = B.code(Main);
      if (UseC)
        E.newObject(C);
      else
        E.newObject(A);
      E.invokeVirtual(AF).vreturn();
      E.finish();
    }
    B.setEntry(Main);
    P = B.build();
  }
};

} // namespace

TEST(InterpreterTest, VirtualDispatchSelectsOverride) {
  EXPECT_EQ(runForResult(DispatchProgram(false).P), 1);
  EXPECT_EQ(runForResult(DispatchProgram(true).P), 2);
}

TEST(InterpreterTest, StaticCallArgumentOrder) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Sub = B.declareMethod(C, "sub", MethodKind::Static, 2, true);
  {
    CodeEmitter E = B.code(Sub);
    E.load(0).load(1).isub().vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.iconst(10).iconst(4).invokeStatic(Sub).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  // Args arrive in declaration order: local0 = 10, local1 = 4.
  EXPECT_EQ(runForResult(P), 6);
}

TEST(InterpreterTest, VirtualReceiverInLocalZero) {
  ProgramBuilder B;
  ClassId A = B.addClass("A", InvalidClassId, 1);
  MethodId Get = B.declareMethod(A, "get", MethodKind::Virtual, 1, true);
  {
    CodeEmitter E = B.code(Get);
    // return this.field0 + param(local 1)
    E.load(0).getField(0).load(1).iadd().vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.newObject(A).store(0);
    E.load(0).iconst(7).putField(0);
    E.load(0).iconst(5).invokeVirtual(Get).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  EXPECT_EQ(runForResult(B.build()), 12);
}

TEST(InterpreterTest, SpecialCallIsDirect) {
  ProgramBuilder B;
  ClassId A = B.addClass("A", InvalidClassId, 1);
  MethodId Init = B.declareMethod(A, "init", MethodKind::Special, 1, false);
  {
    CodeEmitter E = B.code(Init);
    E.load(0).load(1).putField(0).ret();
    E.finish();
  }
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.newObject(A).store(0);
    E.load(0).iconst(33).invokeSpecial(Init);
    E.load(0).getField(0).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  EXPECT_EQ(runForResult(B.build()), 33);
}

TEST(InterpreterTest, InterfaceDispatch) {
  ProgramBuilder B;
  ClassId I = B.addInterface("Shape");
  MethodId Area =
      B.declareAbstractMethod(I, "area", MethodKind::Interface, 0, true);
  ClassId Sq = B.addClass("Square");
  B.implement(Sq, I);
  MethodId SqArea = B.addOverride(Sq, Area);
  {
    CodeEmitter E = B.code(SqArea);
    E.iconst(16).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(Sq, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.newObject(Sq).invokeInterface(Area).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  EXPECT_EQ(runForResult(B.build()), 16);
}

TEST(InterpreterTest, RecursionFibonacci) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Fib = B.declareMethod(C, "fib", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(Fib);
    auto Recurse = E.newLabel();
    E.load(0).iconst(2).icmpLt().ifZero(Recurse);
    E.load(0).vreturn();
    E.bind(Recurse);
    E.load(0).iconst(1).isub().invokeStatic(Fib);
    E.load(0).iconst(2).isub().invokeStatic(Fib);
    E.iadd().vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.iconst(12).invokeStatic(Fib).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  EXPECT_EQ(runForResult(B.build()), 144);
}

//===----------------------------------------------------------------------===//
// Cost accounting and sampling
//===----------------------------------------------------------------------===//

TEST(VmCostTest, ClockAdvancesMonotonically) {
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    E.work(1000).iconst(0).vreturn();
  });
  VirtualMachine VM(P);
  VM.addThread(P.entryMethod());
  uint64_t AfterCompile = VM.cycles();
  EXPECT_GT(AfterCompile, 0u) << "baseline compilation charges cycles";
  VM.run();
  EXPECT_GT(VM.cycles(), AfterCompile);
}

TEST(VmCostTest, WorkCostScalesWithUnits) {
  auto cyclesFor = [](int64_t Units) {
    Program P = entryProgram([&](ProgramBuilder &, ClassId, CodeEmitter &E) {
      E.work(Units).iconst(0).vreturn();
    });
    VirtualMachine VM(P);
    VM.addThread(P.entryMethod());
    VM.run();
    return VM.cycles();
  };
  uint64_t Small = cyclesFor(100);
  uint64_t Big = cyclesFor(10100);
  CostModel CM;
  // The delta is exactly 10000 extra units at baseline execution cost plus
  // 10000 units of extra baseline compile cost.
  EXPECT_EQ(Big - Small,
            10000 * (CM.cyclesPerUnit(OptLevel::Baseline) +
                     CM.CompileCyclesPerUnit[0]));
}

TEST(VmCostTest, ChargeBeyondThirtyTwoBitsThrowsInsteadOfTruncating) {
  // Cost-table entries are 32-bit. A charge of exactly UINT32_MAX is kept
  // whole; one cycle more stops the run with a diagnostic before any
  // instruction advances the clock by a truncated amount.
  Program P = entryProgram([](ProgramBuilder &, ClassId, CodeEmitter &E) {
    E.work(1).iconst(0).vreturn();
  });
  const std::vector<Instruction> &Body = P.method(P.entryMethod()).Body;
  for (const Instruction &I : Body)
    ASSERT_EQ(I.machineSize(), 1u) << "each charge must be one unit";

  CostModel Fits;
  Fits.CyclesPerUnit[0] = UINT32_MAX;
  VirtualMachine Ok(P, Fits);
  Ok.addThread(P.entryMethod());
  const uint64_t AfterCompile = Ok.cycles();
  Ok.run();
  EXPECT_EQ(Ok.cycles() - AfterCompile,
            Body.size() * uint64_t{UINT32_MAX} + Fits.ReturnOverhead);

  CostModel TooBig;
  TooBig.CyclesPerUnit[0] = uint64_t{1} << 32;
  VirtualMachine VM(P, TooBig);
  try {
    VM.addThread(P.entryMethod());
    VM.run();
    FAIL() << "expected the cost-table build to reject the charge";
  } catch (const std::runtime_error &E) {
    const std::string Msg = E.what();
    EXPECT_NE(Msg.find("cycle charge 4294967296 of Main.main at pc 0"),
              std::string::npos)
        << Msg;
    EXPECT_NE(Msg.find("32-bit"), std::string::npos) << Msg;
  }
  EXPECT_EQ(VM.counters().InstructionsExecuted, 0u);
}

TEST(VmCostTest, LazyBaselineCompilationChargedOnce) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Leaf = B.declareMethod(C, "leaf", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Leaf);
    E.iconst(1).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(10).store(0);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.invokeStatic(Leaf).pop();
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.iconst(0).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  VirtualMachine VM(P);
  VM.addThread(P.entryMethod());
  VM.run();
  EXPECT_EQ(VM.codeManager().numCompiles(OptLevel::Baseline), 2u)
      << "main + leaf, compiled once each despite 10 calls";
}

namespace {

/// Sink that records every sample delivery.
struct RecordingSink : SampleSink {
  unsigned Samples = 0;
  unsigned Prologues = 0;
  void onSample(VirtualMachine &, ThreadState &, bool AtPrologue) override {
    ++Samples;
    Prologues += AtPrologue;
  }
};

/// A long-running call-heavy program: main loops calling a callee.
Program callLoopProgram(int Iterations) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Leaf = B.declareMethod(C, "leaf", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Leaf);
    E.work(50).iconst(1).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(Iterations).store(0);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.invokeStatic(Leaf).pop();
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.iconst(0).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  return B.build();
}

} // namespace

TEST(VmSamplingTest, SamplesArriveAtRoughlyThePeriod) {
  Program P = callLoopProgram(20000);
  CostModel CM;
  VirtualMachine VM(P, CM);
  RecordingSink Sink;
  VM.setSampleSink(&Sink);
  VM.addThread(P.entryMethod());
  VM.run();
  uint64_t Expected = VM.cycles() / CM.SamplePeriodCycles;
  EXPECT_GT(Sink.Samples, Expected / 2);
  EXPECT_LE(Sink.Samples, Expected + 1);
  EXPECT_GT(Sink.Prologues, 0u) << "call-heavy code yields prologue samples";
  EXPECT_EQ(Sink.Samples, VM.counters().SamplesTaken);
}

TEST(VmSamplingTest, NoSinkStillCountsSamples) {
  Program P = callLoopProgram(5000);
  VirtualMachine VM(P);
  VM.addThread(P.entryMethod());
  VM.run();
  EXPECT_GT(VM.counters().SamplesTaken, 0u);
}

//===----------------------------------------------------------------------===//
// Inline plans at execution time
//===----------------------------------------------------------------------===//

namespace {

/// Installs an opt variant of \p M with \p Plan into \p VM, using simple
/// size bookkeeping. Returns the variant.
const CodeVariant *installOptVariant(VirtualMachine &VM, MethodId M,
                                     InlinePlan Plan,
                                     OptLevel Level = OptLevel::Opt2) {
  auto V = std::make_unique<CodeVariant>();
  V->M = M;
  V->Level = Level;
  V->MachineUnits = VM.program().method(M).machineSize() + Plan.TotalUnits;
  V->CodeBytes = VM.costModel().codeBytes(Level, V->MachineUnits);
  V->CompileCycles = VM.costModel().compileCycles(Level, V->MachineUnits);
  V->Plan = std::move(Plan);
  return VM.codeManager().install(std::move(V));
}

} // namespace

TEST(VmInlineTest, UnguardedInlineSkipsCallOverhead) {
  // Two identical programs; one runs main with an inline plan for leaf.
  auto runConfigured = [](bool Inline) {
    Program P = callLoopProgram(2000);
    MethodId Main = P.entryMethod();
    MethodId Leaf = P.findMethod("Main.leaf");
    VirtualMachine VM(P);
    if (Inline) {
      // Find the invoke site in main.
      auto Sites = P.method(Main).callSites();
      EXPECT_EQ(Sites.size(), 1u) << "expected exactly one call site";
      const uint32_t LeafUnits = P.method(Leaf).machineSize();
      InlinePlan Plan;
      auto &Decision = Plan.Root.getOrCreate(Sites.front());
      InlineCase Case;
      Case.Callee = Leaf;
      Case.Guarded = false;
      Case.BodyUnits = LeafUnits;
      Decision.Cases.push_back(std::move(Case));
      Plan.recountStatistics();
      Plan.TotalUnits = P.method(Main).machineSize() + LeafUnits;
      installOptVariant(VM, Main, std::move(Plan));
    }
    VM.addThread(P.entryMethod());
    VM.run();
    if (Inline) {
      EXPECT_EQ(VM.counters().InlinedCallsEntered, 2000u);
      EXPECT_EQ(VM.counters().GuardFallbacks, 0u);
    }
    return VM.cycles();
  };
  uint64_t Plain, Inlined;
  { SCOPED_TRACE("plain"); Plain = runConfigured(false); }
  { SCOPED_TRACE("inlined"); Inlined = runConfigured(true); }
  EXPECT_LT(Inlined, Plain)
      << "inlined execution must be faster despite opt compile cost";
}

TEST(VmInlineTest, GuardedInlineFallsBackOnMiss) {
  // Virtual call with two receiver classes; inline only one target.
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  MethodId F = B.declareMethod(A, "f", MethodKind::Virtual, 0, true);
  {
    CodeEmitter E = B.code(F);
    E.iconst(1).vreturn();
    E.finish();
  }
  ClassId C = B.addClass("C", A);
  MethodId CF = B.addOverride(C, F);
  {
    CodeEmitter E = B.code(CF);
    E.iconst(2).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
  BytecodeIndex CallSite;
  {
    CodeEmitter E = B.code(Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    auto UseA = E.newLabel();
    auto Dispatch = E.newLabel();
    E.iconst(100).store(0).iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    // Alternate receivers: odd iterations use C, even use A.
    E.load(0).iconst(2).irem().ifZero(UseA);
    E.newObject(C).jump(Dispatch);
    E.bind(UseA);
    E.newObject(A);
    E.bind(Dispatch);
    CallSite = E.nextIndex();
    E.invokeVirtual(F);
    E.load(1).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();

  VirtualMachine VM(P);
  InlinePlan Plan;
  InlineCase Case;
  Case.Callee = CF;
  Case.Guarded = true;
  Case.BodyUnits = P.method(CF).machineSize();
  Plan.Root.getOrCreate(CallSite).Cases.push_back(std::move(Case));
  Plan.recountStatistics();
  installOptVariant(VM, Main, std::move(Plan));
  unsigned T = VM.addThread(P.entryMethod());
  VM.run();

  // 100 iterations: 50 hit the guard (CF inlined, value 2), 50 fall back to
  // the virtual call of AF (value 1): total = 50*2 + 50*1 = 150.
  EXPECT_EQ(VM.threads()[T]->Result.asInt(), 150);
  EXPECT_EQ(VM.counters().InlinedCallsEntered, 50u);
  EXPECT_EQ(VM.counters().GuardFallbacks, 50u);
  EXPECT_EQ(VM.counters().GuardTestsExecuted, 100u);
}

TEST(VmInlineTest, NestedInlinePlanRunsBothLevels) {
  // main -> outer -> inner, with outer inlined into main and inner inlined
  // into the inlined outer.
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Inner = B.declareMethod(C, "inner", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Inner);
    E.iconst(21).vreturn();
    E.finish();
  }
  MethodId Outer = B.declareMethod(C, "outer", MethodKind::Static, 0, true);
  BytecodeIndex InnerSite;
  {
    CodeEmitter E = B.code(Outer);
    InnerSite = E.nextIndex();
    E.invokeStatic(Inner).iconst(2).imul().vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  BytecodeIndex OuterSite;
  {
    CodeEmitter E = B.code(Main);
    OuterSite = E.nextIndex();
    E.invokeStatic(Outer).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();

  VirtualMachine VM(P);
  InlinePlan Plan;
  InlineCase OuterCase;
  OuterCase.Callee = Outer;
  OuterCase.BodyUnits = P.method(Outer).machineSize();
  OuterCase.Body = std::make_unique<InlineNode>();
  InlineCase InnerCase;
  InnerCase.Callee = Inner;
  InnerCase.BodyUnits = P.method(Inner).machineSize();
  OuterCase.Body->getOrCreate(InnerSite).Cases.push_back(
      std::move(InnerCase));
  Plan.Root.getOrCreate(OuterSite).Cases.push_back(std::move(OuterCase));
  Plan.recountStatistics();
  EXPECT_EQ(Plan.NumInlineBodies, 2u);
  EXPECT_EQ(Plan.MaxDepth, 2u);
  installOptVariant(VM, Main, std::move(Plan));
  unsigned T = VM.addThread(P.entryMethod());
  VM.run();
  EXPECT_EQ(VM.threads()[T]->Result.asInt(), 42);
  EXPECT_EQ(VM.counters().InlinedCallsEntered, 2u);
  EXPECT_EQ(VM.counters().CallsExecuted, 0u)
      << "everything inlined: no physical calls";
}

//===----------------------------------------------------------------------===//
// Stack walking (Section 3.3)
//===----------------------------------------------------------------------===//

TEST(VmStackWalkTest, SourceStackSeesInlinedFrames) {
  // Reuse the nested-inline program; pause mid-inner via a sink that
  // inspects stacks is complex, so instead walk during a sample.
  Program P = callLoopProgram(20000);
  MethodId Main = P.entryMethod();
  MethodId Leaf = P.findMethod("Main.leaf");

  struct WalkSink : SampleSink {
    MethodId Leaf;
    bool SawLeafTop = false;
    size_t MaxSourceDepth = 0;
    void onSample(VirtualMachine &, ThreadState &T,
                  bool AtPrologue) override {
      auto Frames = sourceStack(T);
      MaxSourceDepth = std::max(MaxSourceDepth, Frames.size());
      if (AtPrologue && !Frames.empty() && Frames.front()->Method == Leaf)
        SawLeafTop = true;
    }
  };

  VirtualMachine VM(P);
  WalkSink Sink;
  Sink.Leaf = Leaf;
  VM.setSampleSink(&Sink);
  VM.addThread(Main);
  VM.run();
  EXPECT_TRUE(Sink.SawLeafTop);
  EXPECT_GE(Sink.MaxSourceDepth, 2u);
}

TEST(VmStackWalkTest, PhysicalStackHidesInlinedFrames) {
  // Build main -> mid -> leaf where mid is inlined into main. A sample in
  // leaf must show physical frames [leaf, main] but source frames
  // [leaf, mid, main].
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Leaf = B.declareMethod(C, "leaf", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Leaf);
    E.work(100).iconst(1).vreturn();
    E.finish();
  }
  MethodId Mid = B.declareMethod(C, "mid", MethodKind::Static, 0, true);
  BytecodeIndex LeafSite;
  {
    CodeEmitter E = B.code(Mid);
    LeafSite = E.nextIndex();
    E.invokeStatic(Leaf).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  BytecodeIndex MidSite;
  {
    CodeEmitter E = B.code(Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(50000).store(0).iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    MidSite = E.nextIndex();
    E.invokeStatic(Mid).load(1).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();

  struct WalkSink : SampleSink {
    MethodId Leaf, Mid, Main;
    bool CheckedLeafSample = false;
    void onSample(VirtualMachine &, ThreadState &T, bool) override {
      auto Source = sourceStack(T);
      if (Source.empty() || Source.front()->Method != Leaf)
        return;
      auto Physical = physicalStack(T);
      ASSERT_EQ(Source.size(), 3u);
      EXPECT_EQ(Source[1]->Method, Mid);
      EXPECT_EQ(Source[2]->Method, Main);
      // The naive walk misses the inlined mid frame entirely.
      ASSERT_EQ(Physical.size(), 2u);
      EXPECT_EQ(Physical[0]->Method, Leaf);
      EXPECT_EQ(Physical[1]->Method, Main);
      CheckedLeafSample = true;
    }
  };

  VirtualMachine VM(P);
  // Inline mid into main, leaving leaf as a physical call.
  InlinePlan Plan;
  InlineCase MidCase;
  MidCase.Callee = Mid;
  MidCase.BodyUnits = P.method(Mid).machineSize();
  Plan.Root.getOrCreate(MidSite).Cases.push_back(std::move(MidCase));
  Plan.recountStatistics();
  installOptVariant(VM, Main, std::move(Plan));

  WalkSink Sink;
  Sink.Leaf = Leaf;
  Sink.Mid = Mid;
  Sink.Main = Main;
  VM.setSampleSink(&Sink);
  VM.addThread(Main);
  VM.run();
  EXPECT_TRUE(Sink.CheckedLeafSample)
      << "expected at least one prologue sample inside leaf";
  (void)LeafSite;
}

//===----------------------------------------------------------------------===//
// Threads
//===----------------------------------------------------------------------===//

TEST(VmThreadTest, TwoThreadsInterleaveAndFinish) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Spin = B.declareMethod(C, "spin", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Spin);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(2000).store(0);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.work(20);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.iconst(7).vreturn();
    E.finish();
  }
  B.setEntry(Spin);
  Program P = B.build();
  VirtualMachine VM(P);
  unsigned T0 = VM.addThread(P.entryMethod());
  unsigned T1 = VM.addThread(P.entryMethod());
  VM.run();
  EXPECT_TRUE(VM.threads()[T0]->Finished);
  EXPECT_TRUE(VM.threads()[T1]->Finished);
  EXPECT_EQ(VM.threads()[T0]->Result.asInt(), 7);
  EXPECT_EQ(VM.threads()[T1]->Result.asInt(), 7);
}

TEST(VmTest, RunRespectsCycleLimit) {
  Program P = callLoopProgram(1000000);
  VirtualMachine VM(P);
  VM.addThread(P.entryMethod());
  VM.run(/*CycleLimit=*/500000);
  EXPECT_LE(VM.cycles(), 500000u + 100000u)
      << "clock may overshoot by at most one instruction+quantum slop";
  EXPECT_FALSE(VM.threads()[0]->Finished);
}
