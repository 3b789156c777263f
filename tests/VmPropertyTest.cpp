//===- tests/VmPropertyTest.cpp - Randomized VM property tests --------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Property-based testing of the execution substrate:
//
//  - random arithmetic expression trees are emitted to bytecode and their
//    VM result compared against a host-side reference evaluator;
//  - random structured programs (locals, bounded loops, acyclic static
//    calls) must verify, terminate, and run deterministically;
//  - inlining is semantics-preserving: compiling the random program's
//    methods with a rule-free oracle and rerunning must produce the same
//    result, with fewer physical calls.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "bytecode/Verifier.h"
#include "opt/Compiler.h"
#include "support/Rng.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

using namespace aoci;

//===----------------------------------------------------------------------===//
// Random expressions vs a reference evaluator
//===----------------------------------------------------------------------===//

namespace {

/// A random expression generator that simultaneously emits bytecode and
/// computes the reference value.
class ExpressionFuzzer {
public:
  ExpressionFuzzer(Rng &R, CodeEmitter &E) : R(R), E(E) {}

  // Wrapping reference arithmetic matching the ISA's Java-style
  // semantics (no UB for the fuzzer's extreme values).
  static int64_t wrapAdd(int64_t A, int64_t B) {
    return static_cast<int64_t>(static_cast<uint64_t>(A) +
                                static_cast<uint64_t>(B));
  }
  static int64_t wrapSub(int64_t A, int64_t B) {
    return static_cast<int64_t>(static_cast<uint64_t>(A) -
                                static_cast<uint64_t>(B));
  }
  static int64_t wrapMul(int64_t A, int64_t B) {
    return static_cast<int64_t>(static_cast<uint64_t>(A) *
                                static_cast<uint64_t>(B));
  }

  /// Emits code leaving one integer on the stack; returns its value.
  int64_t emit(unsigned Depth) {
    if (Depth == 0 || R.nextBool(0.3)) {
      int64_t V = R.nextInRange(-100, 100);
      E.iconst(V);
      return V;
    }
    switch (R.nextBelow(13)) {
    case 0: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.iadd();
      return wrapAdd(A, B);
    }
    case 1: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.isub();
      return wrapSub(A, B);
    }
    case 2: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.imul();
      return wrapMul(A, B);
    }
    case 3: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.idiv();
      if (B == 0)
        return 0;
      if (A == INT64_MIN && B == -1)
        return A;
      return A / B;
    }
    case 4: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.irem();
      if (B == 0 || (A == INT64_MIN && B == -1))
        return 0;
      return A % B;
    }
    case 5: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.iand();
      return A & B;
    }
    case 6: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.ior();
      return A | B;
    }
    case 7: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.ixor();
      return A ^ B;
    }
    case 8: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.ishl();
      return static_cast<int64_t>(static_cast<uint64_t>(A) << (B & 63));
    }
    case 9: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.ishr();
      return A >> (B & 63);
    }
    case 10: {
      int64_t A = emit(Depth - 1);
      E.ineg();
      return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
    }
    case 11: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.icmpLt();
      return A < B ? 1 : 0;
    }
    default: {
      int64_t A = emit(Depth - 1), B = emit(Depth - 1);
      E.icmpGe();
      return A >= B ? 1 : 0;
    }
    }
  }

private:
  Rng &R;
  CodeEmitter &E;
};

} // namespace

class ExpressionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExpressionFuzzTest, VmMatchesReferenceEvaluator) {
  Rng R(GetParam());
  for (int Case = 0; Case != 40; ++Case) {
    ProgramBuilder B;
    ClassId C = B.addClass("Main");
    MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
    int64_t Expected;
    {
      CodeEmitter E = B.code(Main);
      ExpressionFuzzer Fuzzer(R, E);
      Expected = Fuzzer.emit(/*Depth=*/5);
      E.vreturn();
      E.finish();
    }
    B.setEntry(Main);
    Program P = B.build();
    ASSERT_TRUE(verifyProgram(P).empty());

    VirtualMachine VM(P);
    unsigned T = VM.addThread(Main);
    VM.run();
    ASSERT_TRUE(VM.threads()[T]->Finished);
    EXPECT_EQ(VM.threads()[T]->Result.asInt(), Expected)
        << "seed " << GetParam() << " case " << Case;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpressionFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===//
// Random structured programs
//===----------------------------------------------------------------------===//

namespace {

/// Generates a random program: an acyclic DAG of static methods whose
/// bodies mix arithmetic, bounded loops, and calls to later methods.
Program randomProgram(uint64_t Seed, unsigned NumMethods) {
  Rng R(Seed);
  ProgramBuilder B;
  ClassId C = B.addClass("Fuzz", InvalidClassId, 2);

  // Declare first so call targets exist (only calls to higher ids are
  // emitted, keeping the call graph acyclic).
  std::vector<MethodId> Methods;
  for (unsigned I = 0; I != NumMethods; ++I) {
    std::string Name = "f";
    Name += std::to_string(I);
    Methods.push_back(B.declareMethod(C, Name, MethodKind::Static,
                                      /*NumParams=*/1, true));
  }

  for (unsigned I = 0; I != NumMethods; ++I) {
    CodeEmitter E = B.code(Methods[I]);
    // Accumulator in local 1, parameter in local 0.
    E.load(0).store(1);
    const unsigned Statements = 1 + static_cast<unsigned>(R.nextBelow(5));
    for (unsigned S = 0; S != Statements; ++S) {
      switch (R.nextBelow(3)) {
      case 0: // acc = acc * k + c
        E.load(1)
            .iconst(R.nextInRange(1, 7))
            .imul()
            .iconst(R.nextInRange(-9, 9))
            .iadd()
            .store(1);
        break;
      case 1: { // bounded loop accumulating
        auto Top = E.newLabel();
        auto Exit = E.newLabel();
        E.iconst(R.nextInRange(1, 6)).store(2);
        E.bind(Top);
        E.load(2).ifZero(Exit);
        E.load(1).iconst(R.nextInRange(1, 5)).iadd().store(1);
        E.load(2).iconst(1).isub().store(2);
        E.jump(Top);
        E.bind(Exit);
        break;
      }
      default: // call a later method when one exists
        if (I + 1 < NumMethods) {
          unsigned Callee =
              I + 1 + static_cast<unsigned>(
                          R.nextBelow(NumMethods - I - 1));
          E.load(1).invokeStatic(Methods[Callee]);
          E.store(1);
        } else {
          E.load(1).iconst(1).iadd().store(1);
        }
        break;
      }
    }
    E.load(1).vreturn();
    E.finish();
  }

  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.iconst(R.nextInRange(0, 20)).invokeStatic(Methods[0]).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  return B.build();
}

int64_t runProgram(const Program &P, uint64_t *CyclesOut = nullptr,
                   uint64_t *CallsOut = nullptr) {
  VirtualMachine VM(P);
  unsigned T = VM.addThread(P.entryMethod());
  VM.run();
  EXPECT_TRUE(VM.threads()[T]->Finished);
  if (CyclesOut)
    *CyclesOut = VM.cycles();
  if (CallsOut)
    *CallsOut = VM.counters().CallsExecuted;
  return VM.threads()[T]->Result.asInt();
}

} // namespace

class ProgramFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramFuzzTest, RandomProgramsVerifyAndTerminate) {
  Program P = randomProgram(GetParam(), 12);
  auto Errors = verifyProgram(P);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  runProgram(P);
}

TEST_P(ProgramFuzzTest, RandomProgramsAreDeterministic) {
  Program P = randomProgram(GetParam(), 10);
  uint64_t CyclesA = 0, CyclesB = 0;
  int64_t A = runProgram(P, &CyclesA);
  int64_t B = runProgram(P, &CyclesB);
  EXPECT_EQ(A, B);
  EXPECT_EQ(CyclesA, CyclesB);
}

TEST_P(ProgramFuzzTest, StaticInliningPreservesSemantics) {
  Program P = randomProgram(GetParam(), 12);
  uint64_t PlainCalls = 0;
  int64_t Expected = runProgram(P, nullptr, &PlainCalls);

  // Compile every method with a rule-free oracle and rerun: identical
  // result, strictly fewer physical calls whenever anything was inlined.
  ClassHierarchy CH(P);
  CostModel Model;
  OptimizingCompiler Compiler(P, CH, Model);
  InlineRuleSet NoRules;
  InliningOracle Oracle(P, CH, NoRules);
  VirtualMachine VM(P);
  unsigned TotalInlineBodies = 0;
  for (MethodId M = 0; M != P.numMethods(); ++M) {
    auto V = Compiler.compile(M, OptLevel::Opt2, Oracle);
    TotalInlineBodies += V->Plan.NumInlineBodies;
    VM.codeManager().install(std::move(V));
  }
  unsigned T = VM.addThread(P.entryMethod());
  VM.run();
  EXPECT_EQ(VM.threads()[T]->Result.asInt(), Expected)
      << "inlining changed program semantics (seed " << GetParam() << ")";
  // Inlined sites can never add physical calls; when any inlined site is
  // actually executed the count strictly drops, but an unlucky seed may
  // put every inlined site on a dynamically dead path.
  if (TotalInlineBodies > 0) {
    EXPECT_LE(VM.counters().CallsExecuted, PlainCalls);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808, 909, 1010));
