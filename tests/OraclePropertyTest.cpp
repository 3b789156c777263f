//===- tests/OraclePropertyTest.cpp - Oracle/compiler invariants ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Property-based testing of the inlining oracle and plan builder under
// randomized rule sets over the Figure 1 program:
//
//  - structural invariants (guard cap, unguarded-stands-alone, no large
//    or abstract targets, determinism);
//  - budget invariants of compiled plans;
//  - and the key soundness property: executing under plans built from
//    ARBITRARY rule subsets always computes the same program result.
//
//===----------------------------------------------------------------------===//

#include "bytecode/SizeClass.h"
#include "opt/Compiler.h"
#include "support/Rng.h"
#include "vm/VirtualMachine.h"
#include "workload/FigureOne.h"

#include <gtest/gtest.h>

using namespace aoci;

namespace {

/// The pool of "true" traces the Figure 1 program can produce, from which
/// random rule subsets are drawn.
std::vector<Trace> tracePool(const FigureOneProgram &F) {
  std::vector<Trace> Pool;
  auto add = [&](std::vector<ContextPair> Ctx, MethodId Callee) {
    Trace T;
    T.Context = std::move(Ctx);
    T.Callee = Callee;
    Pool.push_back(std::move(T));
  };
  add({{F.RunTest, F.GetSite1}}, F.Get);
  add({{F.RunTest, F.GetSite2}}, F.Get);
  add({{F.Get, F.HashCodeSite}}, F.MyKeyHashCode);
  add({{F.Get, F.HashCodeSite}}, F.ObjHashCode);
  add({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}}, F.MyKeyHashCode);
  add({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite2}}, F.ObjHashCode);
  add({{F.Get, F.EqualsSite}}, F.MyKeyEquals);
  add({{F.Get, F.EqualsSite}, {F.RunTest, F.GetSite1}}, F.MyKeyEquals);
  return Pool;
}

InlineRuleSet randomRules(const FigureOneProgram &F, Rng &R) {
  InlineRuleSet Rules;
  for (const Trace &T : tracePool(F)) {
    if (!R.nextBool(0.6))
      continue;
    InliningRule Rule;
    Rule.T = T;
    Rule.Weight = 1.0 + R.nextDouble() * 99.0;
    Rules.add(std::move(Rule));
  }
  return Rules;
}

OracleQuery hashCodeQuery(const FigureOneProgram &F, bool InsideCs1) {
  OracleQuery Q;
  Q.Enclosing = F.Get;
  Q.Site = F.HashCodeSite;
  Q.Call = F.P.method(F.Get).Body[F.HashCodeSite];
  Q.CompilationContext.push_back(ContextPair{F.Get, F.HashCodeSite});
  if (InsideCs1) {
    Q.CompilationContext.push_back(ContextPair{F.RunTest, F.GetSite1});
    Q.Depth = 1;
  }
  return Q;
}

} // namespace

class OracleFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleFuzzTest, StructuralInvariantsHoldForRandomRules) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  Rng R(GetParam());

  for (int Case = 0; Case != 25; ++Case) {
    InlineRuleSet Rules = randomRules(F, R);
    InliningOracle Oracle(F.P, CH, Rules);
    for (bool InsideCs1 : {false, true}) {
      OracleQuery Q = hashCodeQuery(F, InsideCs1);
      auto Decisions = Oracle.decide(Q);

      EXPECT_LE(Decisions.size(), Oracle.config().MaxGuardedTargets);
      unsigned Unguarded = 0;
      for (const InlineTargetDecision &D : Decisions) {
        const Method &Callee = F.P.method(D.Callee);
        EXPECT_FALSE(Callee.IsAbstract);
        EXPECT_NE(classifyMethod(Callee), SizeClass::Large);
        Unguarded += D.NeedsGuard ? 0 : 1;
      }
      if (Unguarded > 0) {
        EXPECT_EQ(Decisions.size(), 1u)
            << "an unguarded decision must stand alone";
      }

      // Determinism: the same query yields the same decisions.
      auto Again = Oracle.decide(Q);
      ASSERT_EQ(Again.size(), Decisions.size());
      for (size_t I = 0; I != Decisions.size(); ++I) {
        EXPECT_EQ(Again[I].Callee, Decisions[I].Callee);
        EXPECT_EQ(Again[I].NeedsGuard, Decisions[I].NeedsGuard);
      }

      // Guard order: weights non-increasing.
      for (size_t I = 1; I < Decisions.size(); ++I)
        EXPECT_GE(Decisions[I - 1].Weight, Decisions[I].Weight);
    }
  }
}

TEST_P(OracleFuzzTest, CompiledPlansRespectBudgets) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  CostModel Model;
  OptimizingCompiler Compiler(F.P, CH, Model);
  Rng R(GetParam() ^ 0xb00b5);

  for (int Case = 0; Case != 15; ++Case) {
    InlineRuleSet Rules = randomRules(F, R);
    InlinerConfig Config;
    Config.AbsoluteUnitCap = 60 + R.nextBelow(400);
    InliningOracle Oracle(F.P, CH, Rules, Config);
    for (MethodId Root : {F.RunTest, F.Get, F.Main}) {
      auto V = Compiler.compile(Root, OptLevel::Opt2, Oracle);
      EXPECT_LE(V->Plan.MaxDepth, Config.HardMaxDepth);
      // Tiny unconditional inlining is exempt from the expansion budget
      // but everything is bounded by the absolute cap plus at most one
      // last accepted body.
      EXPECT_LE(V->MachineUnits, Config.AbsoluteUnitCap +
                                     25 * CallSequenceSize);
      EXPECT_EQ(V->CodeBytes,
                Model.codeBytes(OptLevel::Opt2, V->MachineUnits));
    }
  }
}

TEST_P(OracleFuzzTest, ArbitraryRuleSubsetsPreserveSemantics) {
  const int64_t Iterations = 3000;
  Rng R(GetParam() ^ 0x5eed);

  for (int Case = 0; Case != 6; ++Case) {
    FigureOneProgram F = makeFigureOne(Iterations);
    ClassHierarchy CH(F.P);
    CostModel Model;
    OptimizingCompiler Compiler(F.P, CH, Model);
    InlineRuleSet Rules = randomRules(F, R);
    InliningOracle Oracle(F.P, CH, Rules);

    VirtualMachine VM(F.P);
    // Compile a random subset of methods with the random rules.
    for (MethodId M :
         {F.RunTest, F.Get, F.Main, F.Put, F.MyKeyEquals}) {
      if (!R.nextBool(0.7))
        continue;
      VM.codeManager().install(
          Compiler.compile(M, OptLevel::Opt2, Oracle));
    }
    unsigned T = VM.addThread(F.P.entryMethod());
    VM.run();
    EXPECT_EQ(VM.threads()[T]->Result.asInt(), 3 * Iterations)
        << "seed " << GetParam() << " case " << Case;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));
