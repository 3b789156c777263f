//===- tests/PolicyTest.cpp - Unit tests for src/policy ---------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "bytecode/SizeClass.h"
#include "policy/ContextPolicy.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace aoci;

namespace {

/// Builds a program with one method of each "chain property":
///  - ParamVirtual: virtual, 2 params, small
///  - Paramless:    virtual, 0 params, small
///  - StaticM:      static, 1 param, small
///  - LargeM:       virtual, 1 param, large (>= 25x call size)
struct ChainFixture {
  Program P;
  MethodId ParamVirtual, ParamVirtual2, Paramless, StaticM, LargeM;

  ChainFixture() {
    ProgramBuilder B;
    ClassId C = B.addClass("C", InvalidClassId, 1);
    auto makeBody = [&](MethodId M, unsigned WorkUnits) {
      CodeEmitter E = B.code(M);
      E.work(WorkUnits).iconst(1).vreturn();
      E.finish();
    };
    ParamVirtual = B.declareMethod(C, "pv", MethodKind::Virtual, 2, true);
    makeBody(ParamVirtual, 20);
    ParamVirtual2 = B.declareMethod(C, "pv2", MethodKind::Virtual, 1, true);
    makeBody(ParamVirtual2, 20);
    Paramless = B.declareMethod(C, "pl", MethodKind::Virtual, 0, true);
    makeBody(Paramless, 20);
    StaticM = B.declareMethod(C, "st", MethodKind::Static, 1, true);
    makeBody(StaticM, 20);
    LargeM = B.declareMethod(C, "lg", MethodKind::Virtual, 1, true);
    makeBody(LargeM, 25 * CallSequenceSize + 50);
    MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, false);
    {
      CodeEmitter E = B.code(Main);
      E.ret();
      E.finish();
    }
    B.setEntry(Main);
    P = B.build();
    EXPECT_EQ(classifyMethod(P.method(LargeM)), SizeClass::Large);
  }
};

} // namespace

TEST(PolicyTest, ChainStopsNameTheFixtureProperties) {
  ChainFixture F;
  auto stops = [&](MethodId M) {
    return std::vector<bool>{isChainStop(F.P, M, ChainStop::Parameterless),
                             isChainStop(F.P, M, ChainStop::ClassMethod),
                             isChainStop(F.P, M, ChainStop::Large)};
  };
  EXPECT_EQ(stops(F.ParamVirtual), (std::vector<bool>{false, false, false}));
  EXPECT_EQ(stops(F.Paramless), (std::vector<bool>{true, false, false}));
  EXPECT_EQ(stops(F.StaticM), (std::vector<bool>{false, true, false}));
  EXPECT_EQ(stops(F.LargeM), (std::vector<bool>{false, false, true}));
}

TEST(PolicyTest, ContextInsensitiveIsDepthOne) {
  ChainFixture F;
  ContextPolicy Policy(PolicyKind::ContextInsensitive, 4);
  EXPECT_EQ(Policy.maxDepth(), 1u);
  std::vector<MethodId> Chain = {F.ParamVirtual, F.ParamVirtual2, F.StaticM,
                                 F.ParamVirtual};
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 0), 1u);
  EXPECT_EQ(Policy.name(), "cins");
}

TEST(PolicyTest, FixedPolicyUsesFullDepth) {
  ChainFixture F;
  ContextPolicy Policy(PolicyKind::Fixed, 3);
  std::vector<MethodId> Chain = {F.ParamVirtual, F.ParamVirtual2,
                                 F.ParamVirtual, F.ParamVirtual2,
                                 F.ParamVirtual};
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 0), 3u);
  // Shallow stacks clamp to what is available.
  std::vector<MethodId> Short = {F.ParamVirtual, F.ParamVirtual2};
  EXPECT_EQ(Policy.traceDepth(F.P, Short, 0), 1u);
}

TEST(PolicyTest, ParameterlessStopsAtCallee) {
  ChainFixture F;
  ContextPolicy Policy(PolicyKind::Parameterless, 5);
  // Callee itself parameterless -> depth 1 ("immediately parameterless").
  std::vector<MethodId> Chain = {F.Paramless, F.ParamVirtual,
                                 F.ParamVirtual2, F.ParamVirtual,
                                 F.ParamVirtual2, F.ParamVirtual};
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 0), 1u);
}

TEST(PolicyTest, ParameterlessStopsMidChain) {
  ChainFixture F;
  ContextPolicy Policy(PolicyKind::Parameterless, 5);
  // First parameterless at chain index 3 -> depth 3.
  std::vector<MethodId> Chain = {F.ParamVirtual, F.ParamVirtual2,
                                 F.ParamVirtual, F.Paramless,
                                 F.ParamVirtual2, F.ParamVirtual};
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 0), 3u);
}

TEST(PolicyTest, ParameterlessNoStopRunsToMax) {
  ChainFixture F;
  ContextPolicy Policy(PolicyKind::Parameterless, 4);
  std::vector<MethodId> Chain = {F.ParamVirtual, F.ParamVirtual2,
                                 F.ParamVirtual, F.ParamVirtual2,
                                 F.ParamVirtual, F.ParamVirtual2};
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 0), 4u);
}

TEST(PolicyTest, ClassMethodsStopsAtStatic) {
  ChainFixture F;
  ContextPolicy Policy(PolicyKind::ClassMethods, 5);
  // Static driver at chain index 2 -> depth 2 (the paper: "we only
  // traverse two edges before encountering the first class method").
  std::vector<MethodId> Chain = {F.ParamVirtual, F.ParamVirtual2, F.StaticM,
                                 F.ParamVirtual, F.ParamVirtual2};
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 0), 2u);
}

TEST(PolicyTest, LargeMethodsStopsAtLarge) {
  ChainFixture F;
  ContextPolicy Policy(PolicyKind::LargeMethods, 5);
  std::vector<MethodId> Chain = {F.ParamVirtual, F.ParamVirtual2,
                                 F.ParamVirtual, F.LargeM, F.ParamVirtual2};
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 0), 3u);
  // Large callee still records the mandatory depth-1 edge.
  std::vector<MethodId> LargeCallee = {F.LargeM, F.ParamVirtual,
                                       F.ParamVirtual2};
  EXPECT_EQ(Policy.traceDepth(F.P, LargeCallee, 0), 1u);
}

TEST(PolicyTest, HybridStopsAtEitherCondition) {
  ChainFixture F;
  ContextPolicy H1(PolicyKind::HybridParamClass, 5);
  ContextPolicy H2(PolicyKind::HybridParamLarge, 5);
  std::vector<MethodId> StaticChain = {F.ParamVirtual, F.StaticM,
                                       F.ParamVirtual2, F.ParamVirtual,
                                       F.ParamVirtual2};
  std::vector<MethodId> ParamlessChain = {F.ParamVirtual, F.Paramless,
                                          F.ParamVirtual2, F.ParamVirtual,
                                          F.ParamVirtual2};
  std::vector<MethodId> LargeChain = {F.ParamVirtual, F.LargeM,
                                      F.ParamVirtual2, F.ParamVirtual,
                                      F.ParamVirtual2};
  EXPECT_EQ(H1.traceDepth(F.P, StaticChain, 0), 1u);
  EXPECT_EQ(H1.traceDepth(F.P, ParamlessChain, 0), 1u);
  EXPECT_EQ(H1.traceDepth(F.P, LargeChain, 0), 4u)
      << "hybrid1 ignores large methods";
  EXPECT_EQ(H2.traceDepth(F.P, LargeChain, 0), 1u);
  EXPECT_EQ(H2.traceDepth(F.P, StaticChain, 0), 4u)
      << "hybrid2 ignores class methods";
}

TEST(PolicyTest, FactoryProducesAllKindsWithNames) {
  const char *const Names[] = {"cins",           "fixed(max=4)",
                               "paramLess(max=4)", "class(max=4)",
                               "large(max=4)",     "hybrid1(max=4)",
                               "hybrid2(max=4)",   "imprecision(max=4)"};
  ASSERT_EQ(allPolicyKinds().size(), std::size(Names));
  for (size_t I = 0; I != std::size(Names); ++I) {
    const PolicyKind K = allPolicyKinds()[I];
    auto Policy = makePolicy(K, 4);
    ASSERT_NE(Policy, nullptr);
    EXPECT_EQ(Policy->name(), Names[I]);
    if (K == PolicyKind::ContextInsensitive)
      EXPECT_EQ(Policy->maxDepth(), 1u);
    else
      EXPECT_EQ(Policy->maxDepth(), 4u);
    // Only the imprecision policy exposes a table.
    EXPECT_EQ(Policy->imprecisionTable() != nullptr,
              K == PolicyKind::AdaptiveImprecision);
  }
}

//===----------------------------------------------------------------------===//
// ImprecisionTable
//===----------------------------------------------------------------------===//

TEST(ImprecisionTableTest, DefaultsToDepthOne) {
  ImprecisionTable T;
  EXPECT_EQ(T.depthFor(3, 7), 1u);
  EXPECT_FALSE(T.gaveUp(3, 7));
  EXPECT_FALSE(T.isResolved(3, 7));
}

TEST(ImprecisionTableTest, RaiseClimbsTowardMax) {
  ImprecisionTable T;
  EXPECT_EQ(T.raise(3, 7, /*MaxDepth=*/4, /*GiveUpAfter=*/10), 2u);
  EXPECT_EQ(T.raise(3, 7, 4, 10), 3u);
  EXPECT_EQ(T.raise(3, 7, 4, 10), 4u);
  // Hitting the depth cap with raises to spare freezes the site at the
  // cap — running out of depth is not evidence of polymorphism.
  EXPECT_EQ(T.raise(3, 7, 4, 10), 4u);
  EXPECT_FALSE(T.gaveUp(3, 7));
  EXPECT_TRUE(T.isResolved(3, 7));
  EXPECT_EQ(T.depthFor(3, 7), 4u);
}

TEST(ImprecisionTableTest, CapFreezeIsSticky) {
  ImprecisionTable T;
  for (int I = 0; I != 3; ++I)
    T.raise(3, 7, /*MaxDepth=*/4, /*GiveUpAfter=*/10);
  T.raise(3, 7, 4, 10); // freezes at the cap
  // Further raises never flip a cap-frozen site into give-up, even once
  // the raise count passes GiveUpAfter.
  for (int I = 0; I != 20; ++I)
    EXPECT_EQ(T.raise(3, 7, 4, 10), 4u);
  EXPECT_FALSE(T.gaveUp(3, 7));
  EXPECT_TRUE(T.isResolved(3, 7));
  EXPECT_EQ(T.depthFor(3, 7), 4u);
}

TEST(ImprecisionTableTest, GiveUpRequiresExhaustedRaises) {
  ImprecisionTable T;
  // Deep cap, tight raise budget: the budget runs out before the cap.
  T.raise(8, 1, /*MaxDepth=*/10, /*GiveUpAfter=*/2);
  T.raise(8, 1, 10, 2);
  EXPECT_EQ(T.raise(8, 1, 10, 2), 1u) << "raises exhausted: abandoned";
  EXPECT_TRUE(T.gaveUp(8, 1));
  EXPECT_FALSE(T.isResolved(8, 1));
  EXPECT_EQ(T.depthFor(8, 1), 1u);
  // Give-up is terminal: later raises keep returning depth 1.
  EXPECT_EQ(T.raise(8, 1, 10, 2), 1u);
  EXPECT_TRUE(T.gaveUp(8, 1));
}

TEST(ImprecisionTableTest, SitesAreIndependent) {
  ImprecisionTable T;
  // Site A freezes at the cap; site B gives up; site C resolves early.
  for (int I = 0; I != 4; ++I)
    T.raise(1, 1, /*MaxDepth=*/3, /*GiveUpAfter=*/10);
  for (int I = 0; I != 3; ++I)
    T.raise(2, 2, /*MaxDepth=*/10, /*GiveUpAfter=*/2);
  T.raise(3, 3, /*MaxDepth=*/10, /*GiveUpAfter=*/10);
  T.markResolved(3, 3);
  EXPECT_TRUE(T.isResolved(1, 1));
  EXPECT_EQ(T.depthFor(1, 1), 3u);
  EXPECT_TRUE(T.gaveUp(2, 2));
  EXPECT_EQ(T.depthFor(2, 2), 1u);
  EXPECT_TRUE(T.isResolved(3, 3));
  EXPECT_EQ(T.depthFor(3, 3), 2u);
  EXPECT_EQ(T.numTrackedSites(), 3u);
}

TEST(ImprecisionTableTest, GiveUpAfterBoundsRaises) {
  ImprecisionTable T;
  T.raise(1, 1, /*MaxDepth=*/10, /*GiveUpAfter=*/2);
  T.raise(1, 1, 10, 2);
  EXPECT_EQ(T.raise(1, 1, 10, 2), 1u) << "third raise gives up";
  EXPECT_TRUE(T.gaveUp(1, 1));
}

TEST(ImprecisionTableTest, ResolvedFreezesDepth) {
  ImprecisionTable T;
  T.raise(5, 2, 4, 10);
  T.raise(5, 2, 4, 10);
  T.markResolved(5, 2);
  EXPECT_TRUE(T.isResolved(5, 2));
  EXPECT_EQ(T.depthFor(5, 2), 3u);
  // Further raises are ignored once resolved.
  EXPECT_EQ(T.raise(5, 2, 4, 10), 3u);
  EXPECT_EQ(T.depthFor(5, 2), 3u);
}

TEST(ImprecisionTableTest, PolicyConsultsTable) {
  ChainFixture F;
  ContextPolicy Policy(PolicyKind::AdaptiveImprecision, 5);
  ImprecisionTable *Table = Policy.imprecisionTable();
  ASSERT_NE(Table, nullptr);
  std::vector<MethodId> Chain = {F.ParamVirtual, F.ParamVirtual2,
                                 F.ParamVirtual, F.ParamVirtual2,
                                 F.ParamVirtual, F.ParamVirtual2};
  // Default: context-insensitive.
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, /*InnermostSite=*/9), 1u);
  // After the organizer raises the site, the walk goes deeper.
  Table->raise(F.ParamVirtual2, 9, 5, 10);
  Table->raise(F.ParamVirtual2, 9, 5, 10);
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 9), 3u);
  // Other sites remain at depth 1.
  EXPECT_EQ(Policy.traceDepth(F.P, Chain, 10), 1u);
}
