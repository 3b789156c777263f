//===- tests/ProfileTest.cpp - Unit tests for src/profile -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "profile/DynamicCallGraph.h"
#include "profile/InlineRules.h"
#include "profile/Listeners.h"
#include "workload/FigureOne.h"

#include <gtest/gtest.h>

using namespace aoci;

namespace {

Trace makeTrace(std::vector<ContextPair> Context, MethodId Callee) {
  Trace T;
  T.Context = std::move(Context);
  T.Callee = Callee;
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Context types and Equation 3
//===----------------------------------------------------------------------===//

TEST(ContextTest, TraceEqualityAndHash) {
  Trace A = makeTrace({{1, 2}, {3, 4}}, 9);
  Trace B = makeTrace({{1, 2}, {3, 4}}, 9);
  Trace C = makeTrace({{1, 2}}, 9);
  Trace D = makeTrace({{1, 2}, {3, 5}}, 9);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_NE(A, D);
  TraceHash H;
  EXPECT_EQ(H(A), H(B));
  EXPECT_NE(H(A), H(C));
}

TEST(ContextTest, PartialMatchAgreesOnCommonPrefix) {
  // Equation 3: agree on the first min(k, j) innermost pairs.
  std::vector<ContextPair> Comp = {{10, 1}, {20, 2}};
  EXPECT_TRUE(partialContextMatch(Comp, {{10, 1}}));
  EXPECT_TRUE(partialContextMatch(Comp, {{10, 1}, {20, 2}}));
  EXPECT_TRUE(partialContextMatch(Comp, {{10, 1}, {20, 2}, {30, 3}}))
      << "rule with MORE context than the compilation context applies";
  EXPECT_FALSE(partialContextMatch(Comp, {{10, 1}, {21, 2}}));
  EXPECT_FALSE(partialContextMatch(Comp, {{11, 1}}));
  EXPECT_TRUE(partialContextMatch({}, {{1, 1}}))
      << "empty compilation context matches vacuously";
}

TEST(ContextTest, ToStringIsOutermostFirst) {
  FigureOneProgram F = makeFigureOne(1);
  Trace T = makeTrace({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
                      F.MyKeyHashCode);
  std::string S = T.toString(F.P);
  EXPECT_NE(S.find("HashMapTest.runTest"), std::string::npos);
  EXPECT_NE(S.find("HashMap.get"), std::string::npos);
  EXPECT_NE(S.find("MyKey.hashCode"), std::string::npos);
  EXPECT_LT(S.find("runTest"), S.find("HashMap.get"))
      << "outermost caller prints first";
}

//===----------------------------------------------------------------------===//
// DynamicCallGraph
//===----------------------------------------------------------------------===//

TEST(DcgTest, WeightsAccumulatePerDistinctTrace) {
  DynamicCallGraph Dcg;
  Trace A = makeTrace({{1, 0}}, 5);
  Trace B = makeTrace({{1, 0}, {2, 3}}, 5);
  Dcg.addSample(A);
  Dcg.addSample(A, 2.0);
  Dcg.addSample(B);
  EXPECT_DOUBLE_EQ(Dcg.weight(A), 3.0);
  EXPECT_DOUBLE_EQ(Dcg.weight(B), 1.0);
  EXPECT_DOUBLE_EQ(Dcg.totalWeight(), 4.0);
  EXPECT_EQ(Dcg.numTraces(), 2u)
      << "partial matches are NOT merged at collection time (Section 3.3)";
}

TEST(DcgTest, DecayScalesAndDropsDust) {
  DynamicCallGraph Dcg;
  Dcg.addSample(makeTrace({{1, 0}}, 5), 10.0);
  Dcg.addSample(makeTrace({{2, 0}}, 5), 0.02);
  Dcg.decay(0.5, /*DropBelow=*/0.05);
  EXPECT_DOUBLE_EQ(Dcg.weight(makeTrace({{1, 0}}, 5)), 5.0);
  EXPECT_EQ(Dcg.numTraces(), 1u) << "dust entry dropped";
  EXPECT_DOUBLE_EQ(Dcg.totalWeight(), 5.0);
}

TEST(DcgTest, SiteDistributionAggregatesOverContexts) {
  DynamicCallGraph Dcg;
  // Same innermost site (7, 4), two callees, distinguished by context.
  Dcg.addSample(makeTrace({{7, 4}, {1, 0}}, 100), 3.0);
  Dcg.addSample(makeTrace({{7, 4}, {2, 0}}, 200), 1.0);
  Dcg.addSample(makeTrace({{9, 9}}, 100), 5.0); // different site
  auto Dist = Dcg.siteDistribution(7, 4);
  EXPECT_DOUBLE_EQ(Dist.Total, 4.0);
  ASSERT_EQ(Dist.ByCallee.size(), 2u);
  EXPECT_EQ(Dist.ByCallee[0].first, 100u);
  EXPECT_DOUBLE_EQ(Dist.ByCallee[0].second, 3.0);
  EXPECT_EQ(Dist.ByCallee[1].first, 200u);
}

TEST(DcgTest, MinContextSkewDetectsResolution) {
  DynamicCallGraph Dcg;
  // Context (1,0): always callee 100. Context (2,0): always callee 200.
  Dcg.addSample(makeTrace({{7, 4}, {1, 0}}, 100), 10.0);
  Dcg.addSample(makeTrace({{7, 4}, {2, 0}}, 200), 10.0);
  EXPECT_DOUBLE_EQ(Dcg.minContextSkew(7, 4), 1.0)
      << "each context is monomorphic: imprecision resolved";
  // Now context (1,0) itself splits 50/50: unresolved.
  Dcg.addSample(makeTrace({{7, 4}, {1, 0}}, 200), 10.0);
  EXPECT_DOUBLE_EQ(Dcg.minContextSkew(7, 4), 0.5);
}

TEST(DcgTest, MinContextSkewIgnoresLightGroups) {
  DynamicCallGraph Dcg;
  Dcg.addSample(makeTrace({{7, 4}, {1, 0}}, 100), 10.0);
  // A tiny 50/50 group below the weight floor is ignored.
  Dcg.addSample(makeTrace({{7, 4}, {2, 0}}, 100), 0.4);
  Dcg.addSample(makeTrace({{7, 4}, {2, 0}}, 200), 0.4);
  EXPECT_DOUBLE_EQ(Dcg.minContextSkew(7, 4, /*MinGroupWeight=*/1.0), 1.0);
}

TEST(DcgTest, MinContextSkewDepthFilterAndSentinel) {
  DynamicCallGraph Dcg;
  // Depth-1 traces 50/50; depth-2 traces monomorphic per context.
  Dcg.addSample(makeTrace({{7, 4}}, 100), 10.0);
  Dcg.addSample(makeTrace({{7, 4}}, 200), 10.0);
  Dcg.addSample(makeTrace({{7, 4}, {1, 0}}, 100), 10.0);
  Dcg.addSample(makeTrace({{7, 4}, {2, 0}}, 200), 10.0);
  // Unfiltered: the stale depth-1 group drags the verdict down.
  EXPECT_DOUBLE_EQ(Dcg.minContextSkew(7, 4), 0.5);
  // Filtered to depth 2: resolved.
  EXPECT_DOUBLE_EQ(Dcg.minContextSkew(7, 4, 1.0, 2), 1.0);
  // Filtered to a depth with no data: the -1 "no groups" sentinel.
  EXPECT_DOUBLE_EQ(Dcg.minContextSkew(7, 4, 1.0, 3), -1.0);
  // Unknown site: sentinel as well.
  EXPECT_DOUBLE_EQ(Dcg.minContextSkew(9, 9, 1.0, 1), -1.0);
}

TEST(InlineRuleSetTest, FindLocatesExactTraceOnly) {
  InlineRuleSet Rules;
  InliningRule R;
  R.T = makeTrace({{7, 4}}, 100);
  R.Weight = 5;
  R.CreatedAtCycle = 42;
  Rules.add(R);
  const InliningRule *Found = Rules.find(makeTrace({{7, 4}}, 100));
  ASSERT_NE(Found, nullptr);
  EXPECT_EQ(Found->CreatedAtCycle, 42u);
  EXPECT_EQ(Rules.find(makeTrace({{7, 4}}, 101)), nullptr);
  EXPECT_EQ(Rules.find(makeTrace({{7, 4}, {1, 0}}, 100)), nullptr)
      << "deeper trace with the same innermost pair is a different rule";
}

TEST(DcgTest, AllSitesSortedUnique) {
  DynamicCallGraph Dcg;
  Dcg.addSample(makeTrace({{9, 1}}, 5));
  Dcg.addSample(makeTrace({{7, 4}, {1, 0}}, 5));
  Dcg.addSample(makeTrace({{7, 4}, {2, 0}}, 6));
  auto Sites = Dcg.allSites();
  ASSERT_EQ(Sites.size(), 2u);
  EXPECT_EQ(Sites[0].Caller, 7u);
  EXPECT_EQ(Sites[1].Caller, 9u);
}

//===----------------------------------------------------------------------===//
// InlineRuleSet
//===----------------------------------------------------------------------===//

TEST(InlineRuleSetTest, ApplicableRulesRespectEquationThree) {
  InlineRuleSet Rules;
  InliningRule R1;
  R1.T = makeTrace({{7, 4}}, 100);
  R1.Weight = 5;
  Rules.add(R1);
  InliningRule R2;
  R2.T = makeTrace({{7, 4}, {1, 0}}, 200);
  R2.Weight = 3;
  Rules.add(R2);
  InliningRule R3;
  R3.T = makeTrace({{8, 2}}, 100);
  R3.Weight = 9;
  Rules.add(R3);
  EXPECT_EQ(Rules.size(), 3u);

  // Compilation context [(7,4)] (compiling the caller standalone):
  // both (7,4)-rooted rules apply, the (8,2) rule does not.
  auto A = Rules.applicableRules({{7, 4}});
  EXPECT_EQ(A.size(), 2u);

  // Context [(7,4),(1,0)]: the deep rule for context (2,0) would not
  // apply, but R2's context matches exactly.
  auto B = Rules.applicableRules({{7, 4}, {1, 0}});
  EXPECT_EQ(B.size(), 2u);

  // Context [(7,4),(2,0)]: only the shallow R1 applies.
  auto C = Rules.applicableRules({{7, 4}, {2, 0}});
  ASSERT_EQ(C.size(), 1u);
  EXPECT_EQ(C.front()->T.Callee, 100u);
}

TEST(InlineRuleSetTest, DuplicateTraceReplaces) {
  InlineRuleSet Rules;
  InliningRule R;
  R.T = makeTrace({{7, 4}}, 100);
  R.Weight = 5;
  Rules.add(R);
  R.Weight = 9;
  Rules.add(R);
  EXPECT_EQ(Rules.size(), 1u);
  auto A = Rules.applicableRules({{7, 4}});
  ASSERT_EQ(A.size(), 1u);
  EXPECT_DOUBLE_EQ(A.front()->Weight, 9.0);
}

TEST(InlineRuleSetTest, RulesForCallerFindsAllSites) {
  InlineRuleSet Rules;
  InliningRule R1;
  R1.T = makeTrace({{7, 4}}, 100);
  Rules.add(R1);
  InliningRule R2;
  R2.T = makeTrace({{7, 9}}, 101);
  Rules.add(R2);
  InliningRule R3;
  R3.T = makeTrace({{8, 1}}, 102);
  Rules.add(R3);
  EXPECT_EQ(Rules.rulesForCaller(7).size(), 2u);
  EXPECT_EQ(Rules.rulesForCaller(8).size(), 1u);
  EXPECT_TRUE(Rules.rulesForCaller(99).empty());
}

TEST(InlineRuleSetTest, ClearEmpties) {
  InlineRuleSet Rules;
  InliningRule R;
  R.T = makeTrace({{7, 4}}, 100);
  Rules.add(R);
  Rules.clear();
  EXPECT_TRUE(Rules.empty());
  EXPECT_TRUE(Rules.applicableRules({{7, 4}}).empty());
}

//===----------------------------------------------------------------------===//
// Listeners (driven by real VM runs over the Figure 1 program)
//===----------------------------------------------------------------------===//

namespace {

/// Sink wiring both listeners to a VM for listener tests.
struct ListenerSink : SampleSink {
  MethodListener Methods;
  TraceListener Traces;
  std::vector<MethodId> AllMethods;
  std::vector<Trace> AllTraces;

  ListenerSink(const ContextPolicy &Policy, bool InlineAware = true)
      : Methods(8), Traces(Policy, 8, InlineAware) {
    Traces.enableStatistics();
  }

  void onSample(VirtualMachine &VM, ThreadState &T,
                bool AtPrologue) override {
    if (Methods.sample(VM, T))
      for (MethodId M : Methods.drain())
        AllMethods.push_back(M);
    if (AtPrologue && Traces.sample(VM, T))
      for (Trace &Tr : Traces.drain())
        AllTraces.push_back(std::move(Tr));
  }

  void flush() {
    for (MethodId M : Methods.drain())
      AllMethods.push_back(M);
    for (Trace &Tr : Traces.drain())
      AllTraces.push_back(std::move(Tr));
  }
};

} // namespace

TEST(ListenerTest, MethodListenerSeesHotMethods) {
  FigureOneProgram F = makeFigureOne(60000);
  VirtualMachine VM(F.P);
  ContextPolicy Policy(PolicyKind::ContextInsensitive, 1);
  ListenerSink Sink(Policy);
  VM.setSampleSink(&Sink);
  VM.addThread(F.P.entryMethod());
  VM.run();
  Sink.flush();
  ASSERT_GT(Sink.AllMethods.size(), 20u);
  // The hot methods must dominate the samples: get / runTest / hashCode
  // variants / main.
  size_t HotCount = 0;
  for (MethodId M : Sink.AllMethods)
    if (M == F.Get || M == F.RunTest || M == F.Main ||
        M == F.MyKeyHashCode || M == F.ObjHashCode || M == F.MyKeyEquals ||
        M == F.IntValue)
      ++HotCount;
  EXPECT_GT(HotCount * 10, Sink.AllMethods.size() * 9)
      << "at least 90% of samples land in the hot kernel";
}

TEST(ListenerTest, CinsTraceListenerRecordsDepthOneEdges) {
  FigureOneProgram F = makeFigureOne(60000);
  VirtualMachine VM(F.P);
  ContextPolicy Policy(PolicyKind::ContextInsensitive, 1);
  ListenerSink Sink(Policy);
  VM.setSampleSink(&Sink);
  VM.addThread(F.P.entryMethod());
  VM.run();
  Sink.flush();
  ASSERT_FALSE(Sink.AllTraces.empty());
  for (const Trace &T : Sink.AllTraces)
    EXPECT_EQ(T.depth(), 1u);
}

TEST(ListenerTest, ContextTraceListenerDisambiguatesHashCodeSites) {
  // The paper's Figure 2: with depth-2 traces, the hashCode samples from
  // HashMap.get split into two monomorphic contexts.
  FigureOneProgram F = makeFigureOne(120000);
  VirtualMachine VM(F.P);
  ContextPolicy Policy(PolicyKind::Fixed, 2);
  ListenerSink Sink(Policy);
  VM.setSampleSink(&Sink);
  VM.addThread(F.P.entryMethod());
  VM.run();
  Sink.flush();

  unsigned Cs1MyKey = 0, Cs1Obj = 0, Cs2MyKey = 0, Cs2Obj = 0;
  for (const Trace &T : Sink.AllTraces) {
    if (T.depth() != 2)
      continue;
    if (T.Context[0].Caller != F.Get ||
        T.Context[0].Site != F.HashCodeSite)
      continue;
    if (T.Context[1].Caller != F.RunTest)
      continue;
    const bool FromCs1 = T.Context[1].Site == F.GetSite1;
    if (T.Callee == F.MyKeyHashCode)
      (FromCs1 ? Cs1MyKey : Cs2MyKey)++;
    else if (T.Callee == F.ObjHashCode)
      (FromCs1 ? Cs1Obj : Cs2Obj)++;
  }
  EXPECT_GT(Cs1MyKey + Cs2Obj, 0u);
  EXPECT_EQ(Cs1Obj, 0u)
      << "call site 1 must never reach Object.hashCode (Figure 2c)";
  EXPECT_EQ(Cs2MyKey, 0u)
      << "call site 2 must never reach MyKey.hashCode (Figure 2c)";
}

TEST(ListenerTest, TraceListenerChargesMoreThanEdgeListener) {
  // Deterministic per-walk comparison: pause the VM on a deep stack and
  // sample it once with a depth-1 and once with a depth-4 policy.
  FigureOneProgram F = makeFigureOne(60000);
  VirtualMachine VM(F.P);
  VM.addThread(F.P.entryMethod());
  ThreadState &T = *VM.threads().front();
  // Step until the stack is at least 4 source frames deep.
  for (int Guard = 0; Guard < 100000 && T.Frames.size() < 4; ++Guard)
    VM.step(T, 1);
  ASSERT_GE(T.Frames.size(), 4u);

  ContextPolicy Shallow(PolicyKind::ContextInsensitive, 1);
  ContextPolicy Deep(PolicyKind::Fixed, 4);
  TraceListener EdgeL(Shallow), TraceL(Deep);
  uint64_t Before = VM.overheadMeter().cycles(AosComponent::Listeners);
  EdgeL.sample(VM, T);
  uint64_t EdgeCost =
      VM.overheadMeter().cycles(AosComponent::Listeners) - Before;
  Before = VM.overheadMeter().cycles(AosComponent::Listeners);
  TraceL.sample(VM, T);
  uint64_t TraceCost =
      VM.overheadMeter().cycles(AosComponent::Listeners) - Before;
  EXPECT_GT(TraceCost, EdgeCost)
      << "context-sensitive stack walks cost more (Figure 6)";
  const CostModel &Model = VM.costModel();
  EXPECT_EQ(EdgeCost, Model.EdgeSampleCost);
  EXPECT_EQ(TraceCost, Model.EdgeSampleCost + 2 * Model.TraceFrameCost)
      << "depth 3 recorded from a 4-frame stack walks 2 extra frames";
}

TEST(ListenerTest, StatisticsSeeParameterlessCallees) {
  FigureOneProgram F = makeFigureOne(60000);
  VirtualMachine VM(F.P);
  ContextPolicy Policy(PolicyKind::Fixed, 4);
  ListenerSink Sink(Policy);
  VM.setSampleSink(&Sink);
  VM.addThread(F.P.entryMethod());
  VM.run();
  const TraceStatistics &Stats = Sink.Traces.statistics();
  ASSERT_GT(Stats.numSamples(), 0u);
  // hashCode and intValue are parameterless callees; get/equals are not.
  EXPECT_GT(Stats.calleeParameterlessFraction(), 0.0);
  EXPECT_LT(Stats.calleeParameterlessFraction(), 1.0);
  // main (static) is always within the chain, so a class method appears
  // within 5 levels of every sample.
  EXPECT_GT(Stats.stopWithin(ChainStop::ClassMethod, 5), 0.95);
}
