//===- tests/OrganizerDeepTest.cpp - Deep missing-edge organizer tests ------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Tests for plan realization (does an installed inline plan realize a
// context rule's chain?), the deep-chain missing-edge extension, and the
// naive-vs-inline-aware stack walk of Section 3.3.
//
//===----------------------------------------------------------------------===//

#include "core/AdaptiveSystem.h"
#include "opt/Compiler.h"
#include "workload/FigureOne.h"

#include <gtest/gtest.h>

using namespace aoci;

namespace {

InliningRule rule(std::vector<ContextPair> Ctx, MethodId Callee,
                  double Weight = 10, uint64_t At = 100) {
  InliningRule R;
  R.T.Context = std::move(Ctx);
  R.T.Callee = Callee;
  R.Weight = Weight;
  R.CreatedAtCycle = At;
  return R;
}

/// Builds a plan for runTest that inlines get at cs1 and MyKey.hashCode
/// inside that copy (the Figure 2c shape for cs1 only).
InlinePlan cs1Plan(const FigureOneProgram &F) {
  InlinePlan Plan;
  InlineCase GetCase;
  GetCase.Callee = F.Get;
  GetCase.Guarded = true;
  GetCase.Body = std::make_unique<InlineNode>();
  InlineCase HashCase;
  HashCase.Callee = F.MyKeyHashCode;
  HashCase.Guarded = true;
  GetCase.Body->getOrCreate(F.HashCodeSite)
      .Cases.push_back(std::move(HashCase));
  Plan.Root.getOrCreate(F.GetSite1).Cases.push_back(std::move(GetCase));
  Plan.recountStatistics();
  return Plan;
}

} // namespace

TEST(PlanRealizesRuleTest, DirectEdgeAtPositionZero) {
  FigureOneProgram F = makeFigureOne(1);
  InlinePlan Plan = cs1Plan(F);
  // runTest owns position 0 of the edge rule (runTest, cs1) -> get.
  EXPECT_TRUE(planRealizesRule(
      Plan, rule({{F.RunTest, F.GetSite1}}, F.Get), 0));
  EXPECT_FALSE(planRealizesRule(
      Plan, rule({{F.RunTest, F.GetSite2}}, F.Get), 0))
      << "cs2 is not inlined in this plan";
  EXPECT_FALSE(planRealizesRule(
      Plan, rule({{F.RunTest, F.GetSite1}}, F.Put), 0))
      << "different callee at the same site";
}

TEST(PlanRealizesRuleTest, DeepChainAtOuterPosition) {
  FigureOneProgram F = makeFigureOne(1);
  InlinePlan Plan = cs1Plan(F);
  // runTest owns position 1 of the deep rule
  //   (get, hashSite), (runTest, cs1) -> MyKey.hashCode.
  EXPECT_TRUE(planRealizesRule(
      Plan,
      rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
           F.MyKeyHashCode),
      1));
  // The other target is not inlined inside the chain.
  EXPECT_FALSE(planRealizesRule(
      Plan,
      rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
           F.ObjHashCode),
      1));
  // A chain through cs2 does not exist at all.
  EXPECT_FALSE(planRealizesRule(
      Plan,
      rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite2}},
           F.MyKeyHashCode),
      1));
  // Position 0 of the deep rule is owned by get, whose standalone plan
  // this is not; an empty plan realizes nothing.
  InlinePlan Empty;
  EXPECT_FALSE(planRealizesRule(
      Empty,
      rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
           F.MyKeyHashCode),
      0));
}

TEST(DeepMissingEdgeTest, OuterPositionTriggersOnlyWithDeepChains) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  CostModel Model;
  VirtualMachine VM(F.P);
  VM.ensureCompiled(F.RunTest);

  // Install an opt runTest with no inlining at all, compiled at t=10.
  OptimizingCompiler Compiler(F.P, CH, Model);
  InlineRuleSet Empty;
  InliningOracle NoRules(F.P, CH, Empty);
  InlinerConfig Tight;
  Tight.AbsoluteUnitCap = 1; // Forbid even tiny inlining.
  InliningOracle Nothing(F.P, CH, Empty, Tight);
  auto V = Compiler.compile(F.RunTest, OptLevel::Opt1, Nothing);
  V->CompiledAtCycle = 10;
  VM.codeManager().install(std::move(V));

  // A deep rule whose innermost caller is get (baseline) and whose outer
  // position names runTest, chain-supported by a get edge rule.
  InlineRuleSet Rules;
  Rules.add(rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
                 F.MyKeyHashCode));
  Rules.add(rule({{F.RunTest, F.GetSite1}}, F.Get));

  AosDatabase Db;
  // Edge-level organizer (paper-faithful): the deep rule's innermost
  // caller get is baseline-compiled, so only the get edge rule triggers
  // runTest.
  auto EdgeOnly = findMissingEdges(F.P, VM.codeManager(), Rules, Db,
                                   {F.RunTest, F.Get},
                                   /*DeepChains=*/false);
  ASSERT_EQ(EdgeOnly.size(), 1u);
  EXPECT_EQ(EdgeOnly.front(), F.RunTest);

  // Deep organizer: also only runTest (deduplicated), via both rules.
  auto Deep = findMissingEdges(F.P, VM.codeManager(), Rules, Db,
                               {F.RunTest, F.Get}, /*DeepChains=*/true);
  ASSERT_EQ(Deep.size(), 1u);
  EXPECT_EQ(Deep.front(), F.RunTest);
}

TEST(DeepMissingEdgeTest, UnsupportedChainDoesNotTrigger) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  CostModel Model;
  VirtualMachine VM(F.P);
  OptimizingCompiler Compiler(F.P, CH, Model);
  InlineRuleSet Empty;
  InlinerConfig Tight;
  Tight.AbsoluteUnitCap = 1;
  InliningOracle Nothing(F.P, CH, Empty, Tight);
  auto V = Compiler.compile(F.RunTest, OptLevel::Opt1, Nothing);
  V->CompiledAtCycle = 10;
  VM.codeManager().install(std::move(V));

  // Deep rule WITHOUT a supporting get edge rule: recompiling runTest
  // could never inline the chain, so the deep organizer must stay quiet
  // about it.
  InlineRuleSet Rules;
  Rules.add(rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
                 F.MyKeyHashCode));
  AosDatabase Db;
  auto Deep = findMissingEdges(F.P, VM.codeManager(), Rules, Db,
                               {F.RunTest}, /*DeepChains=*/true);
  EXPECT_TRUE(Deep.empty());
}

TEST(DeepMissingEdgeTest, ConflictingContextsSuppressStandaloneRecompile) {
  // Figure 2c rules disagree across contexts; recompiling get standalone
  // would hit an empty intersection, so the organizer must not recommend
  // it even though neither rule is realized in get's installed code.
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  CostModel Model;
  VirtualMachine VM(F.P);
  OptimizingCompiler Compiler(F.P, CH, Model);
  InlineRuleSet Empty;
  InlinerConfig Tight;
  Tight.AbsoluteUnitCap = 1;
  InliningOracle Nothing(F.P, CH, Empty, Tight);
  auto V = Compiler.compile(F.Get, OptLevel::Opt1, Nothing);
  V->CompiledAtCycle = 10;
  VM.codeManager().install(std::move(V));

  InlineRuleSet Rules;
  Rules.add(rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
                 F.MyKeyHashCode));
  Rules.add(rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite2}},
                 F.ObjHashCode));
  AosDatabase Db;
  auto Missing = findMissingEdges(F.P, VM.codeManager(), Rules, Db,
                                  {F.Get}, /*DeepChains=*/false);
  EXPECT_TRUE(Missing.empty())
      << "an empty-intersection standalone recompile was recommended";
}

//===----------------------------------------------------------------------===//
// Section 3.3: naive vs inline-aware stack walks end to end
//===----------------------------------------------------------------------===//

TEST(NaiveWalkTest, NaiveWalkMisattributesTracesAfterInlining) {
  // The paper's Section 3.3 scenario, constructed directly: B is inlined
  // into A, so a naive physical-frame walk sampled inside C records the
  // misleading A => C edge while the inline-aware walk recovers
  // A => B => C. We install the plan by hand and drive both listeners
  // over the same execution.
  FigureOneProgram F = makeFigureOne(300000);
  VirtualMachine VM(F.P);

  // Inline get into runTest at cs1 with nothing inside it: hashCode
  // stays a physical call made from the inlined get body.
  auto V = std::make_unique<CodeVariant>();
  V->M = F.RunTest;
  V->Level = OptLevel::Opt2;
  InlineCase GetCase;
  GetCase.Callee = F.Get;
  GetCase.Guarded = true;
  GetCase.BodyUnits = F.P.method(F.Get).machineSize();
  V->Plan.Root.getOrCreate(F.GetSite1).Cases.push_back(std::move(GetCase));
  V->Plan.recountStatistics();
  V->MachineUnits = 100;
  V->CodeBytes = 1000;
  VM.codeManager().install(std::move(V));

  struct DualSink : SampleSink {
    ContextPolicy Policy{PolicyKind::Fixed, 2};
    TraceListener Aware{Policy, 4096, /*InlineAware=*/true};
    TraceListener Naive{Policy, 4096, /*InlineAware=*/false};
    void onSample(VirtualMachine &VM2, ThreadState &T,
                  bool AtPrologue) override {
      if (!AtPrologue)
        return;
      Aware.sample(VM2, T);
      Naive.sample(VM2, T);
    }
  };
  DualSink Sink;
  VM.setSampleSink(&Sink);
  unsigned T = VM.addThread(F.P.entryMethod());
  VM.run();
  EXPECT_EQ(VM.threads()[T]->Result.asInt(), 3 * 300000);

  auto hashCodeCallers = [&](TraceListener &L) {
    std::pair<unsigned, unsigned> FromGetVsRunTest{0, 0};
    for (Trace &Tr : L.drain()) {
      if (Tr.Callee != F.MyKeyHashCode && Tr.Callee != F.ObjHashCode)
        continue;
      if (Tr.innermost().Caller == F.Get)
        ++FromGetVsRunTest.first;
      else if (Tr.innermost().Caller == F.RunTest)
        ++FromGetVsRunTest.second;
    }
    return FromGetVsRunTest;
  };

  auto [AwareGet, AwareRunTest] = hashCodeCallers(Sink.Aware);
  auto [NaiveGet, NaiveRunTest] = hashCodeCallers(Sink.Naive);
  (void)NaiveGet;
  EXPECT_GT(AwareGet, 0u);
  EXPECT_EQ(AwareRunTest, 0u)
      << "the aware walk must never record runTest => hashCode";
  EXPECT_GT(NaiveRunTest, 0u)
      << "the naive walk must record the misleading runTest => hashCode";
}

TEST(NaiveWalkTest, AwareWalkNeverMisattributes) {
  FigureOneProgram F = makeFigureOne(400000);
  VirtualMachine VM(F.P);
  auto Policy = makePolicy(PolicyKind::Fixed, 2);
  AdaptiveSystem Aos(VM, *Policy); // Default: inline-aware.
  Aos.attach();
  VM.addThread(F.P.entryMethod());
  VM.run();
  Aos.dcg().forEach([&](const Trace &Tr, double) {
    if (Tr.Callee == F.MyKeyHashCode || Tr.Callee == F.ObjHashCode) {
      EXPECT_EQ(Tr.innermost().Caller, F.Get)
          << "hashCode is only ever called from get";
    }
  });
}
