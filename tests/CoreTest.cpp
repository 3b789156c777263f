//===- tests/CoreTest.cpp - Unit tests for src/core -------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/AdaptiveSystem.h"
#include "bytecode/SizeClass.h"
#include "bytecode/ProgramBuilder.h"
#include "vm/VirtualMachine.h"
#include "workload/FigureOne.h"

#include <gtest/gtest.h>

using namespace aoci;

namespace {

Trace makeTrace(std::vector<ContextPair> Ctx, MethodId Callee) {
  Trace T;
  T.Context = std::move(Ctx);
  T.Callee = Callee;
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// AosDatabase
//===----------------------------------------------------------------------===//

TEST(AosDatabaseTest, RefusalsAreRememberedPerMethodAndEdge) {
  AosDatabase Db;
  Trace Edge = makeTrace({{7, 4}}, 100);
  EXPECT_FALSE(Db.isRefused(1, Edge));
  Db.recordRefusal(1, Edge);
  EXPECT_TRUE(Db.isRefused(1, Edge));
  EXPECT_FALSE(Db.isRefused(2, Edge)) << "scoped to the compiled method";
  EXPECT_FALSE(Db.isRefused(1, makeTrace({{7, 4}}, 101)));
  Db.recordRefusal(1, Edge);
  EXPECT_EQ(Db.numRefusals(), 1u) << "idempotent";
}

//===----------------------------------------------------------------------===//
// AdaptiveInliningOrganizer
//===----------------------------------------------------------------------===//

TEST(AiOrganizerTest, ThresholdSelectsHotTraces) {
  FigureOneProgram F = makeFigureOne(1);
  DynamicCallGraph Dcg;
  // 100 units of total weight: one trace at 5%, one at 1% (below the
  // 1.5% threshold), one at 94%.
  Dcg.addSample(makeTrace({{F.Get, F.HashCodeSite}}, F.MyKeyHashCode), 5);
  Dcg.addSample(makeTrace({{F.Get, F.EqualsSite}}, F.MyKeyEquals), 1);
  Dcg.addSample(makeTrace({{F.RunTest, F.GetSite1}}, F.Get), 94);

  AdaptiveInliningOrganizer Org;
  InlineRuleSet Rules;
  Org.rebuildRules(F.P, Dcg, /*NowCycle=*/123, Rules);
  EXPECT_EQ(Rules.size(), 2u);
  EXPECT_FALSE(
      Rules.applicableRules({{F.Get, F.HashCodeSite}}).empty());
  EXPECT_TRUE(Rules.applicableRules({{F.Get, F.EqualsSite}}).empty())
      << "1% trace is below the 1.5% threshold";
  auto Hot = Rules.applicableRules({{F.RunTest, F.GetSite1}});
  ASSERT_EQ(Hot.size(), 1u);
  EXPECT_EQ(Hot.front()->CreatedAtCycle, 123u);
}

TEST(AiOrganizerTest, ProfileDilutionDelaysRules) {
  // The same 6 units of weight concentrated on one edge pass the
  // threshold; split across three contexts, none does. This is the
  // profile-dilution effect of Section 4.
  FigureOneProgram F = makeFigureOne(1);
  AdaptiveInliningOrganizer Org(AiOrganizerConfig{0.015, 1.5});

  DynamicCallGraph Concentrated;
  Concentrated.addSample(makeTrace({{F.Get, F.HashCodeSite}},
                                   F.MyKeyHashCode),
                         3.6);
  Concentrated.addSample(makeTrace({{F.RunTest, F.GetSite1}}, F.Get), 94);
  InlineRuleSet R1;
  Org.rebuildRules(F.P, Concentrated, 0, R1);
  EXPECT_EQ(R1.size(), 2u);

  DynamicCallGraph Diluted;
  for (BytecodeIndex S : {0u, 1u, 2u})
    Diluted.addSample(
        makeTrace({{F.Get, F.HashCodeSite}, {F.RunTest, S}},
                  F.MyKeyHashCode),
        1.2);
  Diluted.addSample(makeTrace({{F.RunTest, F.GetSite1}}, F.Get), 94);
  InlineRuleSet R2;
  Org.rebuildRules(F.P, Diluted, 0, R2);
  EXPECT_EQ(R2.size(), 1u)
      << "split weight falls under the absolute floor: only the get edge";
}

TEST(AiOrganizerTest, LargeCalleesAreNeverCodified) {
  ProgramBuilder B;
  ClassId C = B.addClass("C");
  MethodId Big = B.declareMethod(C, "big", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Big);
    E.work(25 * CallSequenceSize + 100).iconst(0).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Main);
    E.invokeStatic(Big).pop().ret();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();

  DynamicCallGraph Dcg;
  Dcg.addSample(makeTrace({{Main, 0}}, Big), 100);
  AdaptiveInliningOrganizer Org;
  InlineRuleSet Rules;
  Org.rebuildRules(P, Dcg, 0, Rules);
  EXPECT_TRUE(Rules.empty());
}

//===----------------------------------------------------------------------===//
// Imprecision organizer
//===----------------------------------------------------------------------===//

TEST(ImprecisionOrganizerTest, RaisesUnskewedSitesAndFreezesResolved) {
  DynamicCallGraph Dcg;
  // Site (7,4): aggregate 50/50, but each context monomorphic once depth
  // 2 traces arrive. Start with depth-1 samples only.
  Dcg.addSample(makeTrace({{7, 4}}, 100), 10);
  Dcg.addSample(makeTrace({{7, 4}}, 200), 10);
  ImprecisionTable Table;
  ImprecisionConfig Config;
  updateImprecisionTable(Dcg, Table, /*MaxDepth=*/4, Config);
  EXPECT_EQ(Table.depthFor(7, 4), 2u) << "unskewed: ask for more context";

  // Deeper samples arrive and resolve per-context; the organizer freezes
  // the depth.
  Dcg.clear();
  Dcg.addSample(makeTrace({{7, 4}, {1, 0}}, 100), 10);
  Dcg.addSample(makeTrace({{7, 4}, {2, 0}}, 200), 10);
  updateImprecisionTable(Dcg, Table, 4, Config);
  EXPECT_TRUE(Table.isResolved(7, 4));
  EXPECT_EQ(Table.depthFor(7, 4), 2u);
}

TEST(ImprecisionOrganizerTest, InherentlyPolymorphicSitesGiveUp) {
  DynamicCallGraph Dcg;
  ImprecisionTable Table;
  ImprecisionConfig Config;
  Config.GiveUpAfter = 2;
  // Context never helps: at every depth the listener records (matching
  // the table's current request), the distribution stays 50/50.
  for (int Round = 0; Round != 6; ++Round) {
    const unsigned Depth = Table.depthFor(7, 4);
    std::vector<ContextPair> Ctx = {{7, 4}};
    for (unsigned D = 1; D != Depth; ++D)
      Ctx.push_back({static_cast<MethodId>(50 + D), 0});
    Dcg.addSample(makeTrace(Ctx, 100), 10);
    Dcg.addSample(makeTrace(Ctx, 200), 10);
    updateImprecisionTable(Dcg, Table, /*MaxDepth=*/4, Config);
  }
  EXPECT_TRUE(Table.gaveUp(7, 4));
  EXPECT_EQ(Table.depthFor(7, 4), 1u)
      << "abandoned sites fall back to cheap depth-1 profiling";
}

TEST(ImprecisionOrganizerTest, MonomorphicSitesAreLeftAlone) {
  DynamicCallGraph Dcg;
  Dcg.addSample(makeTrace({{7, 4}}, 100), 50);
  ImprecisionTable Table;
  updateImprecisionTable(Dcg, Table, 4, ImprecisionConfig());
  EXPECT_EQ(Table.depthFor(7, 4), 1u);
  EXPECT_FALSE(Table.isResolved(7, 4));
}

//===----------------------------------------------------------------------===//
// Controller
//===----------------------------------------------------------------------===//

namespace {

/// A program with one hot method "hot" and one cold "cold".
struct ControllerFixture {
  Program P;
  MethodId Hot, Cold, Main;
  CostModel Model;

  ControllerFixture() {
    ProgramBuilder B;
    ClassId C = B.addClass("C");
    // Bodies sized so the analytic model needs several samples before
    // an optimizing compile pays for itself.
    Hot = B.declareMethod(C, "hot", MethodKind::Static, 0, true);
    {
      CodeEmitter E = B.code(Hot);
      E.work(2000).iconst(1).vreturn();
      E.finish();
    }
    Cold = B.declareMethod(C, "cold", MethodKind::Static, 0, true);
    {
      CodeEmitter E = B.code(Cold);
      E.work(2000).iconst(1).vreturn();
      E.finish();
    }
    Main = B.declareMethod(C, "main", MethodKind::Static, 0, false);
    {
      CodeEmitter E = B.code(Main);
      E.invokeStatic(Hot).pop().invokeStatic(Cold).pop().ret();
      E.finish();
    }
    B.setEntry(Main);
    P = B.build();
  }
};

} // namespace

TEST(ControllerTest, RepeatedSamplesTriggerRecompilation) {
  ControllerFixture F;
  VirtualMachine VM(F.P);
  VM.addThread(F.P.entryMethod());
  VM.run(); // Gives both methods baseline variants.

  Controller Ctrl(F.P, F.Model);
  // One sample: not worth it yet.
  auto R1 = Ctrl.onMethodSamples({F.Hot}, VM.codeManager());
  EXPECT_TRUE(R1.empty());
  // Many samples: the analytic model fires, requesting an upgrade.
  std::vector<MethodId> Burst(20, F.Hot);
  auto R2 = Ctrl.onMethodSamples(Burst, VM.codeManager());
  ASSERT_EQ(R2.size(), 1u);
  EXPECT_EQ(R2.front().M, F.Hot);
  EXPECT_NE(R2.front().Level, OptLevel::Baseline);
  EXPECT_FALSE(R2.front().ForceSameLevel);
}

TEST(ControllerTest, InFlightSuppressesDuplicateRequests) {
  ControllerFixture F;
  VirtualMachine VM(F.P);
  VM.addThread(F.P.entryMethod());
  VM.run();

  Controller Ctrl(F.P, F.Model);
  std::vector<MethodId> Burst(20, F.Hot);
  auto R1 = Ctrl.onMethodSamples(Burst, VM.codeManager());
  ASSERT_EQ(R1.size(), 1u);
  auto R2 = Ctrl.onMethodSamples(Burst, VM.codeManager());
  EXPECT_TRUE(R2.empty()) << "compilation already in flight";
  Ctrl.notifyInstalled(F.Hot);
  // Still at baseline in the registry, so more samples re-request.
  auto R3 = Ctrl.onMethodSamples(Burst, VM.codeManager());
  EXPECT_EQ(R3.size(), 1u);
}

TEST(ControllerTest, VeryHotMethodsJumpStraightToOptTwo) {
  ControllerFixture F;
  VirtualMachine VM(F.P);
  VM.addThread(F.P.entryMethod());
  VM.run();
  Controller Ctrl(F.P, F.Model);
  std::vector<MethodId> Burst(200, F.Hot);
  auto Requests = Ctrl.onMethodSamples(Burst, VM.codeManager());
  ASSERT_EQ(Requests.size(), 1u);
  EXPECT_EQ(Requests.front().Level, OptLevel::Opt2)
      << "with enough expected future time, opt2 beats opt1";
}

TEST(ControllerTest, DecayForgetsColdMethods) {
  ControllerFixture F;
  Controller Ctrl(F.P, F.Model);
  VirtualMachine VM(F.P);
  VM.addThread(F.P.entryMethod());
  VM.run();
  Ctrl.onMethodSamples({F.Hot, F.Hot, F.Hot, F.Hot}, VM.codeManager());
  EXPECT_GT(Ctrl.samples(F.Hot), 3.0);
  for (int I = 0; I != 100; ++I)
    Ctrl.decaySamples();
  EXPECT_LT(Ctrl.samples(F.Hot), 0.1);
}

TEST(ControllerTest, HotMethodsRespectThreshold) {
  ControllerFixture F;
  Controller Ctrl(F.P, F.Model);
  VirtualMachine VM(F.P);
  VM.addThread(F.P.entryMethod());
  VM.run();
  Ctrl.onMethodSamples({F.Hot, F.Hot, F.Hot, F.Hot, F.Cold},
                       VM.codeManager());
  auto Hot = Ctrl.hotMethods();
  ASSERT_EQ(Hot.size(), 1u);
  EXPECT_EQ(Hot.front(), F.Hot);
  EXPECT_TRUE(Ctrl.tryMarkInFlight(F.Cold));
  EXPECT_FALSE(Ctrl.tryMarkInFlight(F.Cold));
}

//===----------------------------------------------------------------------===//
// Missing-edge organizer
//===----------------------------------------------------------------------===//

TEST(MissingEdgeTest, FindsRulesNewerThanInstalledCode) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  CostModel Model;
  VirtualMachine VM(F.P);
  VM.ensureCompiled(F.RunTest);

  // Install an opt variant of runTest with no inlining, compiled at t=10.
  OptimizingCompiler Compiler(F.P, CH, Model);
  InlineRuleSet Empty;
  InliningOracle NoRules(F.P, CH, Empty);
  auto V = Compiler.compile(F.RunTest, OptLevel::Opt1, NoRules);
  V->CompiledAtCycle = 10;
  // Strip the statically inlined tiny calls for a clean "misses the get
  // edge" setup: the rule below targets a site the plan cannot contain.
  VM.codeManager().install(std::move(V));

  InlineRuleSet Rules;
  InliningRule R;
  R.T = makeTrace({{F.RunTest, F.GetSite1}}, F.Get);
  R.Weight = 50;
  R.CreatedAtCycle = 100; // Newer than the compile.
  Rules.add(R);

  AosDatabase Db;
  auto Missing = findMissingEdges(F.P, VM.codeManager(), Rules, Db,
                                  {F.RunTest});
  ASSERT_EQ(Missing.size(), 1u);
  EXPECT_EQ(Missing.front(), F.RunTest);

  // Older rules do not trigger.
  InlineRuleSet OldRules;
  R.CreatedAtCycle = 5;
  OldRules.add(R);
  EXPECT_TRUE(findMissingEdges(F.P, VM.codeManager(), OldRules, Db,
                               {F.RunTest})
                  .empty());

  // Refused rules do not trigger.
  Trace Edge = makeTrace({{F.RunTest, F.GetSite1}}, F.Get);
  Db.recordRefusal(F.RunTest, Edge);
  EXPECT_TRUE(
      findMissingEdges(F.P, VM.codeManager(), Rules, Db, {F.RunTest})
          .empty());
}

TEST(MissingEdgeTest, BaselineMethodsAreSkipped) {
  FigureOneProgram F = makeFigureOne(1);
  VirtualMachine VM(F.P);
  VM.ensureCompiled(F.RunTest);
  InlineRuleSet Rules;
  InliningRule R;
  R.T = makeTrace({{F.RunTest, F.GetSite1}}, F.Get);
  R.CreatedAtCycle = 100;
  Rules.add(R);
  AosDatabase Db;
  EXPECT_TRUE(
      findMissingEdges(F.P, VM.codeManager(), Rules, Db, {F.RunTest})
          .empty());
}

//===----------------------------------------------------------------------===//
// AdaptiveSystem end-to-end on the Figure 1 program
//===----------------------------------------------------------------------===//

namespace {

struct EndToEndResult {
  int64_t ProgramResult = 0;
  uint64_t Cycles = 0;
  uint64_t OptBytes = 0;
  uint64_t OptBytesResident = 0;
  uint64_t RunTestBytes = 0;
  uint32_t RunTestGuards = 0;
  uint64_t OptCompileCycles = 0;
  uint64_t GuardFallbacks = 0;
  uint64_t InlinedCalls = 0;
  unsigned OptCompilations = 0;
  uint64_t ListenerCycles = 0;
  uint64_t Samples = 0;
  size_t MaxRuleDepth = 0;
};

EndToEndResult runFigureOne(PolicyKind Kind, unsigned MaxDepth,
                            int64_t Iterations = 400000) {
  FigureOneProgram F = makeFigureOne(Iterations);
  VirtualMachine VM(F.P);
  auto Policy = makePolicy(Kind, MaxDepth);
  AdaptiveSystem Aos(VM, *Policy);
  Aos.attach();
  unsigned T = VM.addThread(F.P.entryMethod());
  VM.run();

  EndToEndResult R;
  R.ProgramResult = VM.threads()[T]->Result.asInt();
  R.Cycles = VM.cycles();
  R.OptBytes = VM.codeManager().optimizedBytesGenerated();
  R.OptBytesResident = VM.codeManager().optimizedBytesResident();
  if (const CodeVariant *V = VM.codeManager().current(F.RunTest)) {
    R.RunTestBytes = V->CodeBytes;
    R.RunTestGuards = V->Plan.NumGuards;
  }
  R.OptCompileCycles = VM.codeManager().optCompileCycles();
  R.GuardFallbacks = VM.counters().GuardFallbacks;
  R.InlinedCalls = VM.counters().InlinedCallsEntered;
  R.OptCompilations = Aos.stats().OptCompilations;
  R.ListenerCycles = VM.overheadMeter().cycles(AosComponent::Listeners);
  R.Samples = VM.counters().SamplesTaken;
  Aos.rules().forEach([&](const InliningRule &Rule) {
    R.MaxRuleDepth = std::max<size_t>(R.MaxRuleDepth, Rule.T.depth());
  });
  return R;
}

} // namespace

TEST(AdaptiveSystemTest, CinsEndToEndIsCorrectAndAdapts) {
  const int64_t Iterations = 400000;
  EndToEndResult R =
      runFigureOne(PolicyKind::ContextInsensitive, 1, Iterations);
  EXPECT_EQ(R.ProgramResult, 3 * Iterations) << "semantics preserved";
  EXPECT_GT(R.OptCompilations, 0u) << "hot methods got recompiled";
  EXPECT_GT(R.InlinedCalls, 0u) << "profile-directed inlining happened";
  EXPECT_EQ(R.MaxRuleDepth, 1u);
}

TEST(AdaptiveSystemTest, ContextSensitiveRulesGoDeeper) {
  EndToEndResult R = runFigureOne(PolicyKind::Fixed, 3);
  EXPECT_EQ(R.ProgramResult, 3 * 400000);
  EXPECT_GT(R.MaxRuleDepth, 1u);
}

TEST(AdaptiveSystemTest, ContextSensitivityShrinksCompiledUnits) {
  // The paper's headline claim, in miniature, on the program built to
  // show it. The sharp comparison is per compiled unit: the final
  // optimized runTest must carry fewer inline guards and less code under
  // context-sensitive rules (one hashCode per inlined copy of get,
  // Figure 2c) than under context-insensitive rules (both hashCodes in
  // every copy, Figure 2b). Whole-program resident bytes are noisier on
  // this micro-program because deep rules legitimately migrate whole
  // chains into main.
  EndToEndResult Cins =
      runFigureOne(PolicyKind::ContextInsensitive, 1);
  EndToEndResult Ctx = runFigureOne(PolicyKind::Fixed, 3);
  ASSERT_GT(Cins.RunTestBytes, 0u);
  ASSERT_GT(Ctx.RunTestBytes, 0u);
  EXPECT_LT(Ctx.RunTestBytes, Cins.RunTestBytes)
      << "Figure 5's effect: smaller optimized code per unit";
  EXPECT_LT(Ctx.RunTestGuards, Cins.RunTestGuards)
      << "one guard per context instead of two";
  // Performance parity band: the paper reports +/- a few percent.
  double PerfDelta = (static_cast<double>(Cins.Cycles) -
                      static_cast<double>(Ctx.Cycles)) /
                     static_cast<double>(Cins.Cycles) * 100.0;
  EXPECT_GT(PerfDelta, -10.0);
  EXPECT_LT(PerfDelta, 10.0);
}

TEST(AdaptiveSystemTest, TraceListenerOverheadIsHigherButTiny) {
  EndToEndResult Cins =
      runFigureOne(PolicyKind::ContextInsensitive, 1);
  EndToEndResult Ctx = runFigureOne(PolicyKind::Fixed, 4);
  ASSERT_GT(Cins.Samples, 0u);
  ASSERT_GT(Ctx.Samples, 0u);
  // (The exact cins-vs-ctx per-walk cost comparison is a deterministic
  // unit test in ProfileTest; end-to-end totals are confounded by how
  // quickly each run inlines away its prologue samples.)
  // "this overhead still represents less than 0.06% of total execution
  // time" — allow an order of magnitude of slack.
  EXPECT_LT(static_cast<double>(Ctx.ListenerCycles),
            0.005 * static_cast<double>(Ctx.Cycles));
}

TEST(AdaptiveSystemTest, AdaptiveImprecisionRaisesHashCodeSite) {
  FigureOneProgram F = makeFigureOne(500000);
  VirtualMachine VM(F.P);
  auto Policy = makePolicy(PolicyKind::AdaptiveImprecision, 4);
  AdaptiveSystem Aos(VM, *Policy);
  Aos.attach();
  VM.addThread(F.P.entryMethod());
  VM.run();
  ImprecisionTable *Table = Policy->imprecisionTable();
  ASSERT_NE(Table, nullptr);
  // The hashCode site inside get is the program's one imprecise site: the
  // organizer must have flagged it for more context. (Whether deeper
  // traces then fully resolve it before guarded inlining removes the
  // site's prologue samples is a timing race the paper itself flags as
  // the open question of this policy — so resolution is not asserted.)
  EXPECT_TRUE(Table->depthFor(F.Get, F.HashCodeSite) > 1 ||
              Table->isResolved(F.Get, F.HashCodeSite));
  // No other site in the program warrants context: all are monomorphic.
  EXPECT_EQ(Table->depthFor(F.RunTest, F.GetSite1), 1u);
}

TEST(AdaptiveSystemTest, AllPoliciesRunFigureOneCorrectly) {
  for (PolicyKind K : allPolicyKinds()) {
    SCOPED_TRACE(policyKindName(K));
    EndToEndResult R = runFigureOne(K, 3, 150000);
    EXPECT_EQ(R.ProgramResult, 3 * 150000);
  }
}
