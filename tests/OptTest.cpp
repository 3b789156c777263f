//===- tests/OptTest.cpp - Unit tests for src/opt ---------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "opt/Compiler.h"
#include "opt/InliningOracle.h"
#include "opt/SizeEstimator.h"
#include "bytecode/ProgramBuilder.h"
#include "vm/VirtualMachine.h"
#include "workload/FigureOne.h"

#include <gtest/gtest.h>

using namespace aoci;

namespace {

InliningRule rule(std::vector<ContextPair> Ctx, MethodId Callee,
                  double Weight, uint64_t At = 0) {
  InliningRule R;
  R.T.Context = std::move(Ctx);
  R.T.Callee = Callee;
  R.Weight = Weight;
  R.CreatedAtCycle = At;
  return R;
}

/// Finds the case list the plan stores for (Site), or nullptr.
const InlineNode::SiteDecision *planAt(const CodeVariant &V,
                                       BytecodeIndex Site) {
  return V.Plan.Root.find(Site);
}

bool planInlines(const CodeVariant &V, BytecodeIndex Site, MethodId Callee) {
  const auto *D = planAt(V, Site);
  if (!D)
    return false;
  for (const InlineCase &Case : D->Cases)
    if (Case.Callee == Callee)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// SizeEstimator
//===----------------------------------------------------------------------===//

TEST(SizeEstimatorTest, ConstantArgsShrinkEstimate) {
  FigureOneProgram F = makeFigureOne(1);
  unsigned Plain = inlinedSizeEstimate(F.P, F.Get, 0);
  unsigned OneConst = inlinedSizeEstimate(F.P, F.Get, 0b1);
  EXPECT_LT(OneConst, Plain);
  EXPECT_GE(static_cast<double>(OneConst),
            static_cast<double>(Plain) * MinSizeFraction - 1);
}

TEST(SizeEstimatorTest, FloorBoundsReduction) {
  FigureOneProgram F = makeFigureOne(1);
  // A method with many "constant" args cannot shrink below the floor.
  unsigned Floor = inlinedSizeEstimate(F.P, F.Put, 0b11);
  EXPECT_GE(static_cast<double>(Floor),
            static_cast<double>(F.P.method(F.Put).machineSize()) *
                MinSizeFraction -
                1);
}

TEST(SizeEstimatorTest, FigureOneSizeClasses) {
  FigureOneProgram F = makeFigureOne(1);
  EXPECT_EQ(classifyMethod(F.P.method(F.ObjHashCode)), SizeClass::Tiny);
  EXPECT_EQ(classifyMethod(F.P.method(F.MyKeyHashCode)), SizeClass::Tiny);
  EXPECT_EQ(classifyMethod(F.P.method(F.IntValue)), SizeClass::Tiny);
  SizeClass GetClass = classifyMethod(F.P.method(F.Get));
  EXPECT_TRUE(GetClass == SizeClass::Small || GetClass == SizeClass::Medium)
      << "get must be inlinable (not large)";
}

//===----------------------------------------------------------------------===//
// Static heuristics
//===----------------------------------------------------------------------===//

namespace {

OracleQuery queryFor(const Program &P, MethodId Enclosing,
                     BytecodeIndex Site,
                     std::vector<ContextPair> ExtraContext = {}) {
  OracleQuery Q;
  Q.Enclosing = Enclosing;
  Q.Site = Site;
  Q.Call = P.method(Enclosing).Body[Site];
  Q.CompilationContext.push_back(ContextPair{Enclosing, Site});
  for (const ContextPair &C : ExtraContext)
    Q.CompilationContext.push_back(C);
  Q.Depth = ExtraContext.size() ? 1 : 0;
  return Q;
}

} // namespace

TEST(StaticOracleTest, PolymorphicSiteNotStaticallyBound) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  InlineRuleSet NoRules;
  InliningOracle Oracle(F.P, CH, NoRules);
  // hashCode has two implementations: no static decision.
  auto D = Oracle.decide(queryFor(F.P, F.Get, F.HashCodeSite));
  EXPECT_TRUE(D.empty());
}

TEST(StaticOracleTest, FinalTinyMethodInlinedWithoutGuard) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  InlineRuleSet NoRules;
  InliningOracle Oracle(F.P, CH, NoRules);
  // Find the intValue call site in runTest (first invoke of IntValue).
  const Method &RunTest = F.P.method(F.RunTest);
  BytecodeIndex IntValueSite = 0;
  for (BytecodeIndex S : RunTest.callSites())
    if (static_cast<MethodId>(RunTest.Body[S].Operand) == F.IntValue) {
      IntValueSite = S;
      break;
    }
  auto D = Oracle.decide(queryFor(F.P, F.RunTest, IntValueSite));
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D.front().Callee, F.IntValue);
  EXPECT_FALSE(D.front().NeedsGuard) << "final + CHA-mono: no guard";
  EXPECT_FALSE(D.front().ProfileDirected);
}

TEST(StaticOracleTest, MonomorphicNonFinalNeedsGuard) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  InlineRuleSet NoRules;
  InliningOracle Oracle(F.P, CH, NoRules);
  // MyKey.equals is polymorphic (Object.equals exists) -> nothing.
  // HashMap.put is CHA-monomorphic but not final; it is small/medium.
  const Method &Main = F.P.method(F.Main);
  BytecodeIndex PutSite = 0;
  for (BytecodeIndex S : Main.callSites())
    if (static_cast<MethodId>(Main.Body[S].Operand) == F.Put) {
      PutSite = S;
      break;
    }
  auto D = Oracle.decide(queryFor(F.P, F.Main, PutSite));
  if (classifyMethod(F.P.method(F.Put)) == SizeClass::Medium) {
    EXPECT_TRUE(D.empty()) << "medium methods need profile data";
  } else {
    ASSERT_EQ(D.size(), 1u);
    EXPECT_TRUE(D.front().NeedsGuard);
  }
}

//===----------------------------------------------------------------------===//
// Rule-directed decisions: the Figure 2 scenarios
//===----------------------------------------------------------------------===//

namespace {

/// Rule sets mirroring Figure 2b (context-insensitive) and Figure 2c
/// (context-sensitive) for the hashCode site inside HashMap.get.
struct FigureTwoFixture {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH{F.P};
  InlineRuleSet CinsRules, CtxRules;

  FigureTwoFixture() {
    // Figure 2b: one call edge, 50/50 between the two targets.
    CinsRules.add(rule({{F.Get, F.HashCodeSite}}, F.MyKeyHashCode, 50));
    CinsRules.add(rule({{F.Get, F.HashCodeSite}}, F.ObjHashCode, 50));
    // Figure 2c: two contexts, each monomorphic.
    CtxRules.add(rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
                      F.MyKeyHashCode, 50));
    CtxRules.add(rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite2}},
                      F.ObjHashCode, 50));
    // Both rule sets also know the runTest->get edges are hot.
    for (InlineRuleSet *RS : {&CinsRules, &CtxRules}) {
      RS->add(rule({{F.RunTest, F.GetSite1}}, F.Get, 60));
      RS->add(rule({{F.RunTest, F.GetSite2}}, F.Get, 60));
    }
  }
};

} // namespace

TEST(ProfileOracleTest, CinsInlinesBothHashCodesEverywhere) {
  FigureTwoFixture Fx;
  InliningOracle Oracle(Fx.F.P, Fx.CH, Fx.CinsRules);
  // Compiling get standalone: both targets are 50% -> both inlined.
  auto D = Oracle.decide(
      queryFor(Fx.F.P, Fx.F.Get, Fx.F.HashCodeSite));
  ASSERT_EQ(D.size(), 2u);
  EXPECT_TRUE(D[0].NeedsGuard);
  EXPECT_TRUE(D[1].NeedsGuard);
  // Inside get inlined into runTest at cs1: the context-insensitive rule
  // still matches, still both targets.
  auto D2 = Oracle.decide(
      queryFor(Fx.F.P, Fx.F.Get, Fx.F.HashCodeSite,
               {{Fx.F.RunTest, Fx.F.GetSite1}}));
  EXPECT_EQ(D2.size(), 2u);
}

TEST(ProfileOracleTest, ContextRulesSelectSingleTargetPerContext) {
  FigureTwoFixture Fx;
  InliningOracle Oracle(Fx.F.P, Fx.CH, Fx.CtxRules);
  // Inside get inlined into runTest at cs1: only MyKey.hashCode.
  auto D1 = Oracle.decide(
      queryFor(Fx.F.P, Fx.F.Get, Fx.F.HashCodeSite,
               {{Fx.F.RunTest, Fx.F.GetSite1}}));
  ASSERT_EQ(D1.size(), 1u);
  EXPECT_EQ(D1.front().Callee, Fx.F.MyKeyHashCode);
  // At cs2: only Object.hashCode.
  auto D2 = Oracle.decide(
      queryFor(Fx.F.P, Fx.F.Get, Fx.F.HashCodeSite,
               {{Fx.F.RunTest, Fx.F.GetSite2}}));
  ASSERT_EQ(D2.size(), 1u);
  EXPECT_EQ(D2.front().Callee, Fx.F.ObjHashCode);
}

TEST(ProfileOracleTest, EmptyIntersectionInlinesNothing) {
  // Compiling get standalone under context-sensitive rules: the two
  // context groups want different targets, so the intersection is empty
  // ("a good candidate only if hot in ALL applicable contexts").
  FigureTwoFixture Fx;
  InliningOracle Oracle(Fx.F.P, Fx.CH, Fx.CtxRules);
  auto D = Oracle.decide(
      queryFor(Fx.F.P, Fx.F.Get, Fx.F.HashCodeSite));
  EXPECT_TRUE(D.empty());
}

TEST(ProfileOracleTest, LowShareTargetsRefusedAsTooPolymorphic) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  InlineRuleSet Rules;
  // Four-way split, each 25% (< default MinTargetShare 0.30): inline
  // nothing. Reuse the two hashCode impls twice with fudged weights.
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.MyKeyHashCode, 25));
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.ObjHashCode, 25));
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.MyKeyEquals, 25));
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.ObjEquals, 25));
  InliningOracle Oracle(F.P, CH, Rules);
  auto D = Oracle.decide(queryFor(F.P, F.Get, F.HashCodeSite));
  EXPECT_TRUE(D.empty());
}

TEST(ProfileOracleTest, GuardOrderIsHottestFirst) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  InlineRuleSet Rules;
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.MyKeyHashCode, 45));
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.ObjHashCode, 55));
  InliningOracle Oracle(F.P, CH, Rules);
  auto D = Oracle.decide(queryFor(F.P, F.Get, F.HashCodeSite));
  ASSERT_EQ(D.size(), 2u);
  EXPECT_EQ(D[0].Callee, F.ObjHashCode) << "hotter target guards first";
}

TEST(ProfileOracleTest, MinorityTargetDroppedBelowShareFloor) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  InlineRuleSet Rules;
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.MyKeyHashCode, 30));
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.ObjHashCode, 70));
  InliningOracle Oracle(F.P, CH, Rules);
  auto D = Oracle.decide(queryFor(F.P, F.Get, F.HashCodeSite));
  ASSERT_EQ(D.size(), 1u) << "30% share is below the 0.40 floor";
  EXPECT_EQ(D[0].Callee, F.ObjHashCode);
}

TEST(ProfileOracleTest, MaxGuardedTargetsCaps) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  InlineRuleSet Rules;
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.MyKeyHashCode, 40));
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.ObjHashCode, 35));
  Rules.add(rule({{F.Get, F.HashCodeSite}}, F.MyKeyEquals, 30));
  InlinerConfig Config;
  Config.MinTargetShare = 0.1;
  InliningOracle Oracle(F.P, CH, Rules, Config);
  auto D = Oracle.decide(queryFor(F.P, F.Get, F.HashCodeSite));
  EXPECT_EQ(D.size(), 2u);
}

//===----------------------------------------------------------------------===//
// OptimizingCompiler
//===----------------------------------------------------------------------===//

TEST(CompilerTest, StaticOracleInlinesTinyCalls) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  CostModel Model;
  OptimizingCompiler Compiler(F.P, CH, Model);
  InlineRuleSet NoRules;
  InliningOracle Oracle(F.P, CH, NoRules);
  auto V = Compiler.compile(F.RunTest, OptLevel::Opt2, Oracle);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Level, OptLevel::Opt2);
  // runTest's intValue calls are tiny+final: inlined without guards.
  EXPECT_GE(V->Plan.NumInlineBodies, 2u);
  EXPECT_EQ(V->Plan.NumGuards, 0u);
  EXPECT_GT(V->MachineUnits, F.P.method(F.RunTest).machineSize())
      << "inlined bodies add units";
  EXPECT_EQ(V->CodeBytes, Model.codeBytes(OptLevel::Opt2, V->MachineUnits));
}

TEST(CompilerTest, ContextSensitivePlanIsSmallerThanCins) {
  // Compile runTest under Figure 2b vs Figure 2c rules. The cins plan
  // inlines both hashCode targets inside each inlined copy of get; the
  // context-sensitive plan inlines exactly one per copy.
  FigureTwoFixture Fx;
  CostModel Model;
  OptimizingCompiler Compiler(Fx.F.P, Fx.CH, Model);

  InliningOracle CinsOracle(Fx.F.P, Fx.CH, Fx.CinsRules);
  InliningOracle CtxOracle(Fx.F.P, Fx.CH, Fx.CtxRules);
  auto CinsV = Compiler.compile(Fx.F.RunTest, OptLevel::Opt2, CinsOracle);
  auto CtxV = Compiler.compile(Fx.F.RunTest, OptLevel::Opt2, CtxOracle);

  // Both inline get at both call sites.
  EXPECT_TRUE(planInlines(*CinsV, Fx.F.GetSite1, Fx.F.Get));
  EXPECT_TRUE(planInlines(*CtxV, Fx.F.GetSite1, Fx.F.Get));
  EXPECT_TRUE(planInlines(*CtxV, Fx.F.GetSite2, Fx.F.Get));

  // The context-sensitive variant must be strictly smaller with fewer
  // guards — the paper's central code-space claim in miniature.
  EXPECT_LT(CtxV->CodeBytes, CinsV->CodeBytes);
  EXPECT_LT(CtxV->Plan.NumGuards, CinsV->Plan.NumGuards);
  EXPECT_LT(CtxV->CompileCycles, CinsV->CompileCycles);

  // And the inlined hashCode targets must be the Figure 2c ones.
  const auto *Cs1 = planAt(*CtxV, Fx.F.GetSite1);
  ASSERT_NE(Cs1, nullptr);
  ASSERT_EQ(Cs1->Cases.size(), 1u);
  const InlineNode *GetBody1 = Cs1->Cases[0].Body.get();
  ASSERT_NE(GetBody1, nullptr);
  const auto *Hash1 = GetBody1->find(Fx.F.HashCodeSite);
  ASSERT_NE(Hash1, nullptr);
  ASSERT_EQ(Hash1->Cases.size(), 1u);
  EXPECT_EQ(Hash1->Cases[0].Callee, Fx.F.MyKeyHashCode);
}

TEST(CompilerTest, RecursiveInliningIsBlocked) {
  // A self-recursive tiny method must not be inlined into itself.
  ProgramBuilder B;
  ClassId C = B.addClass("C");
  MethodId Rec = B.declareMethod(C, "rec", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(Rec);
    auto Base = E.newLabel();
    E.load(0).ifZero(Base);
    E.load(0).iconst(1).isub().invokeStatic(Rec).vreturn();
    E.bind(Base);
    E.iconst(0).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Main);
    E.iconst(3).invokeStatic(Rec).pop().ret();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  ClassHierarchy CH(P);
  CostModel Model;
  OptimizingCompiler Compiler(P, CH, Model);
  InlineRuleSet NoRules;
  InliningOracle Oracle(P, CH, NoRules);
  auto V = Compiler.compile(Rec, OptLevel::Opt1, Oracle);
  EXPECT_EQ(V->Plan.NumInlineBodies, 0u);
}

TEST(CompilerTest, BudgetRefusalsAreRecordedInDatabase) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  CostModel Model;
  OptimizingCompiler Compiler(F.P, CH, Model);

  InlineRuleSet Rules;
  Rules.add(rule({{F.RunTest, F.GetSite1}}, F.Get, 60));
  Rules.add(rule({{F.RunTest, F.GetSite2}}, F.Get, 60));
  InlinerConfig Config;
  Config.AbsoluteUnitCap = 1; // Refuse everything.
  InliningOracle Oracle(F.P, CH, Rules, Config);

  struct CountingSink : InlineRefusalSink {
    unsigned Refusals = 0;
    void recordRefusal(MethodId, const Trace &) override { ++Refusals; }
  };
  CountingSink Sink;
  CompileStats Stats;
  auto V = Compiler.compile(F.RunTest, OptLevel::Opt2, Oracle, &Sink, &Stats);
  EXPECT_EQ(V->Plan.NumInlineBodies, 0u);
  EXPECT_GE(Sink.Refusals, 2u) << "both hot get edges refused";
  EXPECT_EQ(Stats.DecisionsAccepted, 0u);
  EXPECT_GE(Stats.DecisionsRefused, 2u);
}

TEST(CompilerTest, DepthLimitStopsNestedInlining) {
  // A chain of tiny static calls deeper than HardMaxDepth.
  ProgramBuilder B;
  ClassId C = B.addClass("C");
  std::vector<MethodId> Chain;
  const unsigned Depth = 12;
  for (unsigned I = 0; I != Depth; ++I) {
    std::string Name = "f";
    Name += std::to_string(I);
    Chain.push_back(B.declareMethod(C, Name, MethodKind::Static, 0, true));
  }
  for (unsigned I = 0; I != Depth; ++I) {
    CodeEmitter E = B.code(Chain[I]);
    if (I + 1 != Depth)
      E.invokeStatic(Chain[I + 1]).vreturn();
    else
      E.iconst(1).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Main);
    E.invokeStatic(Chain[0]).pop().ret();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  ClassHierarchy CH(P);
  CostModel Model;
  OptimizingCompiler Compiler(P, CH, Model);
  InlineRuleSet NoRules;
  InliningOracle Oracle(P, CH, NoRules);
  auto V = Compiler.compile(Chain[0], OptLevel::Opt2, Oracle);
  EXPECT_GT(V->Plan.MaxDepth, 0u);
  EXPECT_LE(V->Plan.MaxDepth, Oracle.config().HardMaxDepth);
  EXPECT_LT(V->Plan.NumInlineBodies, Depth);
}

TEST(CompilerTest, CompiledPlanExecutesCorrectly) {
  // End-to-end: install the context-sensitive runTest variant and check
  // the program still computes the right answer with inlined execution.
  FigureTwoFixture Fx;
  const int64_t Iterations = 5000;
  FigureOneProgram F = makeFigureOne(Iterations);
  ClassHierarchy CH(F.P);
  CostModel Model;
  OptimizingCompiler Compiler(F.P, CH, Model);

  InlineRuleSet Rules;
  Rules.add(rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
                 F.MyKeyHashCode, 50));
  Rules.add(rule({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite2}},
                 F.ObjHashCode, 50));
  Rules.add(rule({{F.RunTest, F.GetSite1}}, F.Get, 60));
  Rules.add(rule({{F.RunTest, F.GetSite2}}, F.Get, 60));
  InliningOracle Oracle(F.P, CH, Rules);

  VirtualMachine VM(F.P);
  auto V = Compiler.compile(F.RunTest, OptLevel::Opt2, Oracle);
  VM.codeManager().install(std::move(V));
  unsigned T = VM.addThread(F.P.entryMethod());
  VM.run();
  EXPECT_EQ(VM.threads()[T]->Result.asInt(), 3 * Iterations);
  EXPECT_GT(VM.counters().InlinedCallsEntered, 0u);
}
