//===- tests/BudgetTest.cpp - Budget organizer and calibration tests -------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Covers the budget-driven inlining organizer (core/BudgetOrganizer.h)
// and the size-estimator calibration it prices never-compiled callees
// with, plus the two harness-level contracts the organizer ships under:
// a budget-organizer sweep is byte-identical between runGrid() and
// runGridParallel(), and the default (threshold) configuration still
// reproduces the checked-in cycle fingerprints byte for byte.
//
//===----------------------------------------------------------------------===//

#include "core/AdaptiveSystem.h"
#include "core/BudgetOrganizer.h"
#include "bytecode/ProgramBuilder.h"
#include "bytecode/SizeClass.h"
#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "opt/SizeEstimator.h"
#include "vm/VirtualMachine.h"
#include "workload/FigureOne.h"
#include "workload/Workload.h"

#include "SameResult.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace aoci;

namespace {

Trace makeTrace(std::vector<ContextPair> Ctx, MethodId Callee) {
  Trace T;
  T.Context = std::move(Ctx);
  T.Callee = Callee;
  return T;
}

/// Identity of a rule for set comparisons: (callee, context).
using RuleKey = std::pair<MethodId, std::vector<ContextPair>>;

std::set<RuleKey> ruleKeys(const InlineRuleSet &Rules) {
  std::set<RuleKey> Keys;
  Rules.forEach([&](const InliningRule &R) {
    Keys.insert({R.T.Callee, R.T.Context});
  });
  return Keys;
}

} // namespace

//===----------------------------------------------------------------------===//
// SizeCalibration
//===----------------------------------------------------------------------===//

TEST(SizeCalibrationTest, StartsNeutral) {
  SizeCalibration C;
  EXPECT_EQ(C.samples(), 0u);
  EXPECT_DOUBLE_EQ(C.factor(), 1.0);
  EXPECT_DOUBLE_EQ(C.meanAbsErrorPct(), 0.0);
  EXPECT_EQ(C.calibrated(10), 10u);
}

TEST(SizeCalibrationTest, FirstSampleSnapsToObservedRatio) {
  SizeCalibration C;
  // Estimator said 100, compiler measured 200: estimates run 2x small.
  C.observe(100, 200);
  EXPECT_EQ(C.samples(), 1u);
  EXPECT_DOUBLE_EQ(C.factor(), 2.0);
  EXPECT_EQ(C.calibrated(10), 20u);
  EXPECT_DOUBLE_EQ(C.meanAbsErrorPct(), 50.0);
}

TEST(SizeCalibrationTest, EmaSmoothsLaterSamples) {
  SizeCalibration C;
  C.observe(100, 200); // ratio 2.0, snapped
  C.observe(100, 100); // ratio 1.0
  // Ema = 0.75 * 2.0 + 0.25 * 1.0.
  EXPECT_DOUBLE_EQ(C.factor(), 1.75);
  // Error: 50% then 0%, mean 25%.
  EXPECT_DOUBLE_EQ(C.meanAbsErrorPct(), 25.0);
}

TEST(SizeCalibrationTest, FactorIsClamped) {
  SizeCalibration Under;
  Under.observe(1, 1000); // ratio 1000: one pathological compile
  EXPECT_DOUBLE_EQ(Under.factor(), 4.0) << "clamped above";
  SizeCalibration Over;
  Over.observe(1000, 1); // ratio 0.001
  EXPECT_DOUBLE_EQ(Over.factor(), 0.5) << "clamped below";
}

TEST(SizeCalibrationTest, ZeroInputsAreIgnored) {
  SizeCalibration C;
  C.observe(0, 50);
  C.observe(50, 0);
  EXPECT_EQ(C.samples(), 0u);
  EXPECT_DOUBLE_EQ(C.factor(), 1.0);
}

TEST(SizeCalibrationTest, CalibratedNeverReturnsZero) {
  SizeCalibration C;
  C.observe(1000, 1); // factor clamps to 0.5
  EXPECT_EQ(C.calibrated(1), 1u);
  EXPECT_EQ(C.calibrated(0), 1u);
}

//===----------------------------------------------------------------------===//
// BudgetInliningOrganizer
//===----------------------------------------------------------------------===//

namespace {

/// A DCG over the Figure 1 program with several candidates of mixed
/// weight, shared by the organizer tests.
struct BudgetFixture {
  FigureOneProgram F = makeFigureOne(1);
  DynamicCallGraph Dcg;
  AosDatabase Db;
  SizeCalibration Calib;

  BudgetFixture() {
    Dcg.addSample(makeTrace({{F.Get, F.HashCodeSite}}, F.MyKeyHashCode), 20);
    Dcg.addSample(makeTrace({{F.Get, F.EqualsSite}}, F.MyKeyEquals), 12);
    Dcg.addSample(makeTrace({{F.RunTest, F.GetSite1}}, F.Get), 50);
    Dcg.addSample(makeTrace({{F.RunTest, F.GetSite2}}, F.Get), 8);
    Dcg.addSample(
        makeTrace({{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}},
                  F.MyKeyHashCode),
        6);
  }
};

} // namespace

TEST(BudgetOrganizerTest, EmptyDcgClearsRules) {
  BudgetFixture Fx;
  BudgetInliningOrganizer Org;
  InlineRuleSet Rules;
  Rules.add({makeTrace({{1, 0}}, 2), 5.0, 0});
  DynamicCallGraph Empty;
  BudgetRebuildStats S =
      Org.rebuildRules(Fx.F.P, Empty, Fx.Db, Fx.Calib, 0, Rules);
  EXPECT_TRUE(Rules.empty());
  EXPECT_EQ(S.Scanned, 0u);
}

TEST(BudgetOrganizerTest, RebuildIsDeterministic) {
  BudgetFixture Fx;
  BudgetInliningOrganizer Org;
  InlineRuleSet A, B;
  BudgetRebuildStats SA =
      Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, 7, A);
  BudgetRebuildStats SB =
      Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, 7, B);
  EXPECT_EQ(SA.UnitsSpent, SB.UnitsSpent);
  EXPECT_EQ(SA.CandidatesAccepted, SB.CandidatesAccepted);
  EXPECT_EQ(SA.CandidatesPruned, SB.CandidatesPruned);
  EXPECT_EQ(ruleKeys(A), ruleKeys(B));
  EXPECT_GT(A.size(), 0u) << "default budgets accept the hot edges";
}

TEST(BudgetOrganizerTest, NoiseFloorFiltersLightTraces) {
  BudgetFixture Fx;
  BudgetOrganizerConfig Config;
  Config.MinCandidateWeight = 100.0; // above every sample weight
  BudgetInliningOrganizer Org(Config);
  InlineRuleSet Rules;
  BudgetRebuildStats S =
      Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, 0, Rules);
  EXPECT_TRUE(Rules.empty());
  EXPECT_EQ(S.CandidatesAccepted, 0u);
  EXPECT_EQ(S.CandidatesPruned, 0u)
      << "sub-floor traces are never priced, only scanned";
  EXPECT_GT(S.Scanned, 0u);
}

TEST(BudgetOrganizerTest, ZeroBudgetsPruneEverything) {
  BudgetFixture Fx;
  BudgetOrganizerConfig Config;
  Config.InflationFactor = 0.0;
  Config.SlackUnits = 0;
  Config.ExplorationUnits = 0;
  BudgetInliningOrganizer Org(Config);
  InlineRuleSet Rules;
  BudgetRebuildStats S =
      Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, 0, Rules);
  EXPECT_TRUE(Rules.empty());
  EXPECT_EQ(S.CandidatesAccepted, 0u);
  EXPECT_GT(S.CandidatesPruned, 0u);
  EXPECT_EQ(S.UnitsSpent, 0u);
}

TEST(BudgetOrganizerTest, MeasuredSizesBypassTheExplorationPool) {
  BudgetFixture Fx;
  BudgetOrganizerConfig Config;
  Config.ExplorationUnits = 0; // no speculation on estimates
  BudgetInliningOrganizer Org(Config);

  InlineRuleSet Rules;
  Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, 0, Rules);
  EXPECT_TRUE(Rules.empty())
      << "nothing ever compiled: every candidate is estimate-priced and "
         "the exploration pool is empty";

  // Once installs feed back measured sizes, the same candidates price
  // from the ledger and no longer need exploration budget.
  for (MethodId M : {Fx.F.MyKeyHashCode, Fx.F.MyKeyEquals, Fx.F.Get})
    Fx.Db.recordMeasuredSize(M, OptLevel::Opt1, /*MachineUnits=*/12,
                             /*CodeBytes=*/48, /*CompileCycles=*/600);
  InlineRuleSet After;
  BudgetRebuildStats S =
      Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, 0, After);
  EXPECT_GT(After.size(), 0u);
  EXPECT_EQ(S.CandidatesPruned, 0u)
      << "measured candidates fit the default inflation budget";
}

TEST(BudgetOrganizerTest, DecisionCallbackCoversEveryPricedCandidate) {
  BudgetFixture Fx;
  BudgetInliningOrganizer Org;
  InlineRuleSet Rules;
  unsigned Calls = 0, AcceptedSeen = 0;
  BudgetRebuildStats S = Org.rebuildRules(
      Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, 0, Rules,
      [&](MethodId Caller, MethodId Callee, uint64_t Units,
          uint64_t Remaining, bool Accepted, bool Measured, double Weight) {
        ++Calls;
        AcceptedSeen += Accepted ? 1 : 0;
        EXPECT_GT(Units, 0u);
        EXPECT_GT(Weight, 0.0);
        EXPECT_FALSE(Measured) << "nothing compiled in this fixture";
        (void)Caller;
        (void)Callee;
        (void)Remaining;
      });
  EXPECT_EQ(Calls, S.CandidatesAccepted + S.CandidatesPruned);
  EXPECT_EQ(AcceptedSeen, S.CandidatesAccepted);
}

TEST(BudgetOrganizerTest, CreatedAtCyclePreservedAcrossRebuilds) {
  BudgetFixture Fx;
  BudgetInliningOrganizer Org;
  InlineRuleSet Rules;
  Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, /*NowCycle=*/10, Rules);
  ASSERT_GT(Rules.size(), 0u);
  Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, /*NowCycle=*/99, Rules);
  Rules.forEach([&](const InliningRule &R) {
    EXPECT_EQ(R.CreatedAtCycle, 10u)
        << "persisting rules keep their original creation time";
  });
}

TEST(BudgetOrganizerTest, LargeCalleesAreNeverCodified) {
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
  AosDatabase Db;
  SizeCalibration Calib;
  BudgetOrganizerConfig Generous;
  Generous.SlackUnits = 1u << 20;
  Generous.ExplorationUnits = 1u << 20;
  BudgetInliningOrganizer Org(Generous);
  InlineRuleSet Rules;
  Org.rebuildRules(P, Dcg, Db, Calib, 0, Rules);
  EXPECT_TRUE(Rules.empty())
      << "no budget buys an inline the compiler would refuse";
}

TEST(BudgetOrganizerTest, AcceptanceIsMonotoneUnderBudgetGrowth) {
  BudgetFixture Fx;
  // One measured callee so both pricing paths participate in the sweep.
  Fx.Db.recordMeasuredSize(Fx.F.Get, OptLevel::Opt1, /*MachineUnits=*/18,
                           /*CodeBytes=*/72, /*CompileCycles=*/900);
  std::set<RuleKey> Previous;
  uint64_t PreviousSpent = 0;
  for (uint64_t Slack : {0ull, 20ull, 60ull, 150ull, 400ull, 2000ull}) {
    BudgetOrganizerConfig Config;
    Config.SlackUnits = Slack;
    Config.ExplorationUnits = 100 + Slack;
    BudgetInliningOrganizer Org(Config);
    InlineRuleSet Rules;
    BudgetRebuildStats S =
        Org.rebuildRules(Fx.F.P, Fx.Dcg, Fx.Db, Fx.Calib, 0, Rules);
    std::set<RuleKey> Current = ruleKeys(Rules);
    for (const RuleKey &K : Previous)
      EXPECT_TRUE(Current.count(K))
          << "rule accepted under slack " << Slack
          << " lost under a strictly larger budget";
    EXPECT_GE(S.UnitsSpent, PreviousSpent);
    Previous = std::move(Current);
    PreviousSpent = S.UnitsSpent;
  }
  EXPECT_EQ(Previous.size(), 5u) << "the generous end accepts everything";
}

//===----------------------------------------------------------------------===//
// Harness contracts
//===----------------------------------------------------------------------===//

namespace {

GridConfig budgetGrid() {
  GridConfig Config;
  Config.Workloads = {"compress", "db"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2, 3};
  Config.Params.Scale = 0.1;
  Config.Aos.Organizer = InlineOrganizerKind::Budget;
  return Config;
}

} // namespace

TEST(BudgetHarnessTest, RunTwiceIsBitIdenticalWithBudgetOrganizer) {
  RunConfig Config;
  Config.WorkloadName = "db";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.1;
  Config.Aos.Organizer = InlineOrganizerKind::Budget;
  RunResult A = runExperiment(Config);
  RunResult B = runExperiment(Config);
  expectSameResult(A, B);
  EXPECT_GT(A.BudgetUnitsSpent, 0u) << "the organizer actually ran";
}

TEST(BudgetHarnessTest, SerialAndParallelBudgetSweepsAreByteIdentical) {
  GridConfig Config = budgetGrid();
  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGridParallel(Config, /*Jobs=*/4);
  EXPECT_EQ(exportCsv(Serial, Config.Policies, Config.Depths),
            exportCsv(Parallel, Config.Policies, Config.Depths));
}

TEST(BudgetHarnessTest, ThresholdRunsReportZeroBudgetActivity) {
  RunConfig Config;
  Config.WorkloadName = "compress";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.1;
  // Default organizer: the budget counters must stay untouched, while
  // the calibration (pure bookkeeping on every install) still observes.
  RunResult R = runExperiment(Config);
  EXPECT_EQ(R.BudgetUnitsSpent, 0u);
  EXPECT_EQ(R.BudgetCandidatesAccepted, 0u);
  EXPECT_EQ(R.BudgetCandidatesPruned, 0u);
  EXPECT_GT(R.EstimateErrorPct, 0.0)
      << "calibration observes installs under every organizer";
}

TEST(BudgetHarnessTest, DefaultConfigReproducesTheCycleFingerprint) {
  // The organizer-off byte-identity contract: a default-configured run
  // still produces exactly the checked-in fingerprint line, so the
  // budget machinery (ledger writes, calibration updates) is provably
  // invisible to the simulated clock when not selected.
  const std::string Path =
      std::string(AOCI_GOLDEN_DIR) + "/cycle_fingerprint.golden";
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing fixture " << Path;
  std::string GoldenLine;
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("compress fixed ", 0) == 0) {
      GoldenLine = Line;
      break;
    }
  ASSERT_FALSE(GoldenLine.empty()) << "no 'compress fixed' fingerprint";

  WorkloadParams Params;
  Workload W = makeWorkload("compress", Params);
  VirtualMachine VM(W.Prog, CostModel{});
  FixedPolicy Policy(3);
  AdaptiveSystem Aos(VM, Policy);
  Aos.attach();
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  VM.run(20000000);

  const ExecutionCounters &C = VM.counters();
  const CodeManager &Code = VM.codeManager();
  std::ostringstream Line;
  Line << "compress fixed cycles=" << VM.cycles()
       << " instr=" << C.InstructionsExecuted
       << " calls=" << C.CallsExecuted
       << " inlined=" << C.InlinedCallsEntered
       << " guardTests=" << C.GuardTestsExecuted
       << " guardFalls=" << C.GuardFallbacks
       << " allocs=" << C.Allocations << " gcPauses=" << C.GcPauses
       << " gcCycles=" << C.GcCycles << " samples=" << C.SamplesTaken
       << " prologue=" << C.PrologueSamples
       << " compiles=" << Code.numCompiles(OptLevel::Baseline) << '/'
       << Code.numCompiles(OptLevel::Opt1) << '/'
       << Code.numCompiles(OptLevel::Opt2);
  EXPECT_EQ(Line.str(), GoldenLine);
}
