//===- tests/HarnessTest.cpp - Unit tests for src/harness -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "harness/Reporters.h"
#include "support/StringUtils.h"

#include "SameResult.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>

using namespace aoci;

namespace {

RunConfig smallConfig(const std::string &Workload,
                      PolicyKind Policy = PolicyKind::ContextInsensitive,
                      unsigned Depth = 1) {
  RunConfig Config;
  Config.WorkloadName = Workload;
  Config.Params.Scale = 0.2;
  Config.Policy = Policy;
  Config.MaxDepth = Depth;
  return Config;
}

} // namespace

TEST(ExperimentTest, RunCollectsAllMetrics) {
  RunResult R = runExperiment(smallConfig("compress"));
  EXPECT_EQ(R.WorkloadName, "compress");
  EXPECT_GT(R.WallCycles, 0u);
  EXPECT_GT(R.SamplesTaken, 0u);
  EXPECT_GT(R.BaselineCompileCycles, 0u);
  EXPECT_GT(R.ClassesLoaded, 40u);
  EXPECT_GT(R.MethodsCompiled, 100u);
  EXPECT_GT(R.BytecodesCompiled, 1000u);
  // Components are a small fraction of execution.
  double Total = 0;
  for (unsigned C = 0; C != NumAosComponents; ++C)
    Total += R.componentFraction(static_cast<AosComponent>(C));
  EXPECT_GT(Total, 0.0);
  EXPECT_LT(Total, 0.25);
}

TEST(ExperimentTest, RunsAreDeterministic) {
  RunResult A = runExperiment(smallConfig("jess", PolicyKind::Fixed, 3));
  RunResult B = runExperiment(smallConfig("jess", PolicyKind::Fixed, 3));
  expectSameResult(A, B);
}

TEST(ExperimentTest, TraceStatsOnlyWhenRequested) {
  RunConfig Config = smallConfig("jack", PolicyKind::Fixed, 4);
  RunResult Without = runExperiment(Config);
  EXPECT_EQ(Without.TraceStats.numSamples(), 0u);
  Config.CollectTraceStats = true;
  RunResult With = runExperiment(Config);
  EXPECT_GT(With.TraceStats.numSamples(), 0u);
}

TEST(GridTest, GridComputesRelativeMetrics) {
  GridConfig Config;
  Config.Workloads = {"compress", "jack"};
  Config.Policies = {PolicyKind::Fixed, PolicyKind::Parameterless};
  Config.Depths = {2, 3};
  Config.Params.Scale = 0.15;
  std::vector<std::string> Progress;
  GridResults Results = runGrid(
      Config, [&](const std::string &Line) { Progress.push_back(Line); });
  // One baseline + 4 cells per workload.
  EXPECT_EQ(Progress.size(), 2u * (1 + 2 * 2));
  ASSERT_EQ(Results.workloads().size(), 2u);

  for (const std::string &W : Config.Workloads) {
    EXPECT_GT(Results.baseline(W).WallCycles, 0u);
    for (PolicyKind Policy : Config.Policies) {
      for (unsigned D : Config.Depths) {
        const RunResult &Cell = Results.cell(W, Policy, D);
        EXPECT_EQ(Cell.Policy, Policy);
        EXPECT_EQ(Cell.MaxDepth, D);
        // The relative metrics must be finite and modest at this scale.
        double S = Results.speedupPercent(W, Policy, D);
        EXPECT_GT(S, -80.0);
        EXPECT_LT(S, 80.0);
        const std::string Prefix = formatString(
            "%-12s %-10s max=%u:", W.c_str(), policyKindName(Policy), D);
        auto Line = std::find_if(
            Progress.begin(), Progress.end(),
            [&](const std::string &L) { return L.rfind(Prefix, 0) == 0; });
        ASSERT_NE(Line, Progress.end()) << Prefix;
      }
    }
  }
}

TEST(GridTest, BaselineIsItsOwnReference) {
  GridConfig Config;
  Config.Workloads = {"compress"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2};
  Config.Params.Scale = 0.1;
  GridResults Results = runGrid(Config);
  const RunResult &Base = Results.baseline("compress");
  EXPECT_EQ(Base.Policy, PolicyKind::ContextInsensitive);
  EXPECT_EQ(Base.MaxDepth, 1u);
}

namespace {

/// Expects runGrid to refuse \p Config before any run ends, naming \p List
/// and its repeated \p Item.
void expectRepeatRejected(GridConfig Config, const std::string &List,
                          const std::string &Item) {
  Config.Params.Scale = 0.01;
  unsigned RunsEnded = 0;
  try {
    runGrid(Config, [&](const std::string &) { ++RunsEnded; });
    ADD_FAILURE() << "runGrid accepted a repeated " << List << " item";
  } catch (const std::invalid_argument &E) {
    EXPECT_EQ(std::string(E.what()),
              "GridConfig::" + List + " lists '" + Item + "' twice");
  }
  EXPECT_EQ(RunsEnded, 0u);
}

} // namespace

TEST(GridTest, RepeatedWorkloadIsRejected) {
  GridConfig Config;
  Config.Workloads = {"compress", "jess", "compress"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2};
  expectRepeatRejected(Config, "Workloads", "compress");
}

TEST(GridTest, RepeatedPolicyIsRejected) {
  GridConfig Config;
  Config.Workloads = {"compress"};
  Config.Policies = {PolicyKind::Fixed, PolicyKind::Parameterless,
                     PolicyKind::Fixed};
  Config.Depths = {2};
  expectRepeatRejected(Config, "Policies", policyKindName(PolicyKind::Fixed));
}

TEST(GridTest, RepeatedDepthIsRejected) {
  GridConfig Config;
  Config.Workloads = {"compress"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2, 3, 2};
  expectRepeatRejected(Config, "Depths", "2");
}

//===----------------------------------------------------------------------===//
// Reporters
//===----------------------------------------------------------------------===//

namespace {

GridResults miniGrid() {
  GridConfig Config;
  Config.Workloads = {"compress"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2};
  Config.Params.Scale = 0.1;
  return runGrid(Config);
}

} // namespace

TEST(ReporterTest, Table1ContainsAllWorkloads) {
  std::vector<RunResult> Runs;
  Runs.push_back(runExperiment(smallConfig("compress")));
  Runs.push_back(runExperiment(smallConfig("db")));
  std::string Out = reportTable1(Runs);
  EXPECT_NE(Out.find("compress"), std::string::npos);
  EXPECT_NE(Out.find("db"), std::string::npos);
  EXPECT_NE(Out.find("Classes"), std::string::npos);
  EXPECT_NE(Out.find("Bytecodes"), std::string::npos);
}

TEST(ReporterTest, FigureGridsContainPanelsAndMeans) {
  GridResults Results = miniGrid();
  std::string Fig4 = reportFigure4(Results);
  EXPECT_NE(Fig4.find("Figure 4"), std::string::npos);
  EXPECT_NE(Fig4.find("(fixed)"), std::string::npos);
  EXPECT_NE(Fig4.find("harMean"), std::string::npos);
  EXPECT_NE(Fig4.find("max=2"), std::string::npos);
  std::string Fig5 = reportFigure5(Results);
  EXPECT_NE(Fig5.find("Figure 5"), std::string::npos);
  std::string Compile = reportCompileTime(Results);
  EXPECT_NE(Compile.find("Compile-time"), std::string::npos);
}

TEST(ReporterTest, FigureSixListsAllComponents) {
  GridResults Results = miniGrid();
  std::string Out = reportFigure6(Results);
  for (unsigned C = 0; C != NumAosComponents; ++C)
    EXPECT_NE(Out.find(aosComponentName(static_cast<AosComponent>(C))),
              std::string::npos);
  EXPECT_NE(Out.find("cins"), std::string::npos);
  EXPECT_NE(Out.find("fixed max=2"), std::string::npos);
}

TEST(ReporterTest, SummaryHasAllLines) {
  GridResults Results = miniGrid();
  std::string Out = reportSummary(Results);
  EXPECT_NE(Out.find("mean speedup"), std::string::npos);
  EXPECT_NE(Out.find("largest code space reduction"), std::string::npos);
  EXPECT_NE(Out.find("largest compile time reduction"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// CSV export and best-of-N trials
//===----------------------------------------------------------------------===//

TEST(CsvExportTest, EmitsHeaderBaselineAndCells) {
  GridResults Results = miniGrid();
  std::string Csv = exportCsv(Results);
  // Header + baseline row + one cell row.
  EXPECT_EQ(std::count(Csv.begin(), Csv.end(), '\n'), 3);
  EXPECT_NE(Csv.find("workload,policy,max_depth"), std::string::npos);
  EXPECT_NE(Csv.find("compress,cins,1,"), std::string::npos);
  EXPECT_NE(Csv.find("compress,fixed,2,"), std::string::npos);
  // Every row has the same number of commas as the header.
  std::istringstream In(Csv);
  std::string Line, Header;
  std::getline(In, Header);
  const auto Commas = std::count(Header.begin(), Header.end(), ',');
  while (std::getline(In, Line))
    EXPECT_EQ(std::count(Line.begin(), Line.end(), ','), Commas);
}

TEST(TrialsTest, BestOfPicksTheFastestJitterSeed) {
  RunConfig Config = smallConfig("jack", PolicyKind::Fixed, 3);
  RunResult Best = runBestOf(Config, 3);
  // The best-of result can never be slower than the first trial.
  RunResult First = runExperiment(Config);
  EXPECT_LE(Best.WallCycles, First.WallCycles);
  // Trials differ only in sampling timing: results are identical.
  EXPECT_EQ(Best.ProgramResult, First.ProgramResult);
}

TEST(TrialsTest, JitterSeedChangesTimelineNotSemantics) {
  RunConfig A = smallConfig("jess", PolicyKind::Fixed, 3);
  RunConfig B = A;
  B.Model.SampleJitterSeed = 999;
  RunResult RA = runExperiment(A);
  RunResult RB = runExperiment(B);
  EXPECT_EQ(RA.ProgramResult, RB.ProgramResult);
  EXPECT_NE(RA.SamplesTaken + RA.WallCycles,
            RB.SamplesTaken + RB.WallCycles)
      << "different jitter seeds should perturb the timeline";
}

namespace {

/// Runs \p A and \p B as two Sessions on one build of their program
/// (they must name the same one), first stepped alternately one slice at
/// a time as serve steps its sessions, then on two threads at once. Each
/// run must match a Session of the same config on a build of its own.
void expectSharingMatchesPrivate(const RunConfig &A, const RunConfig &B) {
  const RunResult PrivateA = runExperiment(A);
  const RunResult PrivateB = runExperiment(B);
  const std::shared_ptr<const Workload> Program = buildWorkload(A);
  {
    SCOPED_TRACE("alternating slices");
    Session SA(A, Program), SB(B, Program);
    EXPECT_EQ(&SA.workload(), &SB.workload());
    EXPECT_EQ(&SA.workload(), Program.get());
    constexpr uint64_t SliceCycles = 1000000;
    for (uint64_t Limit = SliceCycles; !SA.finished() || !SB.finished();
         Limit += SliceCycles)
      for (Session *S : {&SA, &SB})
        if (!S->finished())
          S->run(Limit);
    expectSameResult(SA.result(), PrivateA);
    expectSameResult(SB.result(), PrivateB);
  }
  {
    SCOPED_TRACE("two threads");
    Session SA(A, Program), SB(B, Program);
    EXPECT_EQ(&SA.workload(), &SB.workload());
    std::thread TA([&SA] { SA.run(); });
    std::thread TB([&SB] { SB.run(); });
    TA.join();
    TB.join();
    expectSameResult(SA.result(), PrivateA);
    expectSameResult(SB.result(), PrivateB);
  }
}

} // namespace

TEST(SessionTest, SessionsOnOneBuildReadOneImageAndItsCostTables) {
  // Two policies on one build, stepped on two threads, and a third model
  // whose baseline rate differs, stepped on this thread meanwhile. Each
  // must match its private run; the first two read the same table for
  // every (method, level, inlined), and the third keys its own baseline
  // tables while sharing the optimized ones.
  const RunConfig A = smallConfig("jess", PolicyKind::Fixed, 4);
  const RunConfig B = smallConfig("jess");
  RunConfig C = A;
  ++C.Model.CyclesPerUnit[static_cast<unsigned>(OptLevel::Baseline)];
  const std::shared_ptr<const Workload> Program = buildWorkload(A);
  Session SA(A, Program), SB(B, Program), SC(C, Program);
  EXPECT_EQ(&SA.vm().hierarchy(), &Program->Prog.image().hierarchy());
  EXPECT_EQ(&SB.vm().hierarchy(), &SA.vm().hierarchy());
  auto step = [](Session &S) {
    constexpr uint64_t SliceCycles = 1000000;
    for (uint64_t Limit = SliceCycles; !S.finished(); Limit += SliceCycles)
      S.run(Limit);
  };
  std::thread TA([&] { step(SA); });
  std::thread TB([&] { step(SB); });
  step(SC);
  TA.join();
  TB.join();
  expectSameResult(SA.result(), runExperiment(A));
  expectSameResult(SB.result(), runExperiment(B));
  expectSameResult(SC.result(), runExperiment(C));

  unsigned Compared = 0;
  for (MethodId M = 0; M != Program->Prog.numMethods(); ++M) {
    if (!SA.vm().codeManager().current(M) ||
        !SB.vm().codeManager().current(M))
      continue;
    ++Compared;
    for (unsigned L = 0; L != NumOptLevels; ++L)
      for (bool Inlined : {false, true}) {
        const OptLevel Level = static_cast<OptLevel>(L);
        const uint32_t *Table = SA.vm().frameCostTable(M, Level, Inlined);
        EXPECT_EQ(SB.vm().frameCostTable(M, Level, Inlined), Table);
        const uint32_t *Own = SC.vm().frameCostTable(M, Level, Inlined);
        if (Level == OptLevel::Baseline)
          EXPECT_NE(Own, Table);
        else
          EXPECT_EQ(Own, Table);
      }
  }
  EXPECT_GT(Compared, 10u);
}

TEST(SessionTest, SharedWorkloadMatchesPrivateBuild) {
  {
    SCOPED_TRACE("Table 1 workload");
    RunConfig A = smallConfig("compress", PolicyKind::Fixed, 4);
    A.Aos.Osr.Enabled = true;
    const RunConfig B = smallConfig("compress");
    expectSharingMatchesPrivate(A, B);
  }
  {
    SCOPED_TRACE("built-in scenario");
    const ScenarioSpec *Spec = findBuiltinScenario("scn-phase-flip");
    ASSERT_NE(Spec, nullptr);
    RunConfig A = smallConfig(Spec->Name, PolicyKind::Fixed, 4);
    A.Scenario = std::make_shared<const ScenarioSpec>(*Spec);
    RunConfig B = A;
    B.Policy = PolicyKind::ContextInsensitive;
    B.MaxDepth = 1;
    expectSharingMatchesPrivate(A, B);
  }
}
