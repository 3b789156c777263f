//===- tests/DeterminismTest.cpp - Differential determinism tests ----------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The harness's load-bearing guarantee: a run is a pure function of its
// RunConfig, and a sweep is byte-for-byte the same at every job count.
// Without this, any speedup/code-size conclusion could be an artifact
// of harness scheduling rather than of inlining policy (the "misleading
// microbenchmarks" failure mode).
//
//===----------------------------------------------------------------------===//

#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "support/StringUtils.h"

#include "SameResult.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace aoci;

namespace {

/// The reduced benchmark x policy x depth matrix the differential
/// sweeps use: small enough for TSan, large enough to exercise several
/// workloads, policies, and depths.
GridConfig reducedGrid() {
  GridConfig Config;
  Config.Workloads = {"compress", "jack"};
  Config.Policies = {PolicyKind::Fixed, PolicyKind::Parameterless};
  Config.Depths = {2, 4};
  Config.Params.Scale = 0.1;
  return Config;
}

void expectIdenticalGrids(const GridResults &Serial,
                          const GridResults &Parallel,
                          const GridConfig &Config) {
  ASSERT_EQ(Serial.workloads(), Parallel.workloads());
  for (const std::string &W : Config.Workloads) {
    expectSameResult(Serial.baseline(W), Parallel.baseline(W));
    for (PolicyKind Policy : Config.Policies)
      for (unsigned D : Config.Depths)
        expectSameResult(Serial.cell(W, Policy, D),
                               Parallel.cell(W, Policy, D));
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// (a) One config, run twice: bit-identical results.
//===----------------------------------------------------------------------===//

TEST(DeterminismTest, SameConfigTwiceIsBitIdentical) {
  RunConfig Config;
  Config.WorkloadName = "jess";
  Config.Policy = PolicyKind::HybridParamClass;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.15;
  RunResult A = runExperiment(Config);
  RunResult B = runExperiment(Config);
  expectSameResult(A, B);
}

TEST(DeterminismTest, BestOfTrialsIsBitIdenticalAcrossInvocations) {
  RunConfig Config;
  Config.WorkloadName = "db";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 2;
  Config.Params.Scale = 0.1;
  RunResult A = runBestOf(Config, 3);
  RunResult B = runBestOf(Config, 3);
  expectSameResult(A, B);
}

//===----------------------------------------------------------------------===//
// Per-run seed derivation: a pure function of the config.
//===----------------------------------------------------------------------===//

TEST(DeterminismTest, TrialZeroKeepsTheConfiguredSeed) {
  RunConfig Config;
  Config.Model.SampleJitterSeed = 12345;
  EXPECT_EQ(deriveRunSeed(Config, 0), 12345u);
}

TEST(DeterminismTest, DerivedSeedsDependOnConfigNotOnAnythingElse) {
  RunConfig Config;
  Config.WorkloadName = "compress";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  // Pure function: same inputs, same seed, every time.
  EXPECT_EQ(deriveRunSeed(Config, 1), deriveRunSeed(Config, 1));
  EXPECT_EQ(deriveRunSeed(Config, 7), deriveRunSeed(Config, 7));
  // Each identifying field perturbs the seed.
  uint64_t Base = deriveRunSeed(Config, 1);
  RunConfig Other = Config;
  Other.WorkloadName = "jess";
  EXPECT_NE(deriveRunSeed(Other, 1), Base);
  Other = Config;
  Other.Policy = PolicyKind::LargeMethods;
  EXPECT_NE(deriveRunSeed(Other, 1), Base);
  Other = Config;
  Other.MaxDepth = 4;
  EXPECT_NE(deriveRunSeed(Other, 1), Base);
  Other = Config;
  Other.Params.Seed = 99;
  EXPECT_NE(deriveRunSeed(Other, 1), Base);
  EXPECT_NE(deriveRunSeed(Config, 2), Base);
}

//===----------------------------------------------------------------------===//
// (b) One job against N: identical results and CSV bytes.
//===----------------------------------------------------------------------===//

TEST(DeterminismTest, ParallelGridMatchesSerialGrid) {
  GridConfig Config = reducedGrid();
  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGrid(Config, nullptr, 4);
  expectIdenticalGrids(Serial, Parallel, Config);

  std::string SerialCsv = exportCsv(Serial);
  std::string ParallelCsv = exportCsv(Parallel);
  EXPECT_EQ(SerialCsv, ParallelCsv)
      << "the parallel grid must be byte-identical to the serial grid";
}

TEST(DeterminismTest, ParallelGridIsIndependentOfJobCount) {
  GridConfig Config = reducedGrid();
  Config.Workloads = {"compress"};
  GridResults One = runGrid(Config, nullptr, 1);
  GridResults Three = runGrid(Config, nullptr, 3);
  expectIdenticalGrids(One, Three, Config);
  EXPECT_EQ(exportCsv(One), exportCsv(Three));
}

TEST(DeterminismTest, ParallelGridWithTrialsMatchesSerial) {
  GridConfig Config = reducedGrid();
  Config.Workloads = {"jack"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {3};
  Config.Trials = 3;
  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGrid(Config, nullptr, 4);
  expectIdenticalGrids(Serial, Parallel, Config);
}

//===----------------------------------------------------------------------===//
// RunMetrics bookkeeping (host-side record, outside the determinism
// envelope — only its config-derived identity columns are checked).
//===----------------------------------------------------------------------===//

TEST(DeterminismTest, OneJobRunsEveryRunOnTheCallingThreadInPlanOrder) {
  GridConfig Config = reducedGrid();
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::string> Lines;
  GridResults One = runGrid(Config, [&](const std::string &Line) {
    EXPECT_EQ(std::this_thread::get_id(), Caller) << Line;
    Lines.push_back(Line);
  });
  ASSERT_EQ(Lines.size(), One.metrics().size());
  for (size_t I = 0; I != Lines.size(); ++I) {
    const RunMetrics &M = One.metrics()[I];
    EXPECT_EQ(M.Worker, 0u) << Lines[I];
    const std::string Prefix =
        formatString("%-12s %-10s max=%u:", M.WorkloadName.c_str(),
                     policyKindName(M.Policy), M.MaxDepth);
    EXPECT_EQ(Lines[I].rfind(Prefix, 0), 0u) << Lines[I];
  }
  GridResults Four = runGrid(Config, nullptr, 4);
  for (const RunMetrics &M : Four.metrics())
    EXPECT_LT(M.Worker, 4u);
}

TEST(DeterminismTest, MetricsCoverEveryRunInGridOrder) {
  GridConfig Config = reducedGrid();
  GridResults Parallel = runGrid(Config, nullptr, 4);
  size_t RunsPerWorkload = 1 + Config.Policies.size() * Config.Depths.size();
  ASSERT_EQ(Parallel.metrics().size(),
            Config.Workloads.size() * RunsPerWorkload);
  size_t I = 0;
  for (const std::string &W : Config.Workloads) {
    const RunMetrics &Base = Parallel.metrics()[I++];
    EXPECT_EQ(Base.WorkloadName, W);
    EXPECT_TRUE(Base.IsBaseline);
    EXPECT_EQ(&Parallel.result(Base), &Parallel.baseline(W));
    for (PolicyKind Policy : Config.Policies) {
      for (unsigned D : Config.Depths) {
        const RunMetrics &M = Parallel.metrics()[I++];
        EXPECT_EQ(M.WorkloadName, W);
        EXPECT_FALSE(M.IsBaseline);
        EXPECT_EQ(M.Policy, Policy);
        EXPECT_EQ(M.MaxDepth, D);
        EXPECT_EQ(&Parallel.result(M), &Parallel.cell(W, Policy, D));
      }
    }
  }
  std::string MetricsCsv = exportMetricsCsv(Parallel);
  EXPECT_EQ(static_cast<size_t>(
                std::count(MetricsCsv.begin(), MetricsCsv.end(), '\n')),
            Parallel.metrics().size() + 1);
}
