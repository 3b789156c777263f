//===- tests/WarmStartTest.cpp - Warm-start determinism and semantics ------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// End-to-end coverage of the online -> PGO bridge (ISSUE 8): the
// snapshotProfile()/warmStart() pair on AdaptiveSystem, the harness's
// RunConfig::WarmStart/CaptureProfile plumbing, the `profile-load`
// trace event, and the determinism contracts — a captured profile is a
// pure observation, a warm start replays identically, grids stay
// byte-identical across thread counts, and a stale profile degrades
// gracefully through decay/deopt rather than failing the run.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/CsvExport.h"
#include "harness/SteadyState.h"
#include "profile/ProfileIo.h"

#include "SameResult.h"

#include <gtest/gtest.h>

#include <memory>

using namespace aoci;

namespace {

RunConfig smallConfig(const std::string &Workload, double Scale = 0.15) {
  RunConfig Config;
  Config.WorkloadName = Workload;
  Config.Params.Scale = Scale;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  return Config;
}

/// Runs \p Config with capture on and parses the snapshot.
std::shared_ptr<const ProfileData> captureProfile(RunConfig Config) {
  Config.CaptureProfile = true;
  const RunResult R = runExperiment(Config);
  auto Profile = std::make_shared<ProfileData>();
  std::string Error;
  EXPECT_TRUE(parseProfile(R.CapturedProfile, *Profile, Error)) << Error;
  return Profile;
}

} // namespace

TEST(WarmStartTest, SnapshotAppliesBackLossless) {
  // A snapshot taken against a program must re-apply in full against
  // the same program: every section resolves, nothing drops.
  Workload W = makeWorkload("jess", WorkloadParams{1, 0.15});
  auto Policy = makePolicy(PolicyKind::Fixed, 3);
  ProfileData Snapshot;
  {
    VirtualMachine VM(W.Prog);
    AdaptiveSystem Aos(VM, *Policy);
    Aos.attach();
    for (MethodId Entry : W.Entries)
      VM.addThread(Entry);
    VM.run();
    Snapshot = Aos.snapshotProfile("jess");
    ASSERT_FALSE(Snapshot.DcgTraces.empty());
    ASSERT_FALSE(Snapshot.HotMethods.empty());
  }

  Workload W2 = makeWorkload("jess", WorkloadParams{1, 0.15});
  VirtualMachine VM(W2.Prog);
  AdaptiveSystem Aos(VM, *Policy);
  Aos.attach();
  const WarmStartStats Stats = Aos.warmStart(Snapshot);
  EXPECT_EQ(Stats.TracesApplied, Snapshot.DcgTraces.size());
  EXPECT_EQ(Stats.HotMethodsApplied, Snapshot.HotMethods.size());
  EXPECT_EQ(Stats.RefusalsApplied, Snapshot.Refusals.size());
  EXPECT_EQ(Stats.dropped(), 0u);
  EXPECT_EQ(Stats.ThresholdMismatches, 0u)
      << "snapshot and consumer share the default configuration";
  EXPECT_EQ(Aos.dcg().numTraces(), Snapshot.DcgTraces.size());
  EXPECT_FALSE(Aos.rules().empty())
      << "warm start codifies rules before the first bytecode runs";
}

TEST(WarmStartTest, UnresolvableEntriesDropNeverFail) {
  Workload W = makeWorkload("jess", WorkloadParams{1, 0.15});
  auto Policy = makePolicy(PolicyKind::Fixed, 3);
  VirtualMachine VM(W.Prog);
  AdaptiveSystem Aos(VM, *Policy);
  Aos.attach();
  ProfileData Stale;
  Stale.DcgTraces.push_back({5.0, {{"No.suchCaller", 3}}, "No.suchCallee"});
  Stale.HotMethods.push_back({9.0, "No.suchMethod"});
  Stale.Refusals.push_back({"No.compiled", "No.caller", 1, "No.callee"});
  const WarmStartStats Stats = Aos.warmStart(Stale);
  EXPECT_EQ(Stats.applied(), 0u);
  EXPECT_EQ(Stats.TracesDropped, 1u);
  EXPECT_EQ(Stats.HotMethodsDropped, 1u);
  EXPECT_EQ(Stats.RefusalsDropped, 1u);
  EXPECT_EQ(Aos.dcg().numTraces(), 0u);
}

TEST(WarmStartTest, CaptureIsAPureObservation) {
  RunConfig Cold = smallConfig("db");
  const RunResult Plain = runExperiment(Cold);
  Cold.CaptureProfile = true;
  const RunResult Captured = runExperiment(Cold);
  EXPECT_EQ(Plain.WallCycles, Captured.WallCycles);
  EXPECT_EQ(Plain.ProgramResult, Captured.ProgramResult);
  EXPECT_EQ(Plain.OptCompileCycles, Captured.OptCompileCycles);
  EXPECT_TRUE(Plain.CapturedProfile.empty());
  EXPECT_FALSE(Captured.CapturedProfile.empty());
}

TEST(WarmStartTest, WarmRunIsDeterministic) {
  auto Profile = captureProfile(smallConfig("db"));
  RunConfig Warm = smallConfig("db");
  Warm.WarmStart = Profile;
  const RunResult A = runExperiment(Warm);
  const RunResult B = runExperiment(Warm);
  expectSameResult(A, B);
  EXPECT_GT(A.WarmStartApplied, 0u);
  EXPECT_TRUE(A.WarmStarted);
}

TEST(WarmStartTest, WarmStartPreservesProgramSemantics) {
  // Inlining must never change what the program computes, profile or
  // no profile — the simulated result is configuration-invariant.
  auto Profile = captureProfile(smallConfig("jess"));
  RunConfig Cold = smallConfig("jess");
  RunConfig Warm = Cold;
  Warm.WarmStart = Profile;
  const RunResult C = runExperiment(Cold);
  const RunResult W = runExperiment(Warm);
  EXPECT_EQ(C.ProgramResult, W.ProgramResult);
}

TEST(WarmStartTest, WarmStartReachesSteadyStateSooner) {
  // The headline claim, pinned on one robust workload at test scale
  // (`aoci claims` sweeps all eight): re-seeding from the same run's
  // profile front-loads the decisions the cold run had to learn.
  RunConfig Cold = smallConfig("jess", 0.5);
  auto Profile = captureProfile(Cold);
  TraceSink ColdSink;
  ColdSink.enable(steadyStateKindMask());
  Cold.Trace = &ColdSink;
  const RunResult ColdR = runExperiment(Cold);
  const SteadyStateResult ColdV = detectSteadyState(ColdSink, ColdR.WallCycles);

  RunConfig Warm = smallConfig("jess", 0.5);
  Warm.WarmStart = Profile;
  TraceSink WarmSink;
  WarmSink.enable(steadyStateKindMask());
  Warm.Trace = &WarmSink;
  const RunResult WarmR = runExperiment(Warm);
  const SteadyStateResult WarmV = detectSteadyState(WarmSink, WarmR.WallCycles);

  ASSERT_TRUE(ColdV.Reached) << ColdV.Why;
  ASSERT_TRUE(WarmV.Reached) << WarmV.Why;
  EXPECT_LT(WarmV.WarmupCycles, ColdV.WarmupCycles);
  EXPECT_LT(WarmR.OptCompileCycles, ColdR.OptCompileCycles)
      << "the warm run re-learns less, so it recompiles less";
}

TEST(WarmStartTest, StaleProfileDegradesGracefully) {
  // Train on a phase-shifted input (different workload seed), then
  // warm-start the production run from it with OSR and a bounded code
  // cache on: wrong decisions must be walked back through decay and
  // deopt, and the run must still compute the cold run's result.
  RunConfig Train = smallConfig("jess", 0.3);
  Train.Params.Seed = 99;
  auto StaleProfile = captureProfile(Train);
  ASSERT_GT(StaleProfile->DcgTraces.size() + StaleProfile->HotMethods.size(),
            0u);

  RunConfig Prod = smallConfig("jess", 0.3);
  Prod.Aos.Osr.Enabled = true;
  Prod.Model.CodeCache.CapacityBytes = 6000;
  // Stock decay needs ~10k samples to drop a seeded entry — more than
  // this run delivers. Tighten it so the fade-out is observable, as the
  // phase-flip scenario test does.
  Prod.Aos.DecayPeriodSamples = 16;
  Prod.Aos.DecayFactor = 0.5;
  const RunResult ColdR = runExperiment(Prod);
  Prod.WarmStart = StaleProfile;
  const RunResult StaleR = runExperiment(Prod);

  EXPECT_EQ(StaleR.ProgramResult, ColdR.ProgramResult);
  EXPECT_GT(StaleR.WarmStartApplied, 0u)
      << "workload method names are seed-independent, so entries resolve";
  EXPECT_GT(StaleR.DecayEntriesDropped, 0u)
      << "stale DCG weight must fade out through the decay organizer";
}

TEST(WarmStartTest, ProfileLoadEventEmittedOnceAndUncharged) {
  auto Profile = captureProfile(smallConfig("db"));
  RunConfig Warm = smallConfig("db");
  Warm.WarmStart = Profile;

  TraceSink Sink;
  Sink.enable(TraceAllKinds);
  RunConfig Traced = Warm;
  Traced.Trace = &Sink;
  const RunResult Untraced = runExperiment(Warm);
  const RunResult TracedR = runExperiment(Traced);
  EXPECT_EQ(Untraced.WallCycles, TracedR.WallCycles)
      << "trace emission charges zero simulated cycles";

  unsigned Loads = 0;
  for (const TraceEvent &E : Sink.sortedEvents())
    if (E.Kind == TraceEventKind::ProfileLoad) {
      ++Loads;
      EXPECT_EQ(static_cast<unsigned>(E.A), ProfileFormatVersion);
      EXPECT_EQ(static_cast<uint64_t>(E.B + E.C + E.D + E.E),
                TracedR.WarmStartApplied);
      EXPECT_DOUBLE_EQ(E.X, static_cast<double>(TracedR.WarmStartDropped));
    }
  EXPECT_EQ(Loads, 1u);
}

TEST(WarmStartTest, WarmGridIsByteIdenticalAcrossThreadCounts) {
  GridConfig Config;
  Config.Workloads = {"db", "jess"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {3};
  Config.Params.Scale = 0.15;
  Config.WarmStart = captureProfile(smallConfig("db"));
  Config.CaptureProfile = true;

  const GridResults Serial = runGrid(Config);
  const GridResults Parallel = runGrid(Config, nullptr, 4);
  EXPECT_EQ(exportCsv(Serial), exportCsv(Parallel));
  // Captured snapshots are simulated state, so they too must agree.
  for (const std::string &W : Serial.workloads())
    EXPECT_EQ(Serial.baseline(W).CapturedProfile,
              Parallel.baseline(W).CapturedProfile);
}
