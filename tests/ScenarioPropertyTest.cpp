//===- tests/ScenarioPropertyTest.cpp - Scenario DSL properties ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Property tests of the adversarial-scenario layer: the `.scn` text form
// round-trips through parse/print for every spec the mutator can reach,
// the mutator is a pure function of its seed, compiled scenarios obey
// the same determinism contract as the Table 1 workloads (one-job and
// four-job grids export byte-identical CSV), and the scenarios actually
// exercise the adaptive machinery they claim to (megamorphic dispatch,
// phase-flip decay drops, phase-shift trace markers).
//
//===----------------------------------------------------------------------===//

#include "core/AdaptiveSystem.h"
#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "harness/Fuzzer.h"
#include "policy/ContextPolicy.h"
#include "vm/VirtualMachine.h"
#include "workload/scenario/ScenarioMutator.h"
#include "workload/scenario/ScenarioSpec.h"
#include "workload/scenario/ScenarioWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace aoci;

TEST(ScenarioSpecTest, BuiltinsRoundTripThroughText) {
  ASSERT_GE(builtinScenarios().size(), 4u);
  ASSERT_EQ(builtinScenarios().size(), scenarioNames().size());
  for (const ScenarioSpec &S : builtinScenarios()) {
    SCOPED_TRACE(S.Name);
    // Builtins must already be in clamped canonical form.
    EXPECT_EQ(clampScenario(S), S);
    ScenarioSpec Parsed;
    std::string Error;
    ASSERT_TRUE(parseScenario(printScenario(S), Parsed, Error)) << Error;
    EXPECT_EQ(Parsed, S);
    EXPECT_EQ(findBuiltinScenario(S.Name), &S);
  }
  EXPECT_EQ(findBuiltinScenario("compress"), nullptr);
}

TEST(ScenarioSpecTest, MutantsRoundTripThroughText) {
  // Whatever the mutator reaches must survive a print/parse cycle
  // unchanged — otherwise fuzz reproducers would not replay what was
  // found. Walk a few hundred mutants from every builtin.
  ScenarioMutator Mut(2026);
  for (const ScenarioSpec &Seed : builtinScenarios()) {
    ScenarioSpec S = Seed;
    for (int I = 0; I != 64; ++I) {
      S = Mut.mutate(S);
      ScenarioSpec Parsed;
      std::string Error;
      ASSERT_TRUE(parseScenario(printScenario(S), Parsed, Error))
          << Error << "\n" << printScenario(S);
      ASSERT_EQ(Parsed, S) << printScenario(S);
    }
  }
}

TEST(ScenarioSpecTest, ExpectationBlockRoundTrips) {
  ScenarioSpec S = builtinScenarios().front();
  S.Name = "diff-probe";
  S.HasExpectation = true;
  S.Expect.PolicyA = "hybrid1";
  S.Expect.DepthA = 5;
  S.Expect.PolicyB = "paramLess";
  S.Expect.DepthB = 2;
  S.Expect.MinDeltaPct = -7.125;
  S.Expect.Scale = 0.25;
  S.Expect.Seed = 99;
  S.Expect.CodeCacheBytes = 150000;
  S.Expect.Osr = true;
  ScenarioSpec Parsed;
  std::string Error;
  ASSERT_TRUE(parseScenario(printScenario(S), Parsed, Error)) << Error;
  EXPECT_EQ(Parsed, S);
}

TEST(ScenarioSpecTest, ParseRejectsGarbageWithLineNumbers) {
  ScenarioSpec S;
  std::string Error;
  EXPECT_FALSE(parseScenario("scenario x\nphase iterations=zz\n", S, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  EXPECT_FALSE(parseScenario("bogus directive\n", S, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
  EXPECT_FALSE(
      parseScenario("scenario x\nphase shape=helix\n", S, Error));
  // An expect block's scale is a size multiplier: above 0 and finite.
  for (const char *Scale : {"-4", "0", "nan", "inf"}) {
    EXPECT_FALSE(parseScenario(std::string("scenario x\nexpect scale=") +
                                   Scale + "\nphase\n",
                               S, Error))
        << Scale;
    EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  }
  EXPECT_FALSE(
      parseScenario("scenario x\nexpect min-delta=nan\nphase\n", S, Error));
  // A spec without phases is not a runnable reproducer.
  EXPECT_FALSE(parseScenario("scenario empty\n", S, Error));
  EXPECT_NE(Error.find("no phases"), std::string::npos) << Error;
  // Comments and blank lines are fine, and omitted phase keys default.
  ASSERT_TRUE(
      parseScenario("# comment\n\nscenario ok\nphase\n", S, Error))
      << Error;
  EXPECT_EQ(S.Name, "ok");
  ASSERT_EQ(S.Phases.size(), 1u);
  EXPECT_EQ(S.Phases[0], PhaseSpec{});
}

TEST(ScenarioSpecTest, ClampingPinsEveryKnob) {
  PhaseSpec Wild;
  Wild.Iterations = 0;
  Wild.Depth = 99;
  Wild.Megamorphism = 0;
  Wild.AllocBurst = 1000;
  Wild.MethodChurn = 1000;
  Wild.WorkUnits = 0;
  PhaseSpec C = clampPhase(Wild);
  EXPECT_EQ(C.Iterations, 1u);
  EXPECT_EQ(C.Depth, 6u);
  EXPECT_EQ(C.Megamorphism, 1u);
  EXPECT_EQ(C.AllocBurst, 64u);
  EXPECT_EQ(C.MethodChurn, 32u);
  EXPECT_EQ(C.WorkUnits, 1u);
  EXPECT_EQ(clampPhase(C), C) << "clamping must be idempotent";
}

TEST(ScenarioMutatorTest, SameSeedSameMutationStream) {
  ScenarioMutator A(77), B(77), Other(78);
  ScenarioSpec SA = builtinScenarios()[1];
  ScenarioSpec SB = SA, SO = SA;
  bool Diverged = false;
  for (int I = 0; I != 48; ++I) {
    ScenarioSpec PrevA = SA;
    SA = A.mutate(SA);
    SB = B.mutate(SB);
    SO = Other.mutate(SO);
    ASSERT_EQ(SA, SB) << "mutation stream must be a pure function of "
                         "the seed (step " << I << ")";
    ASSERT_NE(SA, PrevA) << "mutate() must never return its input";
    ASSERT_EQ(SA, clampScenario(SA));
    Diverged |= !(SA == SO);
  }
  EXPECT_TRUE(Diverged) << "different seeds should explore differently";
}

TEST(ScenarioSearchKeyTest, IgnoresNameAndExpectation) {
  ScenarioSpec A = builtinScenarios().front();
  ScenarioSpec B = A;
  B.Name = "renamed";
  B.HasExpectation = true;
  B.Expect.MinDeltaPct = 42;
  EXPECT_EQ(scenarioSearchKey(A), scenarioSearchKey(B));
  B.Phases[0].Megamorphism += 1;
  EXPECT_NE(scenarioSearchKey(A), scenarioSearchKey(B));
}

TEST(ScenarioWorkloadTest, CompilationIsDeterministic) {
  // Same spec + params -> byte-identical program, different seed ->
  // same shape but a different cold-library body mix.
  const ScenarioSpec &S = *findBuiltinScenario("scn-cache-churn");
  Workload W1 = makeScenarioWorkload(S, WorkloadParams{7, 0.5});
  Workload W2 = makeScenarioWorkload(S, WorkloadParams{7, 0.5});
  ASSERT_EQ(W1.Prog.numMethods(), W2.Prog.numMethods());
  for (MethodId M = 0; M != W1.Prog.numMethods(); ++M) {
    const Method &A = W1.Prog.method(M), &B = W2.Prog.method(M);
    ASSERT_EQ(A.Body.size(), B.Body.size()) << M;
    for (size_t I = 0; I != A.Body.size(); ++I) {
      ASSERT_EQ(A.Body[I].Op, B.Body[I].Op);
      ASSERT_EQ(A.Body[I].Operand, B.Body[I].Operand);
    }
  }
}

TEST(ScenarioGridTest, SerialAndParallelCsvBytesMatch) {
  // At least three builtin adversaries through the grid, one job vs
  // four, byte-identical CSV.
  GridConfig Config;
  Config.Workloads = {"scn-megamorphic-storm", "scn-phase-flip",
                      "scn-alloc-burst"};
  Config.Policies = {PolicyKind::Fixed, PolicyKind::HybridParamClass};
  Config.Depths = {2, 4};
  Config.Params.Scale = 0.3;
  Config.Trials = 2;
  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGrid(Config, nullptr, 4);
  const std::string CsvA = exportCsv(Serial);
  const std::string CsvB = exportCsv(Parallel);
  EXPECT_EQ(CsvA, CsvB);
  EXPECT_NE(CsvA.find("scn-phase-flip"), std::string::npos);
}

TEST(ScenarioRunTest, MegamorphicStormDefeatsDispatchInlining) {
  // With eight uniformly rotated receiver classes, every target of the
  // hot virtual site holds a 12.5% profile share — below the oracle's
  // MinTargetShare — so the site stays an out-of-line dispatch no
  // matter the policy depth. Collapse the same scenario to one receiver
  // and the inliner swallows the site. That inlining gap is the whole
  // point of the adversary.
  // True when some installed plan inlined a receiver's apply() into a
  // *caller* (i.e. the virtual dispatch site itself was swallowed);
  // apply's own lift inline is rooted at apply and does not count.
  auto dispatchInlined = [](const TraceSink &Sink) {
    bool Found = false;
    Sink.forEach([&](const TraceEvent &E) {
      if (E.Kind != TraceEventKind::PlanSite)
        return;
      const std::string &Callee =
          Sink.methodName(static_cast<uint32_t>(E.E));
      const std::string &Root = Sink.methodName(E.Method);
      if (Callee.find(".apply") != std::string::npos && Root != Callee)
        Found = true;
    });
    return Found;
  };

  RunConfig Config;
  Config.WorkloadName = "scn-megamorphic-storm";
  Config.Params.Scale = 0.5;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 4;
  TraceSink StormSink;
  StormSink.enable(traceKindBit(TraceEventKind::PlanSite));
  Config.Trace = &StormSink;
  RunResult Storm = runExperiment(Config);
  EXPECT_FALSE(dispatchInlined(StormSink))
      << "no target of an 8-way site holds the oracle's minimum share";

  auto Mono = std::make_shared<ScenarioSpec>(
      *findBuiltinScenario("scn-megamorphic-storm"));
  Mono->Name = "storm-mono";
  for (PhaseSpec &P : Mono->Phases)
    P.Megamorphism = 1;
  RunConfig MonoConfig = Config;
  MonoConfig.WorkloadName = Mono->Name;
  MonoConfig.Scenario = Mono;
  TraceSink MonoSink;
  MonoSink.enable(traceKindBit(TraceEventKind::PlanSite));
  MonoConfig.Trace = &MonoSink;
  RunResult Quiet = runExperiment(MonoConfig);
  EXPECT_TRUE(dispatchInlined(MonoSink))
      << "the monomorphic twin's dispatch site should be swallowed";
  EXPECT_EQ(Quiet.GuardFallbacks, 0u)
      << "a monomorphic scenario should never miss a guard";
  EXPECT_EQ(Storm.GuardFallbacks, 0u)
      << "with the site left out of line there is no guard to miss";
}

TEST(ScenarioRunTest, PhaseFlipSpikesDecayDrops) {
  // The decay organizer's new visibility counters: flipping the call
  // graph mid-run must age the first phase's DCG entries out. The stock
  // decay (every 120 samples, factor 0.95) is far too gentle for a run
  // this short, so tighten it — the counters, not the defaults, are
  // under test. The trace stream then pins the *timing*: entries must
  // drop after the flip, when the dead phase's traces go stale.
  ScenarioSpec Spec = *findBuiltinScenario("scn-phase-flip");
  Workload W = makeScenarioWorkload(Spec, WorkloadParams{1, 1.0});
  VirtualMachine VM(W.Prog);
  std::unique_ptr<ContextPolicy> Policy = makePolicy(PolicyKind::Fixed, 3);
  AosSystemConfig AosConfig;
  AosConfig.DecayPeriodSamples = 8;
  AosConfig.DecayFactor = 0.2;
  AdaptiveSystem Aos(VM, *Policy, AosConfig);
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::OrganizerWakeup) |
              traceKindBit(TraceEventKind::PhaseShift));
  VM.setTraceSink(&Sink);
  Aos.attach();
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  VM.run();

  const AosStats &Stats = Aos.stats();
  EXPECT_GT(Stats.DecayWakeups, 0u);
  EXPECT_GT(Stats.DecayEntriesScanned, 0u);
  EXPECT_GT(Stats.DecayEntriesDropped, 0u)
      << "the abandoned phase's traces must decay away";

  uint64_t FlipCycle = 0, LastDropCycle = 0, DroppedViaTrace = 0;
  Sink.forEach([&](const TraceEvent &E) {
    if (E.Kind == TraceEventKind::PhaseShift && E.A == 1)
      FlipCycle = E.Cycle;
    if (E.Kind == TraceEventKind::OrganizerWakeup && E.A == 2 &&
        E.D > 0) { // decay-organizer wakeups that dropped entries
      LastDropCycle = std::max(LastDropCycle, E.Cycle);
      DroppedViaTrace += static_cast<uint64_t>(E.D);
    }
  });
  ASSERT_GT(FlipCycle, 0u) << "the second phase never announced itself";
  EXPECT_EQ(DroppedViaTrace, Stats.DecayEntriesDropped)
      << "the traced acted counts must reconcile with the stats ledger";
  EXPECT_GT(LastDropCycle, FlipCycle)
      << "drops must continue past the flip as phase 1's traces go stale";
}

TEST(ScenarioFuzzTest, CampaignIsAPureFunctionOfItsConfig) {
  // A miniature fuzz campaign run twice must agree on every finding and
  // every counter; the tiny scale keeps this test in milliseconds.
  FuzzConfig Config;
  Config.Seed = 11;
  Config.Budget = 10;
  Config.ThresholdPct = 1.0;
  Config.Params.Scale = 0.1;
  Config.MaxDifferentials = 3;
  Config.ShrinkBudget = 40;
  FuzzResults A = runFuzz(Config);
  FuzzResults B = runFuzz(Config);
  EXPECT_EQ(A.CandidatesTried, B.CandidatesTried);
  EXPECT_EQ(A.TotalRuns, B.TotalRuns);
  ASSERT_EQ(A.Differentials.size(), B.Differentials.size());
  for (size_t I = 0; I != A.Differentials.size(); ++I) {
    EXPECT_EQ(printScenario(A.Differentials[I].Spec),
              printScenario(B.Differentials[I].Spec));
    EXPECT_EQ(A.Differentials[I].DeltaPct, B.Differentials[I].DeltaPct);
    // Every shrunk reproducer must itself replay to its recorded delta.
    EXPECT_EQ(replayScenario(A.Differentials[I].Spec),
              A.Differentials[I].DeltaPct);
  }
}
