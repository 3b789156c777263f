//===- tests/TraceTest.cpp - Event tracing subsystem tests -----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The observability layer's contracts (see OBSERVABILITY.md):
//   (1) zero simulated cost — a traced run's results are bit-identical
//       to an untraced run's, and FingerprintTest's goldens never move;
//   (2) determinism — the exported JSON is a pure function of the run
//       config, byte-identical between serial and parallel sweeps;
//   (3) fidelity — the stream is ordered by (cycle, seq), honours the
//       kind filter, and survives the ring cap by dropping oldest first.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "trace/TraceJson.h"
#include "trace/TraceSink.h"

#include "GoldenFile.h"
#include "SameResult.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace aoci;

namespace {

//===----------------------------------------------------------------------===//
// Filter parsing (the --trace-filter vocabulary).
//===----------------------------------------------------------------------===//

TEST(TraceFilterTest, EmptyListMeansAllKinds) {
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("", Mask, Error));
  EXPECT_EQ(Mask, TraceAllKinds);
}

TEST(TraceFilterTest, EveryKindNameRoundTrips) {
  for (unsigned I = 0; I != NumTraceEventKinds; ++I) {
    const TraceEventKind K = static_cast<TraceEventKind>(I);
    uint32_t Mask = 0;
    std::string Error;
    ASSERT_TRUE(parseTraceFilter(traceEventKindName(K), Mask, Error))
        << traceEventKindName(K);
    EXPECT_EQ(Mask, traceKindBit(K));
  }
}

TEST(TraceFilterTest, CommaListUnionsKinds) {
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("sample,gc-pause,plan-site", Mask, Error));
  EXPECT_EQ(Mask, traceKindBit(TraceEventKind::Sample) |
                      traceKindBit(TraceEventKind::GcPause) |
                      traceKindBit(TraceEventKind::PlanSite));
}

TEST(TraceFilterTest, UnknownTokenIsNamedInTheError) {
  uint32_t Mask = 0;
  std::string Error;
  EXPECT_FALSE(parseTraceFilter("sample,bogus-kind", Mask, Error));
  EXPECT_NE(Error.find("bogus-kind"), std::string::npos);
}

TEST(TraceFilterTest, AllCommasIsAnEmptyFilterError) {
  uint32_t Mask = 0;
  std::string Error;
  EXPECT_FALSE(parseTraceFilter(",,,", Mask, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(TraceFilterTest, EmptyItemIsAnErrorNamingTheList) {
  for (const char *List : {"deopt,,sample", "deopt,", ",deopt"}) {
    uint32_t Mask = 0;
    std::string Error;
    EXPECT_FALSE(parseTraceFilter(List, Mask, Error)) << List;
    EXPECT_NE(Error.find(std::string("'") + List + "'"), std::string::npos)
        << Error;
  }
}

//===----------------------------------------------------------------------===//
// Sink mechanics: ordering, filtering, the ring cap, stream adoption.
//===----------------------------------------------------------------------===//

TEST(TraceSinkTest, WantsHonoursEnableAndKindMask) {
  TraceSink Sink;
  EXPECT_FALSE(Sink.wants(TraceEventKind::Sample));
  Sink.enable(traceKindBit(TraceEventKind::GcPause));
  EXPECT_TRUE(Sink.wants(TraceEventKind::GcPause));
  EXPECT_FALSE(Sink.wants(TraceEventKind::Sample));
  Sink.disable();
  EXPECT_FALSE(Sink.wants(TraceEventKind::GcPause));
}

TEST(TraceSinkTest, SortedEventsOrdersByCycleThenSeq) {
  TraceSink Sink;
  Sink.enable();
  // Duration events are stamped at interval *start*, so emission order is
  // not cycle order; the canonical stream must re-sort.
  Sink.append(TraceEventKind::Sample, TraceTrackVm, 500);
  Sink.append(TraceEventKind::CompileComplete, TraceTrackVm, 100);
  Sink.append(TraceEventKind::Sample, TraceTrackVm, 500);
  std::vector<TraceEvent> Events = Sink.sortedEvents();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Cycle, 100u);
  EXPECT_EQ(Events[1].Cycle, 500u);
  EXPECT_EQ(Events[2].Cycle, 500u);
  // Ties break on emission sequence, keeping the sort stable.
  EXPECT_LT(Events[1].Seq, Events[2].Seq);
}

TEST(TraceSinkTest, CapacityDropsWholeOldestChunks) {
  TraceSink Sink;
  Sink.enable();
  Sink.setCapacity(2048); // two 1024-event chunks
  constexpr uint64_t Total = 5000;
  for (uint64_t I = 0; I != Total; ++I)
    Sink.append(TraceEventKind::Sample, TraceTrackVm, I);
  EXPECT_LE(Sink.numEvents(), 2048u);
  EXPECT_EQ(Sink.numEvents() + Sink.droppedEvents(), Total);
  // What survives is the most recent window: the first retained event's
  // sequence number equals the drop count.
  std::vector<TraceEvent> Events = Sink.sortedEvents();
  ASSERT_FALSE(Events.empty());
  EXPECT_EQ(Events.front().Seq, Sink.droppedEvents());
  EXPECT_EQ(Events.back().Seq, Total - 1);
}

TEST(TraceSinkTest, ClearKeepsSettings) {
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::Sample));
  Sink.setCapacity(4096);
  Sink.append(TraceEventKind::Sample, TraceTrackVm, 1);
  Sink.clear();
  EXPECT_EQ(Sink.numEvents(), 0u);
  EXPECT_EQ(Sink.droppedEvents(), 0u);
  EXPECT_TRUE(Sink.enabled());
  EXPECT_EQ(Sink.kindMask(), traceKindBit(TraceEventKind::Sample));
  EXPECT_EQ(Sink.capacity(), 4096u);
}

TEST(TraceSinkTest, AdoptEventsTakesTheOtherStream) {
  TraceSink Donor;
  Donor.enable();
  Donor.append(TraceEventKind::GcPause, TraceTrackVm, 42).A = 7;
  Donor.captureMethodNames(1, [](uint32_t) { return "Main.run"; });

  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::Sample)); // settings to keep
  Sink.append(TraceEventKind::Sample, TraceTrackVm, 1);
  Sink.adoptEvents(std::move(Donor));

  ASSERT_EQ(Sink.numEvents(), 1u);
  std::vector<TraceEvent> Events = Sink.sortedEvents();
  EXPECT_EQ(Events[0].Kind, TraceEventKind::GcPause);
  EXPECT_EQ(Events[0].Cycle, 42u);
  EXPECT_EQ(Events[0].A, 7);
  EXPECT_EQ(Sink.methodName(0), "Main.run");
  EXPECT_EQ(Sink.kindMask(), traceKindBit(TraceEventKind::Sample));
}

//===----------------------------------------------------------------------===//
// (1) Zero simulated cost: traced and untraced runs are bit-identical.
//===----------------------------------------------------------------------===//

RunConfig smallRun() {
  RunConfig Config;
  Config.WorkloadName = "compress";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 2;
  Config.Params.Scale = 0.05;
  return Config;
}

TEST(TraceCostTest, TracingDoesNotMoveTheSimulatedClock) {
  RunConfig Untraced = smallRun();
  RunResult Plain = runExperiment(Untraced);

  TraceSink Sink;
  Sink.enable();
  RunConfig Traced = smallRun();
  Traced.Trace = &Sink;
  RunResult WithTrace = runExperiment(Traced);

  expectSameResult(Plain, WithTrace);
  EXPECT_GT(Sink.numEvents(), 0u);
}

TEST(TraceCostTest, AttachedButDisabledSinkRecordsNothing) {
  TraceSink Sink; // never enabled
  RunConfig Config = smallRun();
  Config.Trace = &Sink;
  RunResult R = runExperiment(Config);
  EXPECT_EQ(Sink.numEvents(), 0u);
  expectSameResult(runExperiment(smallRun()), R);
}

TEST(TraceCostTest, KindMaskFiltersAtTheHook) {
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::CompileComplete));
  RunConfig Config = smallRun();
  Config.Trace = &Sink;
  runExperiment(Config);
  ASSERT_GT(Sink.numEvents(), 0u);
  Sink.forEach([](const TraceEvent &E) {
    EXPECT_EQ(E.Kind, TraceEventKind::CompileComplete);
  });
}

//===----------------------------------------------------------------------===//
// Event fidelity on runs engineered to reach the rare kinds.
//===----------------------------------------------------------------------===//

TEST(TraceEventsTest, GcPausesAreRecordedAsDurationEvents) {
  // The default GC trigger (4MB) is never reached by the scaled-down
  // workloads, so pin it low on the allocation-heavy one (mirrors
  // FingerprintTest's "SPECjbb2000+gc" row).
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::GcPause));
  RunConfig Config;
  Config.WorkloadName = "SPECjbb2000";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.1;
  Config.Model.GcTriggerBytes = 50000;
  Config.Trace = &Sink;
  RunResult R = runExperiment(Config);

  ASSERT_GT(Sink.numEvents(), 0u);
  uint64_t PauseCycles = 0;
  Sink.forEach([&](const TraceEvent &E) {
    ASSERT_EQ(E.Kind, TraceEventKind::GcPause);
    EXPECT_GT(E.Dur, 0u) << "gc-pause is a duration event";
    EXPECT_GE(E.A, 50000) << "bytesSinceGc reaches the trigger";
    PauseCycles += E.Dur;
  });
  EXPECT_EQ(PauseCycles, R.GcCycles)
      << "pause durations must sum to the run's GC cycles";
}

TEST(TraceEventsTest, GuardFallbacksAreRecordedPerOccurrence) {
  // mtrt is the guard-heavy workload (the paper's polymorphic-receiver
  // stress case); every counted fallback must emit one event.
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::GuardFallback));
  RunConfig Config;
  Config.WorkloadName = "mtrt";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.1;
  Config.Trace = &Sink;
  RunResult R = runExperiment(Config);

  ASSERT_GT(R.GuardFallbacks, 0u);
  uint64_t Fallbacks = 0;
  Sink.forEach([&](const TraceEvent &E) {
    ASSERT_EQ(E.Kind, TraceEventKind::GuardFallback);
    ++Fallbacks;
    EXPECT_NE(E.Method, UINT32_MAX);
  });
  EXPECT_EQ(Fallbacks, R.GuardFallbacks)
      << "one guard-fallback event per counted fallback";
}

TEST(TraceEventsTest, BestOfKeepsExactlyTheBestTrialsStream) {
  TraceSink A, B;
  A.enable();
  B.enable();
  RunConfig Config = smallRun();
  Config.Trace = &A;
  RunResult RA = runBestOf(Config, 3);
  Config.Trace = &B;
  RunResult RB = runBestOf(Config, 3);
  expectSameResult(RA, RB);
  // Pure function of the config: both invocations keep the same trial,
  // hence byte-identical exports.
  std::ostringstream JsonA, JsonB;
  writeChromeTrace(JsonA, A, "best");
  writeChromeTrace(JsonB, B, "best");
  EXPECT_GT(A.numEvents(), 0u);
  EXPECT_EQ(JsonA.str(), JsonB.str());
}

//===----------------------------------------------------------------------===//
// (2) Determinism: serial and parallel grid exports are byte-identical.
//===----------------------------------------------------------------------===//

TEST(TraceGridTest, ParallelGridTraceMatchesSerialByteForByte) {
  GridConfig Config;
  Config.Workloads = {"compress", "jack"};
  Config.Policies = {PolicyKind::Fixed, PolicyKind::Parameterless};
  Config.Depths = {2, 4};
  Config.Params.Scale = 0.1;
  Config.Trace = true;

  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGridParallel(Config, 4);

  ASSERT_EQ(Serial.traces().size(), Parallel.traces().size());
  ASSERT_EQ(Serial.traceNames(), Parallel.traceNames());
  // One stream per planned run: baseline + policies x depths, per workload.
  EXPECT_EQ(Serial.traces().size(),
            Config.Workloads.size() *
                (1 + Config.Policies.size() * Config.Depths.size()));

  std::ostringstream SerialJson, ParallelJson;
  exportGridTrace(SerialJson, Serial);
  exportGridTrace(ParallelJson, Parallel);
  EXPECT_GT(SerialJson.str().size(), 2u);
  EXPECT_EQ(SerialJson.str(), ParallelJson.str())
      << "the merged trace must be independent of the job count";
}

TEST(TraceGridTest, GridKindMaskRestrictsEveryStream) {
  GridConfig Config;
  Config.Workloads = {"compress"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2};
  Config.Params.Scale = 0.05;
  Config.Trace = true;
  Config.TraceKindMask = traceKindBit(TraceEventKind::OrganizerWakeup);
  GridResults Results = runGrid(Config);
  ASSERT_EQ(Results.traces().size(), 2u); // baseline + one cell
  for (const TraceSink &Sink : Results.traces())
    Sink.forEach([](const TraceEvent &E) {
      EXPECT_EQ(E.Kind, TraceEventKind::OrganizerWakeup);
    });
}

//===----------------------------------------------------------------------===//
// (3) Golden JSON: the exported bytes themselves are pinned.
//===----------------------------------------------------------------------===//

TEST(TraceGoldenTest, AdaptiveLoopTraceJsonMatchesGolden) {
  // The decision-level kinds only: high-volume per-sample kinds (sample,
  // listener-record, guard-fallback) would bloat the fixture without
  // pinning anything the filtered kinds don't.
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("organizer-wakeup,controller-decision,"
                               "compile-request,compile-complete,"
                               "plan-install,plan-site",
                               Mask, Error))
      << Error;
  TraceSink Sink;
  Sink.enable(Mask);
  RunConfig Config;
  Config.WorkloadName = "compress";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 2;
  Config.Params.Scale = 0.02;
  Config.Trace = &Sink;
  runExperiment(Config);

  std::ostringstream Json;
  writeChromeTrace(Json, Sink, "compress/fixed.d2");
  expectMatchesGolden(goldenPath("trace_compress_fixed_d2.golden"), Json.str(),
                      "either the adaptive system's event stream or the JSON "
                      "serialization changed");
}

} // namespace
