//===- bench/ablation_design.cpp - Design-choice ablations ------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Ablates the design choices DESIGN.md calls out, on three benchmarks
// with distinct personalities (jess, db, SPECjbb2000):
//
//  1. the 1.5% hot-trace threshold (0.5% / 1.5% / 5%) — profile dilution
//     sensitivity;
//  2. the decay organizer on/off — phase adaptivity (jbb shifts phases
//     mid-run);
//  3. the inline-aware stack walk of Section 3.3 vs the naive
//     physical-frame walk — how much misattributed traces cost;
//  4. the OSR subsystem (src/osr/) on/off, on the loop-dominated pair
//     (compress, mpegaudio) — how much transferring long-running
//     activations shortens time-to-steady-state, i.e. the stretch of the
//     run still executing in superseded code after its replacement was
//     compiled.
//
//===----------------------------------------------------------------------===//

#include "BenchScale.h"
#include "harness/Experiment.h"
#include "support/StringUtils.h"
#include "trace/TraceSink.h"

#include <cstdio>

using namespace aoci;

namespace {

const char *Benchmarks[] = {"jess", "db", "SPECjbb2000"};

RunResult runWith(const std::string &Workload, double Scale,
                  const std::function<void(RunConfig &)> &Tweak) {
  RunConfig Config;
  Config.WorkloadName = Workload;
  Config.Params.Scale = Scale;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Tweak(Config);
  return runExperiment(Config);
}

void printRow(const char *Label, const RunResult &R,
              const RunResult &Reference) {
  std::printf("  %-24s wall %12llu (%s)  resident %7llu (%s)  "
              "fallbacks %8llu\n",
              Label, static_cast<unsigned long long>(R.WallCycles),
              formatPercent((static_cast<double>(Reference.WallCycles) /
                                 static_cast<double>(R.WallCycles) -
                             1.0) *
                            100.0)
                  .c_str(),
              static_cast<unsigned long long>(R.OptBytesResident),
              formatPercent(
                  (static_cast<double>(R.OptBytesResident) /
                       static_cast<double>(Reference.OptBytesResident) -
                   1.0) *
                  100.0)
                  .c_str(),
              static_cast<unsigned long long>(R.GuardFallbacks));
}

/// Clock cycle when the last optimizing compilation finished — the point
/// after which the *code* is steady. With OSR off, activations already
/// live in superseded variants keep running stale code past this point;
/// with OSR on they transfer at their next backedge, so the gap between
/// this cycle and the end of the run is served by current code.
uint64_t lastCompileCycle(const TraceSink &Sink) {
  uint64_t Last = 0;
  Sink.forEach([&](const TraceEvent &E) {
    if (E.Cycle + E.Dur > Last)
      Last = E.Cycle + E.Dur;
  });
  return Last;
}

void ablateOsr(double Scale) {
  for (const char *W : {"compress", "mpegaudio"}) {
    std::printf("== %s (fixed, max depth 3; OSR ablation) ==\n", W);
    RunResult Results[2];
    uint64_t SteadyAt[2] = {0, 0};
    for (int On = 0; On != 2; ++On) {
      TraceSink Sink;
      Sink.enable(traceKindBit(TraceEventKind::CompileComplete));
      Results[On] = runWith(W, Scale, [&](RunConfig &C) {
        C.Aos.Osr.Enabled = On != 0;
        C.Trace = &Sink;
      });
      SteadyAt[On] = lastCompileCycle(Sink);
    }
    const RunResult &Off = Results[0], &On = Results[1];
    // Cycles spent after the last compile: the tail both configurations
    // run in steady code shape — OSR shrinks the total by moving live
    // activations into that shape instead of waiting for re-invocation.
    std::printf("  %-24s wall %12llu  post-compile tail %12llu\n", "osr off",
                static_cast<unsigned long long>(Off.WallCycles),
                static_cast<unsigned long long>(Off.WallCycles - SteadyAt[0]));
    std::printf("  %-24s wall %12llu  post-compile tail %12llu\n", "osr on",
                static_cast<unsigned long long>(On.WallCycles),
                static_cast<unsigned long long>(On.WallCycles - SteadyAt[1]));
    std::printf("  %-24s %s wall (%lld cycles); %llu osr entries, %llu "
                "deopts, %llu transition cycles, ~%llu recovered\n",
                "delta",
                formatPercent((static_cast<double>(Off.WallCycles) /
                                   static_cast<double>(On.WallCycles) -
                               1.0) *
                              100.0)
                    .c_str(),
                static_cast<long long>(Off.WallCycles) -
                    static_cast<long long>(On.WallCycles),
                static_cast<unsigned long long>(On.OsrEntries),
                static_cast<unsigned long long>(On.Deopts),
                static_cast<unsigned long long>(On.OsrTransitionCycles),
                static_cast<unsigned long long>(On.OsrCyclesRecovered));
    std::printf("\n");
  }
}

} // namespace

int main() {
  const double Scale = benchScale();

  for (const char *W : Benchmarks) {
    std::printf("== %s (fixed, max depth 3; deltas are speedup vs the "
                "default configuration) ==\n",
                W);
    RunResult Default = runWith(W, Scale, [](RunConfig &) {});
    printRow("default (1.5%, decay, aware)", Default, Default);

    for (double Threshold : {0.005, 0.05}) {
      RunResult R = runWith(W, Scale, [&](RunConfig &C) {
        C.Aos.Ai.HotTraceThreshold = Threshold;
      });
      printRow(formatString("threshold %.1f%%", Threshold * 100).c_str(),
               R, Default);
    }
    {
      RunResult R = runWith(W, Scale, [](RunConfig &C) {
        C.Aos.DecayPeriodSamples = 0; // Disable the decay organizer.
      });
      printRow("no decay organizer", R, Default);
    }
    {
      RunResult R = runWith(W, Scale, [](RunConfig &C) {
        C.Aos.InlineAwareWalk = false; // Naive Section 3.3 walk.
      });
      printRow("naive stack walk", R, Default);
    }
    {
      RunResult R = runWith(W, Scale, [](RunConfig &C) {
        C.Aos.DeepMissingEdges = true; // Chain-position organizer ext.
      });
      printRow("deep missing edges", R, Default);
    }
    std::printf("\n");
  }

  ablateOsr(Scale);
  return 0;
}
