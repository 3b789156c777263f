//===- bench/steady_state.cpp - Steady-state-gated measurement --------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The steady-state gate behind the CI perf job: runs a representative
// workload set (Table 1 personalities plus two adversarial scenarios)
// traced, splits each run into warmup and steady phases with the
// harness's detector, and reports both. Exits nonzero when any *gated*
// run fails to reach steady state — a perf number measured on a run
// that never settled is not a perf number.
//
// Honors AOCI_SCALE like the figure sweeps. The adversarial scenarios
// are reported but not gated: scn-phase-flip flips into a megamorphic
// phase that keeps the compiler busy to the end of the run, so "NOT
// steady" is its *correct* verdict at any scale — the row proves the
// detector refuses to call a phase-flipped run settled, exactly the
// negative property SteadyStateTest pins.
//
//===----------------------------------------------------------------------===//

#include "BenchScale.h"
#include "harness/Experiment.h"
#include "harness/SteadyState.h"

#include <cstdio>

using namespace aoci;

namespace {

struct Entry {
  const char *Workload;
  bool Gated; // Must reach steady state for the gate to pass.
};

const Entry Benchmarks[] = {{"compress", true},
                            {"jess", true},
                            {"db", true},
                            {"mpegaudio", true},
                            {"scn-phase-flip", false},
                            {"scn-megamorphic-storm", false}};

} // namespace

int main() {
  const double Scale = benchScale();

  bool AllReached = true;
  std::printf("%-22s %12s %12s %12s  %s\n", "workload", "wall Mcy",
              "warmup Mcy", "steady Mcy", "verdict");
  for (const Entry &B : Benchmarks) {
    RunConfig Config;
    Config.WorkloadName = B.Workload;
    Config.Params.Scale = Scale;
    Config.Policy = PolicyKind::Fixed;
    Config.MaxDepth = 3;
    TraceSink Sink;
    Sink.enable(steadyStateKindMask());
    Config.Trace = &Sink;
    const RunResult R = runExperiment(Config);
    const SteadyStateResult V = detectSteadyState(Sink, R.WallCycles);
    if (B.Gated)
      AllReached &= V.Reached;
    std::printf("%-22s %12.2f %12.2f %12.2f  %s (%s)%s\n", B.Workload,
                static_cast<double>(R.WallCycles) / 1e6,
                static_cast<double>(V.WarmupCycles) / 1e6,
                static_cast<double>(V.SteadyCycles) / 1e6,
                V.Reached ? "steady" : "NOT steady", V.Why.c_str(),
                B.Gated ? "" : " [ungated]");
  }
  if (!AllReached) {
    std::printf("steady-state gate FAILED: a gated run never settled; "
                "raise AOCI_SCALE\n");
    return 1;
  }
  std::printf("steady-state gate passed\n");
  return 0;
}
