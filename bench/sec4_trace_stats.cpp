//===- bench/sec4_trace_stats.cpp - Regenerates the Section 4 stats --------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Reproduces the instrumentation results of Section 4: runs every
// benchmark with the instrumented trace listener under a deep fixed
// policy and prints, per benchmark, the fraction of sampled callees that
// are immediately parameterless, the fraction of chains containing a
// parameterless call within five levels, a class (static) method within
// two edges, and a large method at four or more edges.
//
//===----------------------------------------------------------------------===//

#include "BenchScale.h"
#include "harness/Experiment.h"
#include "harness/Reporters.h"

#include <cstdio>

using namespace aoci;

int main() {
  const double Scale = benchScale();

  std::vector<RunResult> Runs;
  for (const std::string &Name : workloadNames()) {
    RunConfig Config;
    Config.WorkloadName = Name;
    Config.Params.Scale = Scale;
    // A deep fixed policy records full chains; the chain statistics
    // themselves are policy-independent instrumentation.
    Config.Policy = PolicyKind::Fixed;
    Config.MaxDepth = 5;
    Config.CollectTraceStats = true;
    Runs.push_back(runExperiment(Config));
    std::fprintf(stderr, "%s done\n", Name.c_str());
  }
  std::printf("%s\n", reportSection4(Runs).c_str());

  // Aggregate over the suite, matching the paper's phrasing.
  uint64_t Samples = 0;
  double CalleeParamless = 0, ParamWithin5 = 0, ClassWithin2 = 0,
         LargeAt4 = 0;
  for (const RunResult &R : Runs) {
    Samples += R.TraceStats.numSamples();
    CalleeParamless += R.TraceStats.calleeParameterlessFraction();
    ParamWithin5 += R.TraceStats.parameterlessWithin(5);
    ClassWithin2 += R.TraceStats.classMethodWithin(2);
    LargeAt4 += R.TraceStats.largeMethodAtOrBeyond(4);
  }
  double N = static_cast<double>(Runs.size());
  std::printf("Suite averages (paper: ~20%%; 50-80%%; 50-80%%; ~50%%):\n");
  std::printf("  callees immediately parameterless: %.0f%%\n",
              CalleeParamless / N * 100);
  std::printf("  parameterless call within 5 levels: %.0f%%\n",
              ParamWithin5 / N * 100);
  std::printf("  class method within 2 edges:        %.0f%%\n",
              ClassWithin2 / N * 100);
  std::printf("  large method at 4+ edges:           %.0f%%\n",
              LargeAt4 / N * 100);
  std::printf("  total prologue samples:             %llu\n",
              static_cast<unsigned long long>(Samples));
  return 0;
}
