//===- examples/policy_explorer.cpp - Compare all eight policies -----------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Runs one benchmark (default: jess; pass another Table 1 name as the
// first argument) under every context-sensitivity policy of Section 4 —
// including the adaptively-resolving-imprecisions policy the paper left
// unimplemented — and prints a side-by-side comparison of wall clock,
// resident optimized code, compile time, and guard behaviour.
//
// Usage: policy_explorer [workload] [max-depth]
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace aoci;

int main(int Argc, char **Argv) {
  std::string Workload = Argc > 1 ? Argv[1] : "jess";
  unsigned MaxDepth = Argc > 2 ? std::atoi(Argv[2]) : 4;
  bool Known = false;
  for (const std::string &Name : workloadNames())
    Known |= Name == Workload;
  if (!Known) {
    std::fprintf(stderr, "unknown workload '%s'; choose one of:\n",
                 Workload.c_str());
    for (const std::string &Name : workloadNames())
      std::fprintf(stderr, "  %s\n", Name.c_str());
    return 1;
  }

  std::printf("Benchmark %s, maximum context depth %u\n\n",
              Workload.c_str(), MaxDepth);
  std::printf("%-12s %14s %9s %10s %11s %10s %9s\n", "policy", "cycles",
              "speedup", "resident", "compile-cyc", "fallbacks",
              "compiles");

  RunResult Baseline;
  for (PolicyKind Kind : allPolicyKinds()) {
    RunConfig Config;
    Config.WorkloadName = Workload;
    Config.Policy = Kind;
    Config.MaxDepth = Kind == PolicyKind::ContextInsensitive ? 1 : MaxDepth;
    RunResult R = runExperiment(Config);
    if (Kind == PolicyKind::ContextInsensitive)
      Baseline = R;
    double Speedup = (static_cast<double>(Baseline.WallCycles) /
                          static_cast<double>(R.WallCycles) -
                      1.0) *
                     100.0;
    std::printf("%-12s %14llu %9s %10llu %11llu %10llu %9llu\n",
                policyKindName(Kind),
                static_cast<unsigned long long>(R.WallCycles),
                formatPercent(Speedup).c_str(),
                static_cast<unsigned long long>(R.OptBytesResident),
                static_cast<unsigned long long>(R.OptCompileCycles),
                static_cast<unsigned long long>(R.GuardFallbacks),
                static_cast<unsigned long long>(R.OptCompilations));
  }
  std::printf("\n(speedup is relative to the cins row; negative resident "
              "deltas reproduce Figure 5's reductions)\n");
  return 0;
}
