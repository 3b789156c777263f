//===- perfbench/Main.cpp - End-to-end host benchmark -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload serially through the harness's public entry
/// points (runGrid, runServe, runExperiment) for a fixed number of host
/// seconds and prints the end-to-end metrics, or, with --trace 1, the
/// per-layer split of the same ops. Usage:
///
///   perfbench --workload paper-grid|serve-shared|cache-churn
///             --seed N --seconds S --trace 0|1
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Exit status 1 means a self-check failed and no result was printed.
///
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <sys/resource.h>

using namespace aoci;
using namespace perfbench;

namespace {

/// Set-ups timed before each pass of paper-grid and cache-churn.
constexpr unsigned SetupRepeats = 5;

/// A stand-in set-up for paper-grid and cache-churn, whose ops build
/// their own programs inside runGrid and runExperiment: build every
/// program the ops run and a VM over it, in host CPU ns. It moves with
/// the cost of building programs and VMs; work that a change moved out
/// of the ops into runGrid's own start would not show here.
double timeSetupNs(const BenchWorkload &W) {
  const double Start = cpuNowNs();
  for (const ProgramSpec &P : W.Programs) {
    Workload Built = buildProgram(P);
    VirtualMachine VM(Built.Prog);
  }
  return cpuNowNs() - Start;
}

/// One untimed op, so lazy process state (allocator arenas, page faults
/// of the code) is warm before the first timed op. Its output is checked
/// like any other op's.
void warmUp(const BenchWorkload &W, OpLedger &Ledger) {
  const RunConfig &C = W.Runs.front();
  const size_t Op = Ledger.attempt();
  try {
    checkResult(W, C.WorkloadName, runExperiment(C).ProgramResult, Ledger,
                Op);
  } catch (const std::exception &E) {
    Ledger.fail(Op, C.WorkloadName + " threw: " + E.what());
  }
}

/// This program's own peak resident memory. getrusage's ru_maxrss would
/// also count the launcher's memory at the fork that started this
/// program, which exceeds the benchmark's own on paper-grid and
/// cache-churn; /proc/self/status's VmHWM starts afresh at exec.
double peakRssMiB() {
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    unsigned long long KiB = 0;
    bool Found = false;
    while (!Found && std::fgets(Line, sizeof(Line), F))
      Found = std::sscanf(Line, "VmHWM: %llu kB", &KiB) == 1;
    std::fclose(F);
    if (Found)
      return static_cast<double>(KiB) / 1024.0;
  }
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Smallest pass, in ops.
size_t minPassOps(const std::vector<PassResult> &Passes) {
  size_t Min = SIZE_MAX;
  for (const PassResult &P : Passes)
    Min = std::min(Min, P.Ops.size());
  return Min;
}

/// Host-time statistics are taken over each op's best CPU time across
/// the run's passes, as the paper takes the best of its runs: every pass
/// runs the same ops in the same order, and contention on the shared
/// host only ever adds time. Each pass's percentiles, medianed over
/// passes, spread up to four times as far between runs (see README.md).
/// Set-up likewise reports its best.
MetricValues endToEnd(const BenchWorkload &W,
                      const std::vector<PassResult> &Passes,
                      const std::vector<double> &SetupNs) {
  std::vector<double> OpMs, NsPerMcycle;
  double TotalNs = 0;
  std::vector<std::vector<OpSample>> PassOps;
  for (const PassResult &P : Passes)
    PassOps.push_back(P.Ops);
  for (const OpSample &O : bestOps(PassOps)) {
    OpMs.push_back(O.Ns / 1e6);
    TotalNs += O.Ns;
    if (O.SimCycles > 0)
      NsPerMcycle.push_back(O.Ns / (O.SimCycles / 1e6));
  }
  const PassTotals &T = Passes.front().Totals;
  const double TimedMcycles =
      static_cast<double>(T.SimCycles - Passes.front().UntimedCycles) / 1e6;
  const double NumPasses = static_cast<double>(Passes.size());
  const double NumOps = static_cast<double>(OpMs.size());
  MetricValues V;
  V["op_ms_p50"] = {
      median(OpMs), formatString("median of %.0f ops, each its best of %.0f "
                                 "passes",
                                 NumOps, NumPasses)};
  V["op_ms_p90"] = {
      percentile(OpMs, 90),
      formatString("nearest rank %.0f of the same %.0f ops; %.0f ops beyond",
                   static_cast<double>(percentileIndex(OpMs.size(), 90) + 1),
                   NumOps,
                   static_cast<double>(samplesBeyond(OpMs.size(), 90)))};
  V["ns_per_mcycle"] = {
      median(NsPerMcycle),
      formatString("median of the same %.0f ops; aggregate %.6g = %.6g ns / "
                   "%.6g Mcycle simulated in them",
                   static_cast<double>(NsPerMcycle.size()),
                   TimedMcycles > 0 ? TotalNs / TimedMcycles : 0, TotalNs,
                   TimedMcycles)};
  V["setup_s"] = {
      *std::min_element(SetupNs.begin(), SetupNs.end()) / 1e9,
      W.Kind == WorkloadKind::ServeShared
          ? formatString("best of %zu runServe set-ups (construction + "
                         "round 0); median %.6g s",
                         SetupNs.size(), median(SetupNs) / 1e9)
          : formatString("best of %zu stand-in set-ups (%zu program builds "
                         "each); median %.6g s",
                         SetupNs.size(), W.Programs.size(),
                         median(SetupNs) / 1e9)};
  V["peak_rss_mb"] = {peakRssMiB(), "VmHWM"};
  const std::string PerPass =
      formatString("per pass; identical over %.0f passes", NumPasses);
  V["sim_mcycles"] = {static_cast<double>(T.SimCycles) / 1e6, PerPass};
  V["code_kb"] = {static_cast<double>(T.CodeBytes) / 1024.0, PerPass};
  V["opt_compile_mcycles"] = {static_cast<double>(T.OptCompileCycles) / 1e6,
                              PerPass};
  return V;
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper-grid|serve-shared|"
               "cache-churn --seed N --seconds S --trace 0|1\n",
               Why);
  std::exit(2);
}

bool parseU64(const char *S, uint64_t &Out) {
  if (*S == '\0')
    return false;
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(S, &End, 10);
  if (errno != 0 || *End != '\0' || *S == '-')
    return false;
  Out = V;
  return true;
}

int fail(const std::string &Why) {
  std::fprintf(stderr, "perfbench: self-check failed: %s\n", Why.c_str());
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName;
  uint64_t Seed = 0, Seconds = 0, Trace = 2;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    if (Flag == "--workload") {
      WorkloadName = Value;
    } else if (Flag == "--seed") {
      if (!parseU64(Value, Seed))
        usage("bad --seed");
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseU64(Value, Seconds) || Seconds == 0)
        usage("bad --seconds");
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (!parseU64(Value, Trace) || Trace > 1)
        usage("--trace takes 0 or 1");
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || Trace > 1 || WorkloadName.empty())
    usage("--workload, --seed, --seconds and --trace are all required");

  BenchWorkload W;
  if (!makeBenchWorkload(WorkloadName, Seed, W))
    usage(("unknown workload " + WorkloadName).c_str());

  try {
    const double Begin = wallNowNs();
    computeReferences(W);
    const double ReferenceS = (wallNowNs() - Begin) / 1e9;
    std::vector<double> SetupNs;
    OpLedger Ledger;
    warmUp(W, Ledger);

    // Closed loop, one client: passes back to back until the budget is
    // spent. A traced invocation alternates untraced and traced passes,
    // so the tracing overhead compares runs under the same host weather.
    const double Deadline =
        wallNowNs() + static_cast<double>(Seconds) * 1e9;
    std::vector<PassResult> Passes;
    TracedResult Traced;
    std::vector<PassTotals> TracedTotals;
    std::vector<LayerCounts> TracedCounts;
    do {
      if (W.Kind != WorkloadKind::ServeShared)
        for (unsigned I = 0; I != SetupRepeats; ++I)
          SetupNs.push_back(timeSetupNs(W));
      Passes.push_back(runPass(W, Ledger));
      if (W.Kind == WorkloadKind::ServeShared)
        SetupNs.push_back(Passes.back().SetupNs);
      if (Trace) {
        TracedResult One;
        runTracedPass(W, Ledger, One);
        TracedTotals.push_back(One.Totals);
        TracedCounts.push_back(One.Counts);
        Traced.merge(std::move(One));
      }
    } while (wallNowNs() < Deadline);

    // A failed op leaves its pass's totals short; the result line then
    // reports correct=false instead.
    for (const PassResult &P : Passes)
      if (Ledger.failed() == 0 && !(P.Totals == Passes.front().Totals))
        return fail("simulated totals differ between passes of one seed");
    for (size_t I = 0; I != TracedTotals.size() && Ledger.failed() == 0;
         ++I) {
      if (!(TracedTotals[I] == Passes.front().Totals))
        return fail("the traced pass's simulated totals differ from the "
                    "untraced pass's");
      if (!(TracedCounts[I] == TracedCounts.front()))
        return fail("layer counters differ between traced passes");
    }
    size_t NumOps = 0;
    for (const PassResult &P : Passes)
      NumOps += P.Ops.size();
    if (minPassOps(Passes) == 0 ||
        samplesBeyond(minPassOps(Passes), 90) < MinTailSamples)
      return fail("a pass has fewer than " + std::to_string(MinTailSamples) +
                  " ops beyond p90");

    std::printf("perfbench %s seed %" PRIu64 " trace %" PRIu64
                ": %zu passes, %zu timed ops, reference %.3f s\n",
                W.Name.c_str(), Seed, Trace, Passes.size(), NumOps,
                ReferenceS);
    std::vector<std::vector<OpSample>> WallOps;
    for (size_t I = 0; I != Passes.size(); ++I) {
      double Cpu = 0, Wall = 0;
      std::vector<double> OpMs;
      WallOps.emplace_back();
      for (const OpSample &O : Passes[I].Ops) {
        Cpu += O.Ns;
        Wall += O.WallNs;
        OpMs.push_back(O.Ns / 1e6);
        WallOps.back().push_back({O.WallNs, 0, O.SimCycles});
      }
      std::printf("  pass %zu: wall_s %.4f (sum of op wall times), cpu_s "
                  "%.4f, op CPU ms p50 %.6g p90 %.6g\n",
                  I, Wall / 1e9, Cpu / 1e9, median(OpMs), percentile(OpMs, 90));
    }
    std::vector<double> BestWallMs;
    for (const OpSample &O : bestOps(WallOps))
      BestWallMs.push_back(O.Ns / 1e6);
    std::printf("  wall clock, each op's best: op ms p50 %.6g p90 %.6g\n",
                median(BestWallMs), percentile(BestWallMs, 90));
    std::printf("  failed_op_pct %.4g %% (%zu failed / %zu attempted)\n",
                Ledger.attempted() ? 100.0 *
                                         static_cast<double>(Ledger.failed()) /
                                         static_cast<double>(Ledger.attempted())
                                   : 0.0,
                Ledger.failed(), Ledger.attempted());
    for (size_t I = 0; I != Ledger.reasons().size() && I != 20; ++I)
      std::printf("  FAILED %s\n", Ledger.reasons()[I].c_str());

    const MetricValues E2E = endToEnd(W, Passes, SetupNs);
    MetricValues Values = E2E;
    const std::vector<MetricDef> *Defs = &endToEndMetrics();
    if (Trace) {
      Values = layerMetrics(Traced, E2E.at("op_ms_p50").Value * 1e6,
                            Passes.back());
      Defs = &perLayerMetrics();
      std::printf("end-to-end (untraced passes of this run):\n%s",
                  formatMetricTable(endToEndMetrics(), E2E).c_str());
      std::printf("traced passes: sim_mcycles %.17g, code_kb %.17g, "
                  "opt_compile_mcycles %.17g (checked equal to the untraced "
                  "passes')\n",
                  static_cast<double>(Traced.Totals.SimCycles) / 1e6,
                  static_cast<double>(Traced.Totals.CodeBytes) / 1024.0,
                  static_cast<double>(Traced.Totals.OptCompileCycles) / 1e6);
      std::printf("%s", describeSplit(Traced).c_str());
      std::printf("per-layer:\n");
    } else {
      std::printf("end-to-end:\n");
    }
    std::printf("%s", formatMetricTable(*Defs, Values).c_str());
    std::string Error;
    const std::string Json =
        formatResultJson(Ledger.failed() == 0, Ledger.attempted(),
                         Ledger.failed(), *Defs, Values, Error);
    if (Json.empty())
      return fail(Error);
    std::printf("%s\n", Json.c_str());
  } catch (const std::exception &E) {
    return fail(E.what());
  }
  return 0;
}
