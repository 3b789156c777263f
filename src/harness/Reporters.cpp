//===- harness/Reporters.cpp - Table/figure text reporters -----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/Reporters.h"

#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace aoci;

std::string aoci::reportTable1(const std::vector<RunResult> &Runs) {
  std::vector<std::string> Header = {"Benchmark", "Classes", "Methods",
                                     "Bytecodes"};
  std::vector<std::vector<std::string>> Rows;
  for (const RunResult &R : Runs)
    Rows.push_back({R.WorkloadName, formatString("%u", R.ClassesLoaded),
                    formatString("%u", R.MethodsCompiled),
                    formatString("%llu", static_cast<unsigned long long>(
                                             R.BytecodesCompiled))});
  // Table 1 of the paper, for comparison.
  const std::vector<std::vector<std::string>> Paper = {
      {"compress", "48", "489", "19480"},
      {"jess", "176", "1101", "35316"},
      {"db", "41", "510", "20495"},
      {"javac", "176", "1496", "56282"},
      {"mpegaudio", "85", "712", "51308"},
      {"mtrt", "62", "629", "24435"},
      {"jack", "86", "743", "36253"},
      {"SPECjbb2000", "132", "1778", "73608"}};
  return "Table 1: benchmark characteristics (classes loaded, methods and "
         "bytecodes dynamically compiled)\n" +
         renderTable(Header, Rows) + "\nPaper reference values:\n" +
         renderTable(Header, Paper);
}

namespace {

using MetricFn = double (GridResults::*)(const std::string &, PolicyKind,
                                         unsigned) const;

std::string reportMetricGrid(const char *Title, const GridResults &Results,
                             const std::vector<PolicyKind> &Policies,
                             const std::vector<unsigned> &Depths,
                             MetricFn Metric) {
  std::string Out = Title;
  Out += '\n';
  for (PolicyKind Policy : Policies) {
    Out += formatString("\n(%s)\n", policyKindName(Policy));
    std::vector<std::string> Header = {"benchmark"};
    for (unsigned D : Depths)
      Header.push_back(formatString("max=%u", D));
    std::vector<std::vector<std::string>> Rows;
    for (const std::string &W : Results.workloads()) {
      std::vector<std::string> Row = {W};
      for (unsigned D : Depths)
        Row.push_back(formatPercent((Results.*Metric)(W, Policy, D)));
      Rows.push_back(std::move(Row));
    }
    // The paper's harMean bar.
    std::vector<std::string> Mean = {"harMean"};
    for (unsigned D : Depths) {
      std::vector<double> Cells;
      for (const std::string &W : Results.workloads())
        Cells.push_back((Results.*Metric)(W, Policy, D));
      Mean.push_back(formatPercent(harmonicMeanOfPercentages(Cells)));
    }
    Rows.push_back(std::move(Mean));
    Out += renderTable(Header, Rows);
  }
  return Out;
}

} // namespace

std::string aoci::reportFigure4(const GridResults &Results,
                                const std::vector<PolicyKind> &Policies,
                                const std::vector<unsigned> &Depths) {
  return reportMetricGrid(
      "Figure 4: wall-clock speedup over context-insensitive inlining "
      "(positive = faster)",
      Results, Policies, Depths, &GridResults::speedupPercent);
}

std::string aoci::reportFigure5(const GridResults &Results,
                                const std::vector<PolicyKind> &Policies,
                                const std::vector<unsigned> &Depths) {
  std::string Out = reportMetricGrid(
      "Figure 5: optimized code size change over context-insensitive "
      "inlining (negative = smaller, desirable)",
      Results, Policies, Depths, &GridResults::codeSizePercent);
  // Absolute anchors for the relative panels: "code space" is the
  // resident optimized code; the cumulative-generated figure also counts
  // code obsoleted by recompilation and tracks compile time.
  Out += "\ncontext-insensitive baseline code size (bytes):\n";
  for (const std::string &W : Results.workloads()) {
    const RunResult &B = Results.baseline(W);
    Out += formatString("  %-12s %llu resident / %llu generated\n", W.c_str(),
                        static_cast<unsigned long long>(B.OptBytesResident),
                        static_cast<unsigned long long>(B.OptBytesGenerated));
  }
  return Out;
}

std::string
aoci::reportCompileTime(const GridResults &Results,
                        const std::vector<PolicyKind> &Policies,
                        const std::vector<unsigned> &Depths) {
  return reportMetricGrid(
      "Compile-time change over context-insensitive inlining (negative = "
      "less optimizing compilation, desirable)",
      Results, Policies, Depths, &GridResults::compileTimePercent);
}

std::string aoci::reportFigure6(const GridResults &Results,
                                const std::vector<PolicyKind> &Policies,
                                const std::vector<unsigned> &Depths) {
  std::string Out =
      "Figure 6: percent of execution time in each adaptive optimization "
      "system component (averaged over benchmarks)\n";
  std::vector<std::string> Header = {"configuration"};
  for (unsigned C = 0; C != NumAosComponents; ++C)
    Header.push_back(aosComponentName(static_cast<AosComponent>(C)));
  Header.push_back("total");

  using SelectFn = std::function<const RunResult &(const std::string &)>;
  auto meanFraction = [&](const SelectFn &Select, AosComponent C) {
    double Sum = 0;
    for (const std::string &W : Results.workloads())
      Sum += Select(W).componentFraction(C);
    return Sum / static_cast<double>(Results.workloads().size());
  };
  auto averagedRow = [&](const std::string &Label, const SelectFn &Select) {
    std::vector<std::string> Row = {Label};
    double Total = 0;
    for (unsigned C = 0; C != NumAosComponents; ++C) {
      double Avg = meanFraction(Select, static_cast<AosComponent>(C));
      Total += Avg;
      Row.push_back(formatString("%.4f%%", Avg * 100.0));
    }
    Row.push_back(formatString("%.4f%%", Total * 100.0));
    return Row;
  };

  const SelectFn Cins = [&](const std::string &W) -> const RunResult & {
    return Results.baseline(W);
  };
  const double CinsCompileShare =
      meanFraction(Cins, AosComponent::Compilation);
  std::vector<std::vector<std::string>> Rows;
  Rows.push_back(averagedRow("cins", Cins));
  std::string ShareChange =
      "\nRelative change of the compilation-thread share vs cins "
      "(paper: 8-33% reductions):\n";
  for (PolicyKind Policy : Policies)
    for (unsigned D : Depths) {
      const SelectFn Cell = [&](const std::string &W) -> const RunResult & {
        return Results.cell(W, Policy, D);
      };
      Rows.push_back(averagedRow(
          formatString("%s max=%u", policyKindName(Policy), D), Cell));
      ShareChange += formatString(
          "  %-10s max=%u: %+.1f%%\n", policyKindName(Policy), D,
          percentChange(CinsCompileShare,
                        meanFraction(Cell, AosComponent::Compilation)));
    }
  Out += renderTable(Header, Rows) + ShareChange;
  return Out;
}

std::string aoci::reportSection4(const std::vector<RunResult> &Runs) {
  std::string Out =
      "Section 4 trace statistics (from the instrumented trace "
      "listener)\n";
  std::vector<std::string> Header = {
      "benchmark",       "samples",       "callee paramless",
      "paramless<=5",    "classMeth<=2",  "large>=4",
      "mean trace depth"};
  std::vector<std::vector<std::string>> Rows;
  for (const RunResult &R : Runs) {
    const TraceStatistics &S = R.TraceStats;
    Rows.push_back(
        {R.WorkloadName,
         formatString("%llu",
                      static_cast<unsigned long long>(S.numSamples())),
         formatString("%.0f%%", S.calleeParameterlessFraction() * 100),
         formatString("%.0f%%", S.parameterlessWithin(5) * 100),
         formatString("%.0f%%", S.classMethodWithin(2) * 100),
         formatString("%.0f%%", S.largeMethodAtOrBeyond(4) * 100),
         formatString("%.2f", S.meanRecordedDepth())});
  }
  Out += renderTable(Header, Rows);
  Out += "\nPaper reference bands: ~20% of callees immediately "
         "parameterless; 50-80% of traces hit a parameterless call within "
         "five levels; 50-80% hit a class method within two edges; ~50% "
         "need four or more edges to reach a large method.\n";
  return Out;
}

std::string aoci::reportSummary(const GridResults &Results,
                                const std::vector<PolicyKind> &Policies,
                                const std::vector<unsigned> &Depths) {
  double MinSpeedup = 1e9, MaxSpeedup = -1e9;
  double MinCode = 1e9, MaxCodeReduction = 0;
  double MaxCompileReduction = 0;
  std::vector<double> AllSpeedups, AllCode, AllCompile;
  for (const std::string &W : Results.workloads()) {
    for (PolicyKind Policy : Policies) {
      for (unsigned D : Depths) {
        double S = Results.speedupPercent(W, Policy, D);
        double C = Results.codeSizePercent(W, Policy, D);
        double T = Results.compileTimePercent(W, Policy, D);
        AllSpeedups.push_back(S);
        AllCode.push_back(C);
        AllCompile.push_back(T);
        MinSpeedup = std::min(MinSpeedup, S);
        MaxSpeedup = std::max(MaxSpeedup, S);
        MinCode = std::min(MinCode, C);
        MaxCodeReduction = std::min(MaxCodeReduction, C);
        MaxCompileReduction = std::min(MaxCompileReduction, T);
      }
    }
  }
  std::string Out = "Summary (paper's abstract: perf within +/-1% on "
                    "average, individual programs -4.2%..+5.3%; up to "
                    "33.0% compile-time and 56.7% code-space "
                    "reductions; ~10% average reductions)\n";
  Out += formatString("  mean speedup over all cells:      %s\n",
                      formatPercent(arithmeticMean(AllSpeedups)).c_str());
  Out += formatString("  speedup range:                    %s .. %s\n",
                      formatPercent(MinSpeedup).c_str(),
                      formatPercent(MaxSpeedup).c_str());
  Out += formatString("  mean code size change:            %s\n",
                      formatPercent(arithmeticMean(AllCode)).c_str());
  Out += formatString("  largest code space reduction:     %s\n",
                      formatPercent(MaxCodeReduction).c_str());
  Out += formatString("  mean compile time change:         %s\n",
                      formatPercent(arithmeticMean(AllCompile)).c_str());
  Out += formatString("  largest compile time reduction:   %s\n",
                      formatPercent(MaxCompileReduction).c_str());
  return Out;
}

std::string aoci::reportRunMetrics(const GridResults &Results) {
  const std::vector<RunMetrics> &Metrics = Results.metrics();
  std::vector<std::vector<std::string>> Rows;
  uint64_t TotalHostNs = 0, TotalQueueNs = 0, TotalCycles = 0;
  uint64_t TotalOsrEntries = 0, TotalDeopts = 0;
  uint64_t TotalEvictions = 0;
  uint64_t TotalShareHits = 0, TotalSharePublishes = 0, TotalShareSaved = 0;
  uint64_t TotalBudgetSpent = 0, TotalBudgetPruned = 0;
  uint64_t WarmRuns = 0, TotalWarmApplied = 0, TotalWarmDropped = 0;
  unsigned MaxWorker = 0;
  unsigned SteadyKnown = 0, SteadyReached = 0;
  for (const RunMetrics &M : Metrics) {
    const RunResult &R = Results.result(M);
    Rows.push_back(
        {M.WorkloadName,
         M.IsBaseline ? "cins" : policyKindName(M.Policy),
         formatString("%u", M.MaxDepth), formatString("%u", M.Worker),
         formatString("%.1f", static_cast<double>(M.QueueLatencyNs) / 1e3),
         formatString("%.2f", static_cast<double>(M.HostNs) / 1e6),
         formatString("%.2f", static_cast<double>(R.WallCycles) / 1e6),
         !M.SteadyKnown    ? "n/a"
         : !M.SteadyReached ? "no"
                            : formatString(
                                  "%.2f",
                                  static_cast<double>(M.WarmupCycles) / 1e6)});
    TotalHostNs += M.HostNs;
    TotalQueueNs += M.QueueLatencyNs;
    TotalCycles += R.WallCycles;
    TotalOsrEntries += R.OsrEntries;
    TotalDeopts += R.Deopts;
    TotalEvictions += R.Evictions;
    TotalShareHits += R.ShareHits;
    TotalSharePublishes += R.SharePublishes;
    TotalShareSaved += R.ShareCyclesSaved;
    TotalBudgetSpent += R.BudgetUnitsSpent;
    TotalBudgetPruned += R.BudgetCandidatesPruned;
    WarmRuns += R.WarmStarted;
    TotalWarmApplied += R.WarmStartApplied;
    TotalWarmDropped += R.WarmStartDropped;
    SteadyKnown += M.SteadyKnown;
    SteadyReached += M.SteadyReached;
    MaxWorker = std::max(MaxWorker, M.Worker);
  }
  std::string Out = "Harness run metrics (host-side; not deterministic)\n";
  Out += renderTable({"workload", "policy", "max", "worker", "queue us",
                      "host ms", "Mcycles", "warm Mcy"},
                     Rows);
  if (Metrics.empty())
    return Out;
  double N = static_cast<double>(Metrics.size());
  Out += formatString(
      "  %zu runs on %u worker(s): %.1f host ms of run work, "
      "mean queue latency %.1f us, %.1f simulated Mcycles\n",
      Metrics.size(), MaxWorker + 1,
      static_cast<double>(TotalHostNs) / 1e6,
      static_cast<double>(TotalQueueNs) / 1e3 / N,
      static_cast<double>(TotalCycles) / 1e6);
  if (TotalOsrEntries != 0 || TotalDeopts != 0)
    Out += formatString(
        "  osr: %llu on-stack replacements, %llu deoptimizations across "
        "the sweep\n",
        static_cast<unsigned long long>(TotalOsrEntries),
        static_cast<unsigned long long>(TotalDeopts));
  if (TotalEvictions != 0)
    Out += formatString(
        "  code cache: %llu evictions across the sweep\n",
        static_cast<unsigned long long>(TotalEvictions));
  if (TotalShareHits + TotalSharePublishes != 0)
    Out += formatString(
        "  shared code cache: %llu hits / %llu publishes, %llu compile "
        "cycles saved across the sweep\n",
        static_cast<unsigned long long>(TotalShareHits),
        static_cast<unsigned long long>(TotalSharePublishes),
        static_cast<unsigned long long>(TotalShareSaved));
  if (TotalBudgetSpent + TotalBudgetPruned != 0)
    Out += formatString(
        "  budget organizer: %llu candidate units accepted, %llu "
        "candidates pruned across the sweep\n",
        static_cast<unsigned long long>(TotalBudgetSpent),
        static_cast<unsigned long long>(TotalBudgetPruned));
  if (WarmRuns != 0)
    Out += formatString(
        "  warm start: %llu run(s) seeded from a profile (%llu entries "
        "applied, %llu dropped as stale)\n",
        static_cast<unsigned long long>(WarmRuns),
        static_cast<unsigned long long>(TotalWarmApplied),
        static_cast<unsigned long long>(TotalWarmDropped));
  if (SteadyKnown != 0)
    Out += formatString(
        "  steady state: %u of %u traced runs settled (warm Mcy column "
        "is the warmup cost before the split)\n",
        SteadyReached, SteadyKnown);
  return Out;
}
