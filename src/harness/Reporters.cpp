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

const std::vector<PaperTable1Row> &aoci::paperTable1() {
  static const std::vector<PaperTable1Row> Paper = {
      {"compress", 48, 489, 19480},   {"jess", 176, 1101, 35316},
      {"db", 41, 510, 20495},         {"javac", 176, 1496, 56282},
      {"mpegaudio", 85, 712, 51308},  {"mtrt", 62, 629, 24435},
      {"jack", 86, 743, 36253},       {"SPECjbb2000", 132, 1778, 73608}};
  return Paper;
}

std::string aoci::reportTable1(const std::vector<RunResult> &Runs) {
  std::vector<std::string> Header = {"Benchmark", "Classes", "Methods",
                                     "Bytecodes"};
  auto row = [](const std::string &Name, unsigned Classes, unsigned Methods,
                uint64_t Bytecodes) {
    return std::vector<std::string>{
        Name, formatString("%u", Classes), formatString("%u", Methods),
        formatString("%llu", static_cast<unsigned long long>(Bytecodes))};
  };
  std::vector<std::vector<std::string>> Rows, Paper;
  for (const RunResult &R : Runs)
    Rows.push_back(row(R.WorkloadName, R.ClassesLoaded, R.MethodsCompiled,
                       R.BytecodesCompiled));
  for (const PaperTable1Row &P : paperTable1())
    Paper.push_back(row(P.Benchmark, P.Classes, P.Methods, P.Bytecodes));
  return "Table 1: benchmark characteristics (classes loaded, methods and "
         "bytecodes dynamically compiled)\n" +
         renderTable(Header, Rows) + "\nPaper reference values:\n" +
         renderTable(Header, Paper);
}

namespace {

using MetricFn = double (GridResults::*)(const std::string &, PolicyKind,
                                         unsigned) const;

std::string reportMetricGrid(const char *Title, const GridResults &Results,
                             MetricFn Metric) {
  std::string Out = Title;
  Out += '\n';
  for (PolicyKind Policy : Results.policies()) {
    Out += formatString("\n(%s)\n", policyKindName(Policy));
    std::vector<std::string> Header = {"benchmark"};
    for (unsigned D : Results.depths())
      Header.push_back(formatString("max=%u", D));
    std::vector<std::vector<std::string>> Rows;
    for (const std::string &W : Results.workloads()) {
      std::vector<std::string> Row = {W};
      for (unsigned D : Results.depths())
        Row.push_back(formatPercent((Results.*Metric)(W, Policy, D)));
      Rows.push_back(std::move(Row));
    }
    // The paper's harMean bar.
    std::vector<std::string> Mean = {"harMean"};
    for (unsigned D : Results.depths()) {
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

std::string aoci::reportFigure4(const GridResults &Results) {
  return reportMetricGrid(
      "Figure 4: wall-clock speedup over context-insensitive inlining "
      "(positive = faster)",
      Results, &GridResults::speedupPercent);
}

std::string aoci::reportFigure5(const GridResults &Results) {
  std::string Out = reportMetricGrid(
      "Figure 5: optimized code size change over context-insensitive "
      "inlining (negative = smaller, desirable)",
      Results, &GridResults::codeSizePercent);
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

std::string aoci::reportCompileTime(const GridResults &Results) {
  return reportMetricGrid(
      "Compile-time change over context-insensitive inlining (negative = "
      "less optimizing compilation, desirable)",
      Results, &GridResults::compileTimePercent);
}

std::vector<Figure6Bar> aoci::figure6Bars(const GridResults &Results) {
  using SelectFn = std::function<const RunResult &(const std::string &)>;
  auto bar = [&](const SelectFn &Select) {
    Figure6Bar B;
    for (unsigned C = 0; C != NumAosComponents; ++C) {
      double Sum = 0;
      for (const std::string &W : Results.workloads())
        Sum += Select(W).componentFraction(static_cast<AosComponent>(C));
      B.Share[C] = Sum / static_cast<double>(Results.workloads().size());
      B.Total += B.Share[C];
    }
    return B;
  };

  std::vector<Figure6Bar> Bars;
  Bars.push_back(bar([&](const std::string &W) -> const RunResult & {
    return Results.baseline(W);
  }));
  Bars.back().Label = policyKindName(PolicyKind::ContextInsensitive);
  Bars.back().IsCins = true;
  const unsigned Compilation =
      static_cast<unsigned>(AosComponent::Compilation);
  const double CinsCompileShare = Bars.front().Share[Compilation];
  for (PolicyKind Policy : Results.policies())
    for (unsigned D : Results.depths()) {
      Figure6Bar B = bar([&](const std::string &W) -> const RunResult & {
        return Results.cell(W, Policy, D);
      });
      B.Label = formatString("%s max=%u", policyKindName(Policy), D);
      B.Policy = Policy;
      B.Depth = D;
      B.CompileShareChangePct =
          percentChange(CinsCompileShare, B.Share[Compilation]);
      Bars.push_back(B);
    }
  return Bars;
}

std::string aoci::reportFigure6(const GridResults &Results) {
  std::string Out =
      "Figure 6: percent of execution time in each adaptive optimization "
      "system component (averaged over benchmarks)\n";
  std::vector<std::string> Header = {"configuration"};
  for (unsigned C = 0; C != NumAosComponents; ++C)
    Header.push_back(aosComponentName(static_cast<AosComponent>(C)));
  Header.push_back("total");

  std::vector<std::vector<std::string>> Rows;
  std::string ShareChange =
      "\nRelative change of the compilation-thread share vs cins "
      "(paper: 8-33% reductions):\n";
  for (const Figure6Bar &B : figure6Bars(Results)) {
    std::vector<std::string> Row = {B.Label};
    for (double Share : B.Share)
      Row.push_back(formatString("%.4f%%", Share * 100.0));
    Row.push_back(formatString("%.4f%%", B.Total * 100.0));
    Rows.push_back(std::move(Row));
    if (!B.IsCins)
      ShareChange += formatString("  %-10s max=%u: %+.1f%%\n",
                                  policyKindName(B.Policy), B.Depth,
                                  B.CompileShareChangePct);
  }
  Out += renderTable(Header, Rows) + ShareChange;
  return Out;
}

GridSummary aoci::summarizeGrid(const GridResults &Results) {
  GridSummary S;
  S.MinSpeedup = 1e9;
  S.MaxSpeedup = -1e9;
  std::vector<double> AllSpeedups, AllCode, AllCompile;
  for (const std::string &W : Results.workloads()) {
    for (PolicyKind Policy : Results.policies()) {
      for (unsigned D : Results.depths()) {
        double Speedup = Results.speedupPercent(W, Policy, D);
        double Code = Results.codeSizePercent(W, Policy, D);
        double Compile = Results.compileTimePercent(W, Policy, D);
        AllSpeedups.push_back(Speedup);
        AllCode.push_back(Code);
        AllCompile.push_back(Compile);
        S.MinSpeedup = std::min(S.MinSpeedup, Speedup);
        S.MaxSpeedup = std::max(S.MaxSpeedup, Speedup);
        S.LargestCodeReduction = std::min(S.LargestCodeReduction, Code);
        S.LargestCompileReduction =
            std::min(S.LargestCompileReduction, Compile);
      }
    }
  }
  S.MeanSpeedup = arithmeticMean(AllSpeedups);
  S.MeanCodeChange = arithmeticMean(AllCode);
  S.MeanCompileChange = arithmeticMean(AllCompile);
  return S;
}

std::string aoci::reportSummary(const GridResults &Results) {
  const GridSummary S = summarizeGrid(Results);
  std::string Out = "Summary (paper's abstract: perf within +/-1% on "
                    "average, individual programs -4.2%..+5.3%; up to "
                    "33.0% compile-time and 56.7% code-space "
                    "reductions; ~10% average reductions)\n";
  Out += formatString("  mean speedup over all cells:      %s\n",
                      formatPercent(S.MeanSpeedup).c_str());
  Out += formatString("  speedup range:                    %s .. %s\n",
                      formatPercent(S.MinSpeedup).c_str(),
                      formatPercent(S.MaxSpeedup).c_str());
  Out += formatString("  mean code size change:            %s\n",
                      formatPercent(S.MeanCodeChange).c_str());
  Out += formatString("  largest code space reduction:     %s\n",
                      formatPercent(S.LargestCodeReduction).c_str());
  Out += formatString("  mean compile time change:         %s\n",
                      formatPercent(S.MeanCompileChange).c_str());
  Out += formatString("  largest compile time reduction:   %s\n",
                      formatPercent(S.LargestCompileReduction).c_str());
  return Out;
}

std::string aoci::reportRunMetrics(const GridResults &Results) {
  const std::vector<RunMetrics> &Metrics = Results.metrics();
  const std::span<const RunCounter> Counters = runCounters();
  std::vector<std::vector<std::string>> Rows;
  std::vector<uint64_t> Totals(Counters.size());
  uint64_t TotalHostNs = 0, TotalQueueNs = 0, WarmRuns = 0;
  unsigned MaxWorker = 0;
  unsigned SteadyKnown = 0, SteadyReached = 0;
  for (const RunMetrics &M : Metrics) {
    const RunResult &R = Results.result(M);
    Rows.push_back(
        {M.WorkloadName,
         policyKindName(M.Policy),
         formatString("%u", M.MaxDepth), formatString("%u", M.Worker),
         formatString("%.1f", static_cast<double>(M.QueueLatencyNs) / 1e3),
         formatString("%.2f", static_cast<double>(M.HostNs) / 1e6),
         formatString("%.2f", static_cast<double>(R.WallCycles) / 1e6),
         !M.SteadyKnown    ? "n/a"
         : !M.SteadyReached ? "no"
                            : formatString(
                                  "%.2f",
                                  static_cast<double>(M.WarmupCycles) / 1e6)});
    for (size_t I = 0; I != Counters.size(); ++I)
      Totals[I] += R.*Counters[I].Field;
    TotalHostNs += M.HostNs;
    TotalQueueNs += M.QueueLatencyNs;
    WarmRuns += R.WarmStarted;
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
      "mean queue latency %.1f us\n",
      Metrics.size(), MaxWorker + 1,
      static_cast<double>(TotalHostNs) / 1e6,
      static_cast<double>(TotalQueueNs) / 1e3 / N);
  Out += "  sweep totals of the nonzero run counters:\n";
  for (size_t I = 0; I != Counters.size(); ++I)
    if (Totals[I] != 0)
      Out += formatString("    %-24s %16llu %s\n", Counters[I].Column,
                          static_cast<unsigned long long>(Totals[I]),
                          Counters[I].Unit);
  if (WarmRuns != 0)
    Out += formatString(
        "  warm start: %llu run(s) seeded from a profile\n",
        static_cast<unsigned long long>(WarmRuns));
  if (SteadyKnown != 0)
    Out += formatString(
        "  steady state: %u of %u traced runs settled (warm Mcy column "
        "is the warmup cost before the split)\n",
        SteadyReached, SteadyKnown);
  return Out;
}
