//===- harness/Reporters.h - Table/figure text reporters --------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the paper's tables and figures as text from harness results:
/// Table 1 (benchmark characteristics), Figure 4 (wall-clock speedup
/// grids), Figure 5 (code-size-change grids), Figure 6 (AOS component
/// overhead breakdown) and the abstract's summary numbers. The numbers
/// behind Table 1, Figure 6 and the summary are also exposed, for the
/// claims table (harness/Claims.h) to check.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_REPORTERS_H
#define AOCI_HARNESS_REPORTERS_H

#include "harness/Experiment.h"

#include <string>
#include <vector>

namespace aoci {

/// One benchmark's row of the paper's Table 1.
struct PaperTable1Row {
  const char *Benchmark;
  unsigned Classes;
  unsigned Methods;
  uint64_t Bytecodes;
};

/// The paper's Table 1, in workloadNames() order.
const std::vector<PaperTable1Row> &paperTable1();

/// Table 1: classes loaded, methods and bytecodes dynamically compiled,
/// followed by the paper's Table 1 for comparison.
std::string reportTable1(const std::vector<RunResult> &Runs);

/// Figure 4: one speedup panel per policy (benchmarks x depths, plus the
/// harmonic-mean row).
std::string reportFigure4(const GridResults &Results,
                          const std::vector<PolicyKind> &Policies,
                          const std::vector<unsigned> &Depths);

/// Figure 5: the same grid for optimized-code-size change, followed by
/// each workload's baseline byte counts (the panels' absolute anchors).
std::string reportFigure5(const GridResults &Results,
                          const std::vector<PolicyKind> &Policies,
                          const std::vector<unsigned> &Depths);

/// Compile-time companion grid (the paper reports compile time in the
/// abstract and Section 5's Figure 6 discussion).
std::string reportCompileTime(const GridResults &Results,
                              const std::vector<PolicyKind> &Policies,
                              const std::vector<unsigned> &Depths);

/// One configuration's Figure 6 bar: the fraction of wall cycles in each
/// AOS component, averaged over the grid's workloads.
struct Figure6Bar {
  /// "cins", or a cell's "<policy> max=<depth>".
  std::string Label;
  /// True for the cins bar; Policy and Depth name a cell's otherwise.
  bool IsCins = false;
  PolicyKind Policy = PolicyKind::ContextInsensitive;
  unsigned Depth = 1;
  double Share[NumAosComponents] = {};
  double Total = 0;
  /// Relative change of the compilation-thread share vs cins, in
  /// percent (0 for the cins bar).
  double CompileShareChangePct = 0;
};

/// Figure 6's bars: cins first, then each policy x depth.
std::vector<Figure6Bar> figure6Bars(const GridResults &Results,
                                    const std::vector<PolicyKind> &Policies,
                                    const std::vector<unsigned> &Depths);

/// Figure 6: percent of execution time in each AOS component, averaged
/// over the benchmarks, for cins plus each policy x depth, followed by
/// each policy x depth's change of the compilation-thread share vs cins
/// (the paper reports 8-33% reductions).
std::string reportFigure6(const GridResults &Results,
                          const std::vector<PolicyKind> &Policies,
                          const std::vector<unsigned> &Depths);

/// The abstract's numbers over every policy x depth cell of a grid, in
/// percent against each workload's cins baseline. A reduction is
/// negative, and the largest reductions are never above 0.
struct GridSummary {
  double MeanSpeedup = 0, MinSpeedup = 0, MaxSpeedup = 0;
  double MeanCodeChange = 0, LargestCodeReduction = 0;
  double MeanCompileChange = 0, LargestCompileReduction = 0;
};

GridSummary summarizeGrid(const GridResults &Results,
                          const std::vector<PolicyKind> &Policies,
                          const std::vector<unsigned> &Depths);

/// The abstract's summary numbers derived from a grid.
std::string reportSummary(const GridResults &Results,
                          const std::vector<PolicyKind> &Policies,
                          const std::vector<unsigned> &Depths);

/// Harness execution report: one row per run (worker, queue latency,
/// host time, simulated cycles), an aggregate throughput line, and the
/// sweep total of every run counter that is nonzero in some run. Host
/// timings are nondeterministic by nature; this report is about the
/// runner, not the simulation.
std::string reportRunMetrics(const GridResults &Results);

} // namespace aoci

#endif // AOCI_HARNESS_REPORTERS_H
