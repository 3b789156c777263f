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
/// overhead breakdown), the Section 4 trace statistics, and the
/// abstract's summary numbers.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_REPORTERS_H
#define AOCI_HARNESS_REPORTERS_H

#include "harness/Experiment.h"

#include <string>
#include <vector>

namespace aoci {

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

/// Figure 6: percent of execution time in each AOS component, averaged
/// over the benchmarks, for cins plus each policy x depth, followed by
/// each policy x depth's change of the compilation-thread share vs cins
/// (the paper reports 8-33% reductions).
std::string reportFigure6(const GridResults &Results,
                          const std::vector<PolicyKind> &Policies,
                          const std::vector<unsigned> &Depths);

/// Section 4 statistics: parameterless/class/large chain positions.
std::string reportSection4(const std::vector<RunResult> &Runs);

/// The abstract's summary numbers derived from a grid.
std::string reportSummary(const GridResults &Results,
                          const std::vector<PolicyKind> &Policies,
                          const std::vector<unsigned> &Depths);

/// Harness execution report: one row per run (worker, queue latency,
/// host time, simulated cycles) plus aggregate throughput lines. Host
/// timings are nondeterministic by nature; this report is about the
/// runner, not the simulation.
std::string reportRunMetrics(const GridResults &Results);

} // namespace aoci

#endif // AOCI_HARNESS_REPORTERS_H
