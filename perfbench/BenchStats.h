//===- perfbench/BenchStats.h - Benchmark statistics and output -*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own logic, kept apart from the AOCI libraries so the
/// tests in tests/ can exercise it without running a workload: tail
/// percentiles, the op-outcome ledger, the metric table, and the result
/// line the benchmark prints last.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PERFBENCH_BENCHSTATS_H
#define AOCI_PERFBENCH_BENCHSTATS_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A reported tail percentile needs at least this many samples beyond it.
constexpr size_t MinTailSamples = 10;

/// Zero-based index of the nearest-rank \p Pct percentile (0 < Pct <= 100)
/// among \p N ascending samples: the smallest index whose sample is at
/// least the \p Pct percent below it. \p N must be nonzero.
size_t percentileIndex(size_t N, double Pct);

/// Samples strictly above percentileIndex(N, Pct).
size_t samplesBeyond(size_t N, double Pct);

/// Nearest-rank percentile of \p Samples (copied and sorted). Empty input
/// yields 0.
double percentile(std::vector<double> Samples, double Pct);

/// Median (mean of the two middle samples for an even count). Empty input
/// yields 0.
double median(std::vector<double> Samples);

/// Which ops were attempted and which failed. An op fails when it threw
/// or its program result differs from the reference; several findings on
/// one op still count it once.
class OpLedger {
public:
  /// Registers one attempted op and returns its index.
  size_t attempt();
  /// Marks op \p Op failed for reason \p Why. Idempotent per op.
  void fail(size_t Op, const std::string &Why);

  size_t attempted() const { return Failed.size(); }
  size_t failed() const { return NumFailed; }
  /// One line per failed op, in the order the failures were found.
  const std::vector<std::string> &reasons() const { return Reasons; }

private:
  std::vector<bool> Failed;
  size_t NumFailed = 0;
  std::vector<std::string> Reasons;
};

enum class Better { Lower, Higher };

/// One metric as BENCHMARK.json declares it.
struct MetricDef {
  const char *Name;
  const char *Unit;
  Better Dir;
};

/// The end-to-end metrics, printed by an untraced run.
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics, printed by a traced run.
const std::vector<MetricDef> &perLayerMetrics();

/// A measured value and, for a ratio, the numerator and denominator it
/// came from (printed beside it so every ratio can be reconciled).
struct MetricValue {
  double Value = 0;
  std::string Basis;
};

using MetricValues = std::map<std::string, MetricValue>;

/// Builds a ratio value: Num / Den * Scale, 0 when Den is 0.
MetricValue ratio(double Num, double Den, double Scale, const char *NumName,
                  const char *DenName);

/// Human-readable table: one row per metric of \p Defs with its value,
/// unit, the direction that counts as better, and its basis.
std::string formatMetricTable(const std::vector<MetricDef> &Defs,
                              const MetricValues &Values);

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and a `metrics` entry (value and unit) for each of \p Defs. Values
/// missing from \p Values or not finite are an error, reported through
/// \p Error with an empty return.
std::string formatResultJson(bool Correct, size_t Attempted, size_t Failed,
                             const std::vector<MetricDef> &Defs,
                             const MetricValues &Values, std::string &Error);

} // namespace perfbench

#endif // AOCI_PERFBENCH_BENCHSTATS_H
