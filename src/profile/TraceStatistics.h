//===- profile/TraceStatistics.h - Section 4 instrumentation ----*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation Section 4 describes: "we instrumented the trace
/// listener to record the number of stack frames it traversed as it took
/// each sample". For every prologue sample it records the chain position
/// of the first method with each ChainStop property (the first
/// parameterless method, the first class (static) method, and the first
/// large method; the same test the policies stop at), plus the depth
/// actually recorded. These distributions back the paper's claims (20%
/// of callees immediately parameterless; 50-80% of traces hit a
/// parameterless call within five levels; 50-80% hit a class method
/// within two edges; ~half need four or more edges to reach a large
/// method), which `aoci claims` checks as its `sec4.*` rows.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PROFILE_TRACESTATISTICS_H
#define AOCI_PROFILE_TRACESTATISTICS_H

#include "policy/ContextPolicy.h"
#include "support/Histogram.h"

#include <vector>

namespace aoci {

/// Aggregated chain statistics over all prologue samples.
class TraceStatistics {
public:
  /// Records one sampled chain [callee, caller1, ...] and the depth the
  /// active policy recorded.
  void record(const Program &P, const std::vector<MethodId> &Chain,
              unsigned RecordedDepth);

  uint64_t numSamples() const { return RecordedDepth.total(); }

  /// Fraction of samples whose callee (chain position 0) is
  /// parameterless — the paper reports ~20%.
  double calleeParameterlessFraction() const {
    return firstStop(ChainStop::Parameterless).fractionAt(0);
  }

  /// Fraction of samples with a \p Stop method at chain position <=
  /// \p Position. The paper reports 50-80% within five levels for a
  /// parameterless method, and 50-80% within two for a class method.
  double stopWithin(ChainStop Stop, unsigned Position) const {
    return firstStop(Stop).cumulativeFractionAtOrBelow(Position);
  }

  /// Fraction of samples whose first \p Stop method is at chain position
  /// >= \p Position (or absent) — the paper reports ~50% at four or more
  /// for a large method.
  double stopAtOrBeyond(ChainStop Stop, unsigned Position) const {
    if (numSamples() == 0)
      return 0;
    return Position == 0 ? 1.0 : 1.0 - stopWithin(Stop, Position - 1);
  }

  /// Mean recorded depth.
  double meanRecordedDepth() const;

private:
  const Histogram &firstStop(ChainStop Stop) const {
    return FirstStop[static_cast<unsigned>(Stop)];
  }

  /// Chain index of the first method with each property; samples where no
  /// chain method has the property are recorded in the overflow bucket
  /// (index = chain length).
  Histogram FirstStop[NumChainStops];
  Histogram RecordedDepth;
};

} // namespace aoci

#endif // AOCI_PROFILE_TRACESTATISTICS_H
