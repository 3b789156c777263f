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
/// of the first parameterless method, the first class (static) method,
/// and the first large method, plus the depth actually recorded. These
/// distributions back the paper's claims (20% of callees immediately
/// parameterless; 50-80% of traces hit a parameterless call within five
/// levels; 50-80% hit a class method within two edges; ~half need four or
/// more edges to reach a large method), which `aoci claims` checks as
/// its `sec4.*` rows.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PROFILE_TRACESTATISTICS_H
#define AOCI_PROFILE_TRACESTATISTICS_H

#include "bytecode/Program.h"
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

  uint64_t numSamples() const { return Samples; }

  /// Fraction of samples whose callee (chain position 0) is
  /// parameterless — the paper reports ~20%.
  double calleeParameterlessFraction() const;

  /// Fraction of samples containing a parameterless method at chain
  /// position <= \p Position. Position 5 corresponds to the paper's
  /// "within five levels of call stack" (50-80%).
  double parameterlessWithin(unsigned Position) const {
    return FirstParameterless.cumulativeFractionAtOrBelow(Position);
  }

  /// Fraction of samples containing a class (static) method within
  /// \p Position chain levels — the paper reports 50-80% within two.
  double classMethodWithin(unsigned Position) const {
    return FirstClassMethod.cumulativeFractionAtOrBelow(Position);
  }

  /// Fraction of samples whose first large method appears at chain
  /// position >= \p Position — the paper reports ~50% at four or more.
  double largeMethodAtOrBeyond(unsigned Position) const {
    if (FirstLarge.total() == 0)
      return 0;
    return Position == 0
               ? 1.0
               : 1.0 - FirstLarge.cumulativeFractionAtOrBelow(Position - 1);
  }

  /// Distribution of recorded trace depths.
  const Histogram &recordedDepths() const { return RecordedDepth; }
  const Histogram &firstParameterless() const { return FirstParameterless; }
  const Histogram &firstClassMethod() const { return FirstClassMethod; }
  const Histogram &firstLarge() const { return FirstLarge; }

  /// Mean recorded depth.
  double meanRecordedDepth() const;

  void clear();

private:
  uint64_t Samples = 0;
  uint64_t CalleeParameterless = 0;
  /// Chain index of the first method with each property; samples where no
  /// chain method has the property are recorded in the overflow bucket
  /// (index = chain length).
  Histogram FirstParameterless;
  Histogram FirstClassMethod;
  Histogram FirstLarge;
  Histogram RecordedDepth;
};

} // namespace aoci

#endif // AOCI_PROFILE_TRACESTATISTICS_H
