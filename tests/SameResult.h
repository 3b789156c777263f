//===- tests/SameResult.h - Field-by-field RunResult equality ---*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#ifndef AOCI_TESTS_SAMERESULT_H
#define AOCI_TESTS_SAMERESULT_H

#include "harness/Experiment.h"

#include <gtest/gtest.h>

namespace aoci {

/// Expects \p A and \p B to agree on everything a RunResult measures: the
/// run's identity, every counter of runCounters(), and the fields outside
/// that table.
inline void expectSameResult(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.WorkloadName, B.WorkloadName);
  EXPECT_EQ(A.Policy, B.Policy);
  EXPECT_EQ(A.MaxDepth, B.MaxDepth);
  for (const RunCounter &C : runCounters())
    EXPECT_EQ(A.*C.Field, B.*C.Field) << C.Column;
  for (unsigned C = 0; C != NumAosComponents; ++C)
    EXPECT_EQ(A.ComponentCycles[C], B.ComponentCycles[C]) << "component " << C;
  EXPECT_EQ(A.ProgramResult, B.ProgramResult);
  EXPECT_EQ(A.EstimateErrorPct, B.EstimateErrorPct);
  EXPECT_EQ(A.WarmStarted, B.WarmStarted);
  EXPECT_EQ(A.CapturedProfile, B.CapturedProfile);
  EXPECT_EQ(A.ClassesLoaded, B.ClassesLoaded);
  EXPECT_EQ(A.MethodsCompiled, B.MethodsCompiled);
  EXPECT_EQ(A.BytecodesCompiled, B.BytecodesCompiled);
  EXPECT_EQ(A.TraceStats.numSamples(), B.TraceStats.numSamples());
}

} // namespace aoci

#endif // AOCI_TESTS_SAMERESULT_H
