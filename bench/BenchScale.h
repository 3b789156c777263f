//===- bench/BenchScale.h - The gated studies' AOCI_SCALE knob --*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads the run-length scale the gated studies honor. A malformed value
/// ends the study with a diagnostic instead of running it at scale 0,
/// where a gate can pass without measuring anything.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_BENCH_BENCHSCALE_H
#define AOCI_BENCH_BENCHSCALE_H

#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>

namespace aoci {

/// AOCI_SCALE as a finite number above 0, or 1.0 when unset. Any other
/// value exits 2 with a diagnostic naming the variable, the same strict
/// rule as `aoci --scale`.
inline double benchScale() {
  const char *S = std::getenv("AOCI_SCALE");
  if (!S)
    return 1.0;
  double Scale = 0;
  if (!parseFinite(S, Scale) || Scale <= 0) {
    std::fprintf(stderr,
                 "AOCI_SCALE expects a finite number above 0, got '%s'\n", S);
    std::exit(2);
  }
  return Scale;
}

} // namespace aoci

#endif // AOCI_BENCH_BENCHSCALE_H
