//===- harness/SteadyState.h - Warmup/steady-phase detection ----*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits a finished run into warmup and steady phases by consuming its
/// trace stream. The adaptive system has reached steady state once the
/// compiler has gone quiet: no compilation completes (or is even
/// requested) after the split point, no workload phase shift happens
/// after it, and the decay/method organizers tick at a stable density
/// across the remaining windows. Everything is computed from the
/// uncharged trace stream, so detection never perturbs the run it
/// measures and the verdict is a pure function of the simulated event
/// stream — byte-deterministic like everything else in the harness.
///
/// Consumers: RunMetrics (steady/warmup/steady-cycle columns), `aoci
/// steady`, and `aoci claims` (harness/Claims.h), whose steady-state,
/// warm-start and budget rows gate on it in CI.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_STEADYSTATE_H
#define AOCI_HARNESS_STEADYSTATE_H

#include "trace/TraceSink.h"

#include <cstdint>
#include <string>

namespace aoci {

/// Detector knobs. Defaults fit runs a few million cycles long (scale
/// ~1); the detector degrades gracefully on shorter runs by reporting
/// "not reached" rather than guessing.
struct SteadyStateConfig {
  /// Windows the steady tail is cut into for the wakeup-density check.
  unsigned TailWindows = 8;
  /// Allowed per-window deviation from the mean wakeup count, as a
  /// fraction of the mean (plus one absolute wakeup of slack).
  double DensitySlack = 1.0;
  /// The steady tail must be at least this fraction of the run, or the
  /// run never settled.
  double MinSteadyFraction = 0.10;
};

/// The verdict for one run.
struct SteadyStateResult {
  /// False when the sink lacked the kinds detection needs (see
  /// steadyStateKindMask()); every other field is then meaningless.
  bool Computed = false;
  /// True when the run settled: compilation went quiet with a steady
  /// tail of at least MinSteadyFraction of the run and a stable
  /// organizer-wakeup density.
  bool Reached = false;
  /// Cycles before the split point (the whole run when not reached).
  uint64_t WarmupCycles = 0;
  /// Cycles from the split point to completion (0 when not reached).
  uint64_t SteadyCycles = 0;
  /// End cycle of the last compilation (enqueue-to-install), or 0.
  uint64_t LastCompileEndCycle = 0;
  /// Cycle of the last workload phase shift, or 0 when none was traced.
  uint64_t LastPhaseShiftCycle = 0;
  /// Organizer wakeups observed inside the steady tail.
  uint64_t TailWakeups = 0;
  /// One-line explanation of the verdict (stable wording; goldens match
  /// against it).
  std::string Why;
};

/// Trace kinds detection consumes. Runs whose sink mask does not cover
/// this set get Computed == false.
uint32_t steadyStateKindMask();

/// Computes the verdict for a finished run traced into \p Sink, whose
/// final VM clock was \p WallCycles.
SteadyStateResult detectSteadyState(const TraceSink &Sink,
                                    uint64_t WallCycles,
                                    const SteadyStateConfig &Config = {});

/// Renders \p R as stable `key: value` lines (golden-test friendly).
std::string formatSteadyState(const SteadyStateResult &R);

} // namespace aoci

#endif // AOCI_HARNESS_STEADYSTATE_H
