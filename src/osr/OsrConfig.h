//===- osr/OsrConfig.h - OSR subsystem tunables ------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration and counters of the on-stack replacement /
/// deoptimization subsystem. The cycle *costs* of transitions live in
/// vm/CostModel.h (OsrTransitionCycles, DeoptFrameCycles); this header
/// only decides whether the machinery runs at all.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_OSR_OSRCONFIG_H
#define AOCI_OSR_OSRCONFIG_H

#include <cstdint>

namespace aoci {

/// The OSR subsystem switch. Part of AosSystemConfig, so it flows through
/// RunConfig / GridConfig and the `--osr on|off` CLI flag.
struct OsrConfig {
  /// Master switch. Off by default: every pre-existing entry point and
  /// golden fixture reproduces the paper's "future invocations only"
  /// semantics byte for byte (see tests/OsrTest.cpp's differential).
  bool Enabled = false;
};

/// Activity counters, surfaced on RunResult and the `aoci
/// run` report.
struct OsrStats {
  /// Activations transferred onto a replacement variant at a backedge.
  uint64_t OsrEntries = 0;
  /// OSR-entered frames that have since returned.
  uint64_t OsrExits = 0;
  /// Deoptimizations (one per stale inlined frame *group*).
  uint64_t Deopts = 0;
  /// Source frames re-established on baseline variants by those deopts.
  uint64_t DeoptFramesRemapped = 0;
  /// Simulated cycles charged for all transitions (the cost side).
  uint64_t TransitionCyclesCharged = 0;
  /// Estimated cycles saved by running replacement code from the OSR
  /// point instead of the stale variant (the benefit side): for each
  /// closed OSR segment, cyclesInVariant * (cpuOld/cpuNew - 1).
  uint64_t CyclesRecoveredEstimate = 0;
};

} // namespace aoci

#endif // AOCI_OSR_OSRCONFIG_H
