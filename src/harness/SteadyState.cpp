//===- harness/SteadyState.cpp - Warmup/steady-phase detection --------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/SteadyState.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <vector>

using namespace aoci;

namespace {

/// Windows the steady tail is cut into for the wakeup-density check.
constexpr unsigned TailWindows = 8;
/// Allowed per-window deviation from the mean wakeup count, as a
/// fraction of the mean (plus one absolute wakeup of slack).
constexpr double DensitySlack = 1.0;
/// The steady tail must be at least this fraction of the run, or the run
/// never settled.
constexpr double MinSteadyFraction = 0.10;

} // namespace

uint32_t aoci::steadyStateKindMask() {
  return traceKindBit(TraceEventKind::CompileRequest) |
         traceKindBit(TraceEventKind::CompileComplete) |
         traceKindBit(TraceEventKind::OrganizerWakeup) |
         traceKindBit(TraceEventKind::PhaseShift);
}

SteadyStateResult aoci::detectSteadyState(const TraceSink &Sink,
                                          uint64_t WallCycles) {
  SteadyStateResult R;
  if (!Sink.enabled() ||
      (Sink.kindMask() & steadyStateKindMask()) != steadyStateKindMask()) {
    R.Why = "trace lacks steady-state kinds";
    return R;
  }
  R.Computed = true;
  R.WarmupCycles = WallCycles;

  // Split point: the last cycle at which the system was visibly still
  // adapting. Compilations count until they *finish* (Cycle + Dur);
  // requests count too, so a compile enqueued but dropped at shutdown
  // still blocks the verdict; a phase shift restarts warmup by
  // construction.
  uint64_t Split = 0;
  std::vector<uint64_t> Wakeups;
  Sink.forEach([&](const TraceEvent &E) {
    switch (E.Kind) {
    case TraceEventKind::CompileRequest:
      Split = std::max(Split, E.Cycle);
      break;
    case TraceEventKind::CompileComplete:
      R.LastCompileEndCycle =
          std::max<uint64_t>(R.LastCompileEndCycle, E.Cycle + E.Dur);
      Split = std::max(Split, R.LastCompileEndCycle);
      break;
    case TraceEventKind::PhaseShift:
      R.LastPhaseShiftCycle = std::max(R.LastPhaseShiftCycle, E.Cycle);
      Split = std::max(Split, E.Cycle);
      break;
    case TraceEventKind::OrganizerWakeup:
      Wakeups.push_back(E.Cycle);
      break;
    default:
      break;
    }
  });

  if (WallCycles == 0) {
    R.Why = "empty run";
    return R;
  }
  if (Split >= WallCycles) {
    R.Why = "compiler never went quiet";
    return R;
  }
  const uint64_t Tail = WallCycles - Split;
  if (static_cast<double>(Tail) <
      MinSteadyFraction * static_cast<double>(WallCycles)) {
    R.Why = "steady tail too short";
    R.WarmupCycles = Split;
    return R;
  }

  // Wakeup-density stability across the tail: after warmup the decay and
  // method organizers tick on fixed simulated periods, so their counts
  // per equal-width window should be near-uniform. A run still adapting
  // (bursty listener traffic, phase churn) shows lumpy windows.
  std::vector<uint64_t> PerWindow(TailWindows, 0);
  for (const uint64_t C : Wakeups) {
    if (C < Split)
      continue;
    ++R.TailWakeups;
    const uint64_t Offset = C - Split;
    unsigned W = static_cast<unsigned>(
        (static_cast<unsigned __int128>(Offset) * TailWindows) / Tail);
    if (W >= TailWindows)
      W = TailWindows - 1;
    ++PerWindow[W];
  }
  if (R.TailWakeups >= 2ull * TailWindows) {
    const double Mean = static_cast<double>(R.TailWakeups) / TailWindows;
    for (const uint64_t Count : PerWindow) {
      const double Dev =
          std::abs(static_cast<double>(Count) - Mean);
      if (Dev > DensitySlack * Mean + 1.0) {
        R.Why = "organizer wakeup density unstable";
        R.WarmupCycles = Split;
        return R;
      }
    }
  }

  R.Reached = true;
  R.WarmupCycles = Split;
  R.SteadyCycles = Tail;
  R.Why = "settled";
  return R;
}

std::string aoci::formatSteadyState(const SteadyStateResult &R) {
  std::string Out;
  Out += formatString("steady-state: %s\n",
                      !R.Computed ? "unknown" : R.Reached ? "yes" : "no");
  Out += formatString("why: %s\n", R.Why.c_str());
  Out += formatString("warmup-cycles: %llu\n",
                      static_cast<unsigned long long>(R.WarmupCycles));
  Out += formatString("steady-cycles: %llu\n",
                      static_cast<unsigned long long>(R.SteadyCycles));
  Out += formatString("last-compile-end: %llu\n",
                      static_cast<unsigned long long>(R.LastCompileEndCycle));
  Out += formatString("last-phase-shift: %llu\n",
                      static_cast<unsigned long long>(R.LastPhaseShiftCycle));
  Out += formatString("tail-wakeups: %llu\n",
                      static_cast<unsigned long long>(R.TailWakeups));
  return Out;
}
