//===- trace/TraceEvent.h - Typed AOS trace events ---------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event taxonomy of the observability subsystem: everything the
/// adaptive loop does between a timer sample and an installed inline plan
/// is representable as one fixed-size TraceEvent keyed to the simulated
/// clock. The JSON export (trace/TraceJson.h) names each kind's args and
/// the slot each reads in one contract row; OBSERVABILITY.md documents it.
///
/// Events are plain data on purpose: the sink appends them with no
/// formatting, allocation, or clock charge, and the export layer turns
/// them into named JSON arguments by walking the kind's contract row.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_TRACE_TRACEEVENT_H
#define AOCI_TRACE_TRACEEVENT_H

#include <cstdint>
#include <string>

namespace aoci {

/// Every event type the instrumentation emits. The names returned by
/// traceEventKindName() are the `name` field of the exported JSON and the
/// vocabulary of `--trace-filter`.
enum class TraceEventKind : uint8_t {
  /// A delivered yieldpoint timer sample (prologue or loop backedge).
  Sample,
  /// A listener buffered one sample (method listener or trace listener).
  ListenerRecord,
  /// An organizer activation: method-sample, DCG/AI, decay, missing-edge.
  OrganizerWakeup,
  /// One controller cost/benefit evaluation, with the analytic model's
  /// inputs and the chosen level.
  ControllerDecision,
  /// A recompilation request entering the compilation queue.
  CompileRequest,
  /// A compilation finishing (baseline or optimizing); a duration event
  /// spanning the compile cycles.
  CompileComplete,
  /// An optimized code variant (with its inline plan) being installed.
  PlanInstall,
  /// One call site's inlining verdict within an installed plan.
  PlanSite,
  /// A call site where every inline guard failed (fallback dispatch).
  GuardFallback,
  /// An on-stack replacement: a live activation transferred onto a newly
  /// installed variant at a loop backedge.
  OsrEnter,
  /// An OSR-entered frame returning; carries the cycles it ran in the
  /// replacement code and the estimated cycles the transfer recovered.
  OsrExit,
  /// A deoptimization: a stale inlined frame group re-established on the
  /// baseline variants of its source methods.
  Deopt,
  /// The bounded code cache reclaiming a variant (capacity pressure).
  CodeEvict,
  /// A workload phase transition: the first baseline compilation of a
  /// phase-start marker method (see Program::markPhaseStart). Emitted
  /// uncharged by scenario workloads; the steady-state detector uses it
  /// to keep warmup from being declared over while phases still flip.
  PhaseShift,
  /// A persisted profile re-seeded the AOS state before the run
  /// (AdaptiveSystem::warmStart, the `--warm-start` flag): per-section
  /// applied counts plus the total dropped by stale-name resolution.
  /// Emitted uncharged, at most once per run, before the first sample.
  ProfileLoad,
  /// A compiled variant entering the process-wide shared code cache
  /// (serve mode, src/share/): the publishing session paid the full
  /// compile cost and made the plan available to other tenants.
  SharePublish,
  /// A shared-cache hit: the session found a published variant with the
  /// same (method, inline-plan fingerprint, level) key and charged only
  /// the install/link cost instead of a full compilation.
  ShareHit,
  /// A shared-cache eviction (capacity pressure on the shared index):
  /// the entry is tombstoned and every session that installed it deopts
  /// and rematerializes, exactly like a private code-cache eviction.
  ShareEvict,
  /// One pricing decision by the budget organizer (`--organizer budget`):
  /// a candidate callee priced against the caller's remaining size budget
  /// with measured units (from the AosDatabase compile ledger) or a
  /// calibrated estimate. Emitted uncharged from the AI-organizer track
  /// so budget and threshold runs stay cycle-comparable.
  BudgetDecision,
};

constexpr unsigned NumTraceEventKinds = 19;

/// Stable kebab-case names (JSON `name` field, `--trace-filter` tokens).
const char *traceEventKindName(TraceEventKind K);

/// Parses a traceEventKindName() string. Returns false on unknown names.
bool parseTraceEventKind(const std::string &Name, TraceEventKind &K);

/// Bitmask helpers for event-kind filters.
constexpr uint32_t traceKindBit(TraceEventKind K) {
  return 1u << static_cast<unsigned>(K);
}
constexpr uint32_t TraceAllKinds = (1u << NumTraceEventKinds) - 1;

/// The timeline a trace event renders on. Track 0 is the virtual machine
/// itself (samples, guard fallbacks, OSR); tracks 1..NumAosComponents map
/// to AosComponent c at track c+1, so Figure 6's component breakdown
/// becomes a set of named Perfetto tracks.
using TraceTrack = uint8_t;
constexpr TraceTrack TraceTrackVm = 0;
/// Number of component tracks (TraceJson.cpp asserts this matches
/// NumAosComponents; the trace library stays bytecode/vm-independent).
constexpr unsigned NumAosTraceTracks = 6;

/// Perfetto-visible name of \p Track ("VirtualMachine" or the
/// aosComponentName of the mapped component).
const char *traceTrackName(TraceTrack Track);

/// One recorded event. `Cycle` is the simulated clock at emission;
/// `Seq` is the per-sink monotonic sequence number that makes the stable
/// sort by (cycle, seq) — and therefore the exported byte stream — fully
/// deterministic. The A..E / X..Z payload slots are kind-specific; the
/// kind's row in trace/TraceJson.cpp says which arg reads each one.
struct TraceEvent {
  uint64_t Cycle = 0;
  uint64_t Seq = 0;
  /// Non-zero for the duration event (CompileComplete): the event spans
  /// [Cycle, Cycle + Dur).
  uint64_t Dur = 0;
  TraceEventKind Kind = TraceEventKind::Sample;
  TraceTrack Track = TraceTrackVm;
  /// Green-thread id for VM-side events; 0 elsewhere.
  uint32_t Thread = 0;
  /// Primary method (MethodId); UINT32_MAX when not applicable.
  uint32_t Method = UINT32_MAX;
  /// Kind-specific integer payload.
  int64_t A = 0, B = 0, C = 0, D = 0, E = 0;
  /// Kind-specific floating payload (controller cost/benefit inputs).
  double X = 0, Y = 0, Z = 0;
};

} // namespace aoci

#endif // AOCI_TRACE_TRACEEVENT_H
