//===- trace/TraceSink.h - Per-run event sink --------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event sink the instrumentation writes into. One sink belongs to
/// exactly one run (one VirtualMachine + AdaptiveSystem); a parallel grid
/// gives every run its own sink, which is what makes tracing lock-free:
/// no two threads ever append to the same sink, and the grid merges the
/// per-run streams deterministically after the pool drains.
///
/// Storage is a ring of fixed-capacity chunks. Appending never moves
/// recorded events (chunks are stable), and when an optional event cap is
/// set the ring drops whole oldest chunks, keeping the most recent window
/// of the run (droppedEvents() reports the shortfall).
///
/// The cost contract, which OBSERVABILITY.md states as a guarantee:
/// emission charges *zero simulated cycles* — tracing on or off, enabled
/// or filtered, the VM clock, every counter, and every exported CSV byte
/// are identical. When no sink is attached the per-hook host cost is one
/// null-pointer test.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_TRACE_TRACESINK_H
#define AOCI_TRACE_TRACESINK_H

#include "trace/TraceEvent.h"

#include <deque>
#include <memory>
#include <vector>

namespace aoci {

/// Parses a comma-separated `--trace-filter` list ("sample,plan-site")
/// into a kind bitmask. Returns false and names the offender in \p Error
/// on an unknown token or an empty item. An empty list means "all kinds".
bool parseTraceFilter(const std::string &List, uint32_t &Mask,
                      std::string &Error);

/// Event sink for one run. Thread-confined by design (see file comment);
/// movable so the harness can hand a run's stream to its GridResults.
class TraceSink {
public:
  TraceSink() = default;
  TraceSink(TraceSink &&) = default;
  TraceSink &operator=(TraceSink &&) = default;
  TraceSink(const TraceSink &) = delete;
  TraceSink &operator=(const TraceSink &) = delete;

  /// Turns recording on, keeping only kinds in \p KindMask.
  void enable(uint32_t KindMask = TraceAllKinds) {
    Enabled = true;
    this->KindMask = KindMask;
  }
  void disable() { Enabled = false; }
  bool enabled() const { return Enabled; }
  uint32_t kindMask() const { return KindMask; }

  /// Caps the ring at roughly \p MaxEvents (rounded up to whole chunks);
  /// 0 means unbounded. When full, whole oldest chunks are dropped.
  void setCapacity(uint64_t MaxEvents) { this->MaxEvents = MaxEvents; }
  uint64_t capacity() const { return MaxEvents; }

  /// True when an event of kind \p K should be recorded. Instrumentation
  /// hooks test this before building the event payload.
  bool wants(TraceEventKind K) const {
    return Enabled && (KindMask & traceKindBit(K)) != 0;
  }

  /// Appends a new event stamped (Kind, Track, Cycle, next Seq) and
  /// returns it for payload assignment. Caller must have checked wants().
  TraceEvent &append(TraceEventKind Kind, TraceTrack Track, uint64_t Cycle);

  uint64_t numEvents() const { return NumEvents; }
  uint64_t droppedEvents() const { return Dropped; }

  /// Visits every retained event in emission order.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const Chunk &C : Chunks)
      for (uint32_t I = 0; I != C.Size; ++I)
        Visit(C.Events[I]);
  }

  /// The retained events, stable-sorted by (Cycle, Seq). Emission order
  /// already satisfies that ordering (the clock and Seq are monotonic),
  /// so this is the canonical merged stream the exporters serialize.
  std::vector<TraceEvent> sortedEvents() const;

  /// Drops all recorded events (settings are kept).
  void clear();

  /// Replaces this sink's recorded events (and name table, if \p Other
  /// captured one) with \p Other's, keeping this sink's settings. Used by
  /// runBestOf() to keep exactly the best trial's stream.
  void adoptEvents(TraceSink &&Other);

  //===--------------------------------------------------------------------===//
  // Method-name capture.
  //===--------------------------------------------------------------------===//

  /// Captures a MethodId -> qualified-name table so exports can render
  /// names after the run's Program is gone. \p NameOf is called for ids
  /// 0..NumMethods-1 (VirtualMachine::setTraceSink does this).
  template <typename Fn>
  void captureMethodNames(uint32_t NumMethods, Fn &&NameOf) {
    MethodNames.resize(NumMethods);
    for (uint32_t M = 0; M != NumMethods; ++M)
      MethodNames[M] = NameOf(M);
  }

  /// Qualified name of \p M, or "" when no table was captured / the id is
  /// out of range (exporters then fall back to "m<id>").
  const std::string &methodName(uint32_t M) const {
    static const std::string Empty;
    return M < MethodNames.size() ? MethodNames[M] : Empty;
  }

private:
  /// Chunked ring storage; chunk arrays never move once allocated.
  struct Chunk {
    std::unique_ptr<TraceEvent[]> Events;
    uint32_t Size = 0;
  };
  static constexpr uint32_t ChunkCapacity = 1024;

  bool Enabled = false;
  uint32_t KindMask = TraceAllKinds;
  uint64_t MaxEvents = 0;
  uint64_t NextSeq = 0;
  uint64_t NumEvents = 0;
  uint64_t Dropped = 0;
  std::deque<Chunk> Chunks;
  std::vector<std::string> MethodNames;
};

} // namespace aoci

#endif // AOCI_TRACE_TRACESINK_H
