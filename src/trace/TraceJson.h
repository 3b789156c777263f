//===- trace/TraceJson.h - Chrome trace-event JSON export --------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders TraceSink streams as Chrome trace-event JSON ("JSON Object
/// Format": one {"traceEvents": [...]} object), which Perfetto and
/// chrome://tracing load directly. One run becomes one process (pid);
/// track 0 ("VirtualMachine") and tracks 1..6 (the AosComponents) become
/// that process's named threads, so Figure 6's overhead breakdown reads
/// as a set of timeline tracks. `ts` is the simulated cycle (Perfetto
/// will label it microseconds; OBSERVABILITY.md states the unit mapping).
///
/// The export's contract is stated once, as one TraceKindContract row per
/// event kind (in TraceJson.cpp): its name, the tracks it may render on
/// and its named args in order. The exporter writes each event's args by
/// walking its row; writeTraceSchema() renders the rows as
/// docs/trace-event.schema.json, which tools/validate_trace.jq reads; and
/// TraceContractTest holds OBSERVABILITY.md's tables to the rows.
///
/// Output is byte-deterministic: metadata first (pid, then tid order),
/// then every event stable-sorted by (cycle, seq), with fixed integer and
/// %.6g floating formatting. The grid exporter takes runs in plan order,
/// so serial and --jobs N grids serialize identical bytes.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_TRACE_TRACEJSON_H
#define AOCI_TRACE_TRACEJSON_H

#include "trace/TraceSink.h"

#include <ostream>
#include <string>
#include <vector>

namespace aoci {

/// How an arg renders, which fixes its JSON type in the schema.
enum class TraceArgType : uint8_t {
  Int,    ///< A JSON integer, at least Minimum.
  Float,  ///< A JSON number (%.6g), at least Minimum.
  Bool,   ///< true when the field is non-zero.
  Label,  ///< Labels[code], or "<invalid>" for a code past the labels.
  Method, ///< The captured qualified name, or "m<id>" when none was
          ///< captured; left out when the id is UINT32_MAX.
  OptionalMethod, ///< A Method arg the schema does not require.
};

/// The TraceEvent member an arg reads: the integer slots, then the
/// floating ones (X..Z), which only Float args read.
enum class TraceField : uint8_t { Method, Thread, A, B, C, D, E, X, Y, Z };

/// The Minimum of an Int arg that may be negative.
constexpr int64_t NoMinimum = INT64_MIN;

struct TraceArgContract {
  /// The JSON key; nullptr ends a kind's args.
  const char *Key = nullptr;
  TraceArgType Type = TraceArgType::Int;
  TraceField Field = TraceField::A;
  /// Int and Float args: the smallest value the schema allows.
  int64_t Minimum = 0;
  /// Label args: the labels of codes 0, 1, ...
  const char *Labels[4] = {};
};

struct TraceKindContract {
  TraceEventKind Kind;
  /// The JSON `name` and `--trace-filter` token.
  const char *Name;
  /// The tracks (tids) the kind may render on, one bit per track.
  uint8_t Tracks;
  TraceArgContract Args[7];
};

/// The contract row of \p K.
const TraceKindContract &traceKindContract(TraceEventKind K);

/// One traced run in a multi-process export: a sink plus the
/// `process_name` Perfetto shows for it (e.g. "compress/ContextSensitive").
struct TraceProcess {
  const TraceSink *Sink = nullptr;
  std::string Name;
};

/// Writes the runs in \p Procs (pid = index, in the given order) as one
/// Chrome trace-event JSON object. Deterministic byte-for-byte for a
/// given sequence of (sink contents, name).
void writeChromeTrace(std::ostream &OS, const std::vector<TraceProcess> &Procs);

/// Single-run convenience wrapper (pid 0).
void writeChromeTrace(std::ostream &OS, const TraceSink &Sink,
                      const std::string &ProcessName);

/// Writes the JSON Schema of the export: the envelope and metadata events,
/// then each kind's tracks and args from its contract row. Its output is
/// the checked-in docs/trace-event.schema.json.
void writeTraceSchema(std::ostream &OS);

/// JSON-escapes \p S (quotes, backslashes, control characters).
std::string jsonEscape(const std::string &S);

} // namespace aoci

#endif // AOCI_TRACE_TRACEJSON_H
