//===- harness/Serve.h - Multi-session server mode --------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `aoci serve`: many concurrent VM sessions ("tenants" — workload
/// instances or scenario adversaries) against one process-wide
/// SharedCodeCache (src/share/). Sessions advance in fixed-size slices
/// of simulated cycles; a round runs one slice of every active session
/// (in parallel up to --jobs), then a single-threaded barrier merges
/// each session's share activity into the shared index in session-id
/// order and enforces the shared capacity. The schedule — session ids,
/// start rounds, slice size — fully determines every simulated outcome,
/// so the serve CSV and trace bytes are identical across --jobs.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_SERVE_H
#define AOCI_HARNESS_SERVE_H

#include "harness/Experiment.h"

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace aoci {

/// One entry of a `--tenants` list: \p Count sessions of workload (or
/// built-in scenario) \p Name.
struct ServeTenantSpec {
  std::string Name;
  unsigned Count = 1;

  bool operator==(const ServeTenantSpec &) const = default;
};

/// Parses a `--tenants` list: comma-separated `name` or `name:count`
/// items, where a name is a Table 1 workload or a built-in scenario
/// ("scn-..."). On failure returns false and describes the offending
/// item in \p Error. An empty list is an error (serve needs tenants).
bool parseTenantList(const std::string &List,
                     std::vector<ServeTenantSpec> &Out, std::string &Error);

/// Configuration of one serve invocation.
struct ServeConfig {
  /// The tenant mix, expanded in order into sessions 0..N-1.
  std::vector<ServeTenantSpec> Tenants;
  WorkloadParams Params;
  PolicyKind Policy = PolicyKind::Fixed;
  unsigned MaxDepth = 4;
  /// Per-session adaptive-system tunables. The constructor enables OSR:
  /// a shared eviction must be able to deoptimize live activations in
  /// every installing session, and without an OSR driver the private
  /// cache pins any live variant (VirtualMachine::prepareEviction).
  AosSystemConfig Aos;
  CostModel Model;
  /// Simulated cycles each session advances per round.
  uint64_t SliceCycles = 2000000;
  /// Rounds between consecutive session starts (session i starts at
  /// round i * StaggerRounds, computed in 64 bits). The default 1 lets
  /// each session's first compilations find what its predecessors
  /// already published; 0 starts everyone together (maximizing
  /// same-round duplicates). Rounds in which no started session is live
  /// are skipped, not run.
  unsigned StaggerRounds = 1;
  /// Master switch for the shared code cache (`--share-cache off`).
  /// Off, every session runs exactly as a solo runExperiment() would.
  bool ShareEnabled = true;
  /// Shared-index capacity in code bytes (0 = unbounded). Eviction
  /// tombstones the entry and force-evicts every installing session.
  uint64_t ShareCapacityBytes = 0;
  /// Record every session's event stream (see ServeResults::Traces).
  bool Trace = false;
  uint32_t TraceKindMask = TraceAllKinds;
  /// Warm-start every session from this profile (see RunConfig).
  std::shared_ptr<const ProfileData> WarmStart;

  ServeConfig() { Aos.Osr.Enabled = true; }
};

/// What one session did: its run's counters (a session is a Session, so
/// they are exactly a solo run's RunResult fields, its share counters
/// included) plus its place in the schedule.
struct ServeSessionResult : RunResult {
  unsigned SessionId = 0;
  std::string TenantName;
  bool IsScenario = false;
  uint64_t StartRound = 0;
  uint64_t RoundsRun = 0;
};

/// Results of one serve invocation: per-session rows plus the shared
/// index's aggregate ledger.
struct ServeResults {
  std::vector<ServeSessionResult> Sessions;
  /// Rounds the whole serve ran (last active round + 1).
  uint64_t Rounds = 0;
  /// Shared-cache aggregates (zero with sharing off).
  uint64_t SharePublishesAccepted = 0;
  uint64_t ShareDuplicatePublishes = 0;
  uint64_t ShareTotalHits = 0;
  uint64_t ShareEvictions = 0;
  uint64_t ShareLiveBytes = 0;
  uint64_t SharePeakBytes = 0;
  uint64_t ShareLiveEntries = 0;
  /// Per-session event streams in session-id order ("s<id>.<tenant>"),
  /// empty unless ServeConfig::Trace.
  std::vector<TraceSink> Traces;
  std::vector<std::string> TraceNames;

  /// Sum over sessions of \p Counter, a RunCounters.def field.
  uint64_t total(uint64_t RunResult::*Counter) const;
  /// Sum over sessions of optimizing-compile cycles actually charged.
  uint64_t totalCompileCyclesPaid() const {
    return total(&RunResult::OptCompileCycles);
  }
  /// Sum over sessions of cycles shared hits avoided charging.
  uint64_t totalCompileCyclesSaved() const {
    return total(&RunResult::ShareCyclesSaved);
  }
  /// Shared-cache hit rate over all optimizing compilations:
  /// hits / (hits + publish attempts). 0 when nothing compiled.
  double hitRate() const;
};

/// Runs the serve schedule on \p Jobs pool workers (0 selects the
/// hardware concurrency; 1 is fully serial). Simulated results — the
/// serve CSV, every session's trace stream, every counter above — are
/// byte-identical for every \p Jobs value; only host-side timing of the
/// optional \p Progress lines differs. Progress may be invoked from the
/// driver thread only (between rounds).
/// The sessions of one tenant name run on one shared build of its program.
/// Each session is freed at the round barrier where it finishes, and a
/// program with its tenant's last session.
ServeResults
runServe(const ServeConfig &Config, unsigned Jobs,
         const std::function<void(const std::string &)> &Progress = nullptr);

/// Renders per-session results as CSV (deterministic: no host times), one
/// row per session: its place in the schedule, then its counters and the
/// program's result.
std::string exportServeCsv(const ServeResults &Results);

/// Human-readable serve report: the per-session table plus the shared
/// index's ledger and the compile-cycles-saved summary.
std::string reportServe(const ServeResults &Results);

/// Writes every session's stream as one merged Chrome trace-event JSON
/// object (one process per session, in session-id order).
void exportServeTrace(std::ostream &OS, const ServeResults &Results);

} // namespace aoci

#endif // AOCI_HARNESS_SERVE_H
