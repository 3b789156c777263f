//===- harness/Experiment.h - Experiment runner ------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness behind every table and figure: one "run" is a
/// workload executed to completion inside a fresh VM with a fresh
/// adaptive system under one context-sensitivity policy (a Session); a
/// "grid" is the benchmark x policy x depth sweep the paper's Figures 4-6
/// plot, with the context-insensitive run of each workload as the
/// baseline.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_EXPERIMENT_H
#define AOCI_HARNESS_EXPERIMENT_H

#include "core/AdaptiveSystem.h"
#include "profile/TraceStatistics.h"
#include "share/SharedCodeCache.h"
#include "trace/TraceSink.h"
#include "workload/Workload.h"
#include "workload/scenario/ScenarioSpec.h"

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace aoci {

/// One experiment's configuration.
struct RunConfig {
  std::string WorkloadName = "compress";
  WorkloadParams Params;
  PolicyKind Policy = PolicyKind::ContextInsensitive;
  unsigned MaxDepth = 1;
  AosSystemConfig Aos;
  /// The VM cost model (tests and ablations override constants here;
  /// runBestOf varies its SampleJitterSeed per trial).
  CostModel Model;
  /// Enables the Section 4 chain instrumentation (uncharged tooling).
  bool CollectTraceStats = false;
  /// Observability: when non-null, the run's VM records its event stream
  /// into this sink (runBestOf keeps exactly the best trial's stream).
  /// Emission charges zero simulated cycles, so results are identical
  /// with or without a sink attached (see OBSERVABILITY.md).
  TraceSink *Trace = nullptr;
  /// When set, the run executes this ad-hoc scenario (compiled via
  /// makeScenarioWorkload) instead of looking WorkloadName up in the
  /// registry; WorkloadName is only used for reporting then. The spec's
  /// canonical bytes feed deriveRunSeed(), so two different specs never
  /// share a jitter stream. Shared (not owned) so RunConfigs stay
  /// cheaply copyable across grid plans and fuzz trials.
  std::shared_ptr<const ScenarioSpec> Scenario;
  /// Warm start (`--warm-start`): re-seed the adaptive system's state
  /// from this parsed profile (see profile/ProfileIo.h and
  /// docs/profile-format.md) before the first bytecode executes.
  /// Entries that fail to resolve against the run's program are dropped
  /// and counted in RunResult, never fatal. Null (the default) is the
  /// cold start every pre-existing golden was recorded under. Shared
  /// (not owned) so RunConfigs stay cheaply copyable; deriveRunSeed()
  /// deliberately does not mix it in, so warm and cold trials of one
  /// configuration see identical timer jitter.
  std::shared_ptr<const ProfileData> WarmStart;
  /// Snapshot the adaptive system's state into RunResult::CapturedProfile
  /// after the run (`--profile-out`). Pure post-run observation: the run
  /// itself is byte-identical with this on or off.
  bool CaptureProfile = false;
};

/// Everything measured in one run.
struct RunResult {
  std::string WorkloadName;
  PolicyKind Policy = PolicyKind::ContextInsensitive;
  unsigned MaxDepth = 1;

  /// The run's counters: one uint64_t field per line of RunCounters.def,
  /// which says what each counts. Only some reach the frozen grid CSV;
  /// runCounters() lists them all.
#define RUN_COUNTER(Field, Column, Unit, Read) uint64_t Field = 0;
#include "harness/RunCounters.def"

  /// Per-AOS-component cycles (Figure 6's basis).
  uint64_t ComponentCycles[NumAosComponents] = {0, 0, 0, 0, 0, 0};
  int64_t ProgramResult = 0;
  /// The size-estimator calibration's running mean absolute error, fed on
  /// every install regardless of organizer, so nonzero whenever anything
  /// compiled.
  double EstimateErrorPct = 0.0;
  /// True when RunConfig::WarmStart seeded the run.
  bool WarmStarted = false;
  /// The serialized v2 profile snapshot taken after the run when
  /// RunConfig::CaptureProfile is set; empty otherwise. runBestOf keeps
  /// the best trial's snapshot, matching every other reported field.
  std::string CapturedProfile;

  /// Table 1 characteristics: classes in the program, methods and
  /// bytecodes dynamically compiled (i.e. actually executed at least
  /// once and hence baseline-compiled).
  unsigned ClassesLoaded = 0;
  unsigned MethodsCompiled = 0;
  uint64_t BytecodesCompiled = 0;

  /// Section 4 statistics (populated when requested).
  TraceStatistics TraceStats;

  /// Fraction of wall cycles spent in AOS component \p C.
  double componentFraction(AosComponent C) const {
    if (WallCycles == 0)
      return 0;
    return static_cast<double>(
               ComponentCycles[static_cast<unsigned>(C)]) /
           static_cast<double>(WallCycles);
  }
};

/// One line of RunCounters.def: the counter's CSV column, what it counts,
/// and its RunResult field.
struct RunCounter {
  const char *Column;
  const char *Unit;
  uint64_t RunResult::*Field;
};

/// Every run counter, in RunCounters.def's order.
std::span<const RunCounter> runCounters();

/// The counter whose column is \p Column; throws std::invalid_argument
/// for a name the table lacks.
const RunCounter &runCounter(std::string_view Column);

/// Builds the program \p Config runs: its Scenario when set, else the
/// registry workload WorkloadName, under its Params. A built program is
/// immutable, so any number of Sessions may run on it at once, on any
/// threads.
std::shared_ptr<const Workload> buildWorkload(const RunConfig &Config);

/// One run, assembled the one way every run is: the workload, the VM, the
/// policy and the adaptive system, wired in a fixed order. The trace sink
/// goes on before the first thread, so lazy baseline compilations of the
/// entry methods are traced; trace statistics and the share client are set
/// before attach(); the warm start comes after attach(); the entry threads
/// are added last. runExperiment, every serve session and `aoci run` are a
/// Session.
class Session {
public:
  /// Builds the run \p Config describes, ready to run, on \p Program: a
  /// buildWorkload(Config) result the caller shares with other runs of the
  /// same program, or null to build one for this run alone. With \p Share,
  /// the run's optimizing compiles go through a ShareSession bridge to
  /// that shared code cache as serve-schedule position \p SessionId.
  explicit Session(const RunConfig &Config,
                   std::shared_ptr<const Workload> Program = nullptr,
                   SharedCodeCache *Share = nullptr, unsigned SessionId = 0);
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Runs until every thread finishes or the clock passes \p CycleLimit
  /// (serve advances a session one slice at a time).
  void run(uint64_t CycleLimit = UINT64_MAX) { VM.run(CycleLimit); }
  /// True once every thread has finished.
  bool finished() const;

  /// The run's counters as they stand (see RunResult).
  RunResult result() const;

  /// The live objects, for callers that report more than RunResult holds.
  const Workload &workload() const { return *W; }
  VirtualMachine &vm() { return VM; }
  AdaptiveSystem &aos() { return Aos; }
  const WarmStartStats &warmStart() const { return Warm; }
  /// The serve bridge; null without a shared cache.
  ShareSession *share() { return Bridge.get(); }

private:
  const RunConfig Config;
  std::shared_ptr<const Workload> W;
  VirtualMachine VM;
  std::unique_ptr<ContextPolicy> Policy;
  AdaptiveSystem Aos;
  std::unique_ptr<ShareSession> Bridge;
  WarmStartStats Warm;
};

/// Runs one experiment to completion.
RunResult runExperiment(const RunConfig &Config);

/// Derives the sampling-jitter seed for trial \p Trial of \p Config.
/// The seed is a pure function of the run's configuration (workload,
/// policy, depth, workload params, base jitter seed) and the trial
/// index — never of submission order, thread id, or grid position — so
/// a parallel sweep charges exactly the timer jitter a serial sweep
/// would. Trial 0 returns the configured seed unchanged, which keeps a
/// single-trial run identical to a bare runExperiment().
uint64_t deriveRunSeed(const RunConfig &Config, unsigned Trial);

/// Runs \p Trials experiments differing only in the sampling timer's
/// jitter seed (see deriveRunSeed) and returns the fastest (smallest
/// WallCycles) — the paper's "best run of 20" methodology, scaled
/// down. Trials must be at least 1. Every trial runs on \p Program (a
/// buildWorkload(Config) result), or on one build of its own when null.
RunResult runBestOf(const RunConfig &Config, unsigned Trials,
                    std::shared_ptr<const Workload> Program = nullptr);

/// Host-side execution record of one grid run: which run it was, the
/// worker that ran it, how long it queued and ran, and the steady-state
/// verdict of its trace. The run's counters are its RunResult
/// (GridResults::result()); simulated results are bit-identical across
/// thread counts, host timings never are. Exported with the RunResult
/// counters via exportMetricsCsv() / reportRunMetrics().
struct RunMetrics {
  std::string WorkloadName;
  PolicyKind Policy = PolicyKind::ContextInsensitive;
  unsigned MaxDepth = 1;
  /// True for the per-workload context-insensitive baseline run.
  bool IsBaseline = false;
  /// Pool worker that executed the run (0 in a serial sweep).
  unsigned Worker = 0;
  /// Host ns the run sat queued before a worker picked it up.
  uint64_t QueueLatencyNs = 0;
  /// Host ns spent executing the run (all trials).
  uint64_t HostNs = 0;
  /// Steady-state verdict for the best trial (see SteadyState.h). Known
  /// only when the run traced the kinds detection needs
  /// (steadyStateKindMask()); SteadyReached/Warmup/Steady are meaningful
  /// only when known. Appended to the metrics CSV as
  /// `steady,warmup_cycles,steady_cycles`.
  bool SteadyKnown = false;
  bool SteadyReached = false;
  uint64_t WarmupCycles = 0;
  uint64_t SteadyCycles = 0;
};

/// The benchmark x policy x depth sweep.
struct GridConfig {
  std::vector<std::string> Workloads;       ///< Default: all of Table 1.
  std::vector<PolicyKind> Policies;         ///< Default: the Figure 4 six.
  std::vector<unsigned> Depths = {2, 3, 4, 5}; ///< The paper's 2..5.
  WorkloadParams Params;
  AosSystemConfig Aos;
  /// The VM cost model every cell runs under, including the bounded
  /// code cache configuration (Model.CodeCache). Eviction order is a
  /// pure function of simulated state, so a capacity-limited sweep is
  /// still byte-identical between runGrid() and runGridParallel().
  CostModel Model;
  /// Trials per cell, taking the fastest (the paper used 20).
  unsigned Trials = 1;
  /// Observability: record every run's event stream (see traces() on
  /// GridResults). Off by default; simulated results and the grid CSV
  /// are byte-identical either way.
  bool Trace = false;
  /// Event kinds recorded when Trace is on (a parseTraceFilter() mask).
  uint32_t TraceKindMask = TraceAllKinds;
  /// Warm start every run of the sweep (baselines and cells) from this
  /// profile; see RunConfig::WarmStart. Serial and parallel sweeps stay
  /// byte-identical — warm-start application is simulated work, ordered
  /// before the first sample like everything else.
  std::shared_ptr<const ProfileData> WarmStart;
  /// Capture a post-run profile snapshot for every run of the sweep
  /// into RunResult::CapturedProfile (the grid `--profile-out DIR`
  /// path).
  bool CaptureProfile = false;

  GridConfig();
};

/// Optimized code size change % of \p Cell over \p Baseline (negative =
/// smaller), the Figure 5 quantity. Both GridResults::codeSizePercent and
/// the serial grid's progress lines use it.
double codeSizePercent(const RunResult &Baseline, const RunResult &Cell);

/// Results of a sweep: the per-workload cins baseline plus every cell.
class GridResults {
public:
  /// Baseline (context-insensitive) run for \p Workload.
  const RunResult &baseline(const std::string &Workload) const;

  /// Cell run; asserts it exists.
  const RunResult &cell(const std::string &Workload, PolicyKind Policy,
                        unsigned Depth) const;

  /// Wall-clock speedup % of a cell over its baseline (positive = faster),
  /// the Figure 4 quantity.
  double speedupPercent(const std::string &Workload, PolicyKind Policy,
                        unsigned Depth) const;

  /// Optimized code size change % over baseline (negative = smaller),
  /// the Figure 5 quantity.
  double codeSizePercent(const std::string &Workload, PolicyKind Policy,
                         unsigned Depth) const;

  /// Optimizing-compile-time change % over baseline.
  double compileTimePercent(const std::string &Workload, PolicyKind Policy,
                            unsigned Depth) const;

  /// The run \p M records: its workload's baseline or its cell.
  const RunResult &result(const RunMetrics &M) const {
    return M.IsBaseline ? baseline(M.WorkloadName)
                        : cell(M.WorkloadName, M.Policy, M.MaxDepth);
  }

  const std::vector<std::string> &workloads() const { return Workloads; }

  /// Host-side execution records, one per run, in grid order (per
  /// workload: baseline first, then policies x depths as configured).
  const std::vector<RunMetrics> &metrics() const { return Metrics; }

  /// Per-run event streams in plan order, with their display names
  /// ("workload/policy.dN"); empty unless the grid ran with
  /// GridConfig::Trace. Plan order is independent of the job count,
  /// which is what makes exportGridTrace() deterministic.
  const std::vector<TraceSink> &traces() const { return Traces; }
  const std::vector<std::string> &traceNames() const { return TraceNames; }

  void addBaseline(RunResult R);
  void addCell(RunResult R);
  void addMetrics(RunMetrics M) { Metrics.push_back(std::move(M)); }
  void addTrace(TraceSink T, std::string Name) {
    Traces.push_back(std::move(T));
    TraceNames.push_back(std::move(Name));
  }

private:
  using CellKey = std::tuple<std::string, uint8_t, unsigned>;
  std::vector<std::string> Workloads;
  std::map<std::string, RunResult> Baselines;
  std::map<CellKey, RunResult> Cells;
  std::vector<RunMetrics> Metrics;
  std::vector<TraceSink> Traces;
  std::vector<std::string> TraceNames;
};

/// Runs the whole sweep serially; \p Progress (if provided) is invoked
/// with a human-readable line after each completed run. A workload's
/// baseline and cells share one build of its program, dropped before the
/// next workload's is built.
GridResults
runGrid(const GridConfig &Config,
        const std::function<void(const std::string &)> &Progress = nullptr);

/// Runs the sweep on a pool of \p Jobs worker threads (0 selects
/// std::thread::hardware_concurrency). Each run executes in its own
/// fresh VM with a jitter seed derived from its configuration alone
/// (deriveRunSeed), so the returned GridResults — and hence
/// exportCsv()'s bytes — are identical to runGrid()'s for every thread
/// count; only metrics() (host timings, worker ids) and the
/// interleaving of Progress lines differ. Progress may be invoked from
/// worker threads, one call at a time (the runner serializes it). A
/// workload's runs share one build of its program: the first of them to
/// start builds it and the last to finish drops it, so at most one
/// program per workload with a run in flight is resident.
GridResults runGridParallel(
    const GridConfig &Config, unsigned Jobs,
    const std::function<void(const std::string &)> &Progress = nullptr);

/// Writes every traced grid run as one merged Chrome trace-event JSON
/// object (one process per run, in plan order). Byte-deterministic: a
/// serial sweep and a --jobs N sweep of the same grid produce identical
/// output. No-op content ({"traceEvents":[]}-equivalent) when the grid
/// ran without tracing.
void exportGridTrace(std::ostream &OS, const GridResults &Results);

} // namespace aoci

#endif // AOCI_HARNESS_EXPERIMENT_H
