//===- perfbench/PerfBench.h - Workloads and passes ------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark invocation runs. A workload is a fixed list of ops
/// generated from the seed; a pass runs every op once, serially, on the
/// calling thread (a closed loop with one client). README.md says why
/// each workload was chosen and what each metric should move.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PERFBENCH_PERFBENCH_H
#define AOCI_PERFBENCH_PERFBENCH_H

#include "BenchStats.h"

#include "harness/Experiment.h"
#include "harness/Serve.h"

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { PaperGrid, ServeShared, CacheChurn };

/// One program the workload's ops run, and how to build it.
struct ProgramSpec {
  std::string Name;
  /// Set for scenario programs (built-in adversaries and their mutants).
  std::shared_ptr<const aoci::ScenarioSpec> Scenario;
  aoci::WorkloadParams Params;
};

/// Builds \p P's program, exactly as runExperiment and runServe do.
aoci::Workload buildProgram(const ProgramSpec &P);

struct BenchWorkload {
  WorkloadKind Kind = WorkloadKind::PaperGrid;
  std::string Name;
  /// paper-grid: the sweep runGrid runs.
  aoci::GridConfig Grid;
  /// serve-shared: the schedule runServe runs (with one job).
  aoci::ServeConfig Serve;
  /// paper-grid and cache-churn: one RunConfig per op, in op order (for
  /// paper-grid the order runGrid plans). serve-shared: one solo run of
  /// each tenant program under the serve configuration, for the traced
  /// pass's layer split.
  std::vector<aoci::RunConfig> Runs;
  /// Every distinct program the ops run, keyed by RunConfig::WorkloadName
  /// or serve tenant name.
  std::vector<ProgramSpec> Programs;
  /// Program result of each entry of Programs, computed before any timed
  /// op on a VM with no adaptive system (baseline code only).
  std::map<std::string, int64_t> Reference;
};

/// Generates workload \p Name from \p Seed; false for an unknown name.
bool makeBenchWorkload(const std::string &Name, uint64_t Seed,
                       BenchWorkload &Out);

/// Fills W.Reference by running every program without adaptive
/// optimization.
void computeReferences(BenchWorkload &W);

/// Fails op \p Op in \p Ledger unless \p Result is \p Program's
/// reference result.
void checkResult(const BenchWorkload &W, const std::string &Program,
                 int64_t Result, OpLedger &Ledger, size_t Op);

/// Host ns of process CPU time (every thread of the process) so far. It
/// leaves out time the host took the CPU away, which wall time counts.
double cpuNowNs();
/// Host ns of wall time (steady clock) so far.
double wallNowNs();

/// One timed op. For serve-shared, whose op is one session's slice of a
/// round, the round's times are split evenly over its slices.
struct OpSample {
  /// Process CPU ns: what every host-time metric is taken from.
  double Ns = 0;
  /// Wall ns, printed as a diagnostic.
  double WallNs = 0;
  /// Simulated cycles the op advanced (0 when unknown). For a serve
  /// slice the nominal ServeConfig::SliceCycles, which every slice but a
  /// session's last runs, up to the overshoot of its last instruction.
  double SimCycles = 0;
};

/// The modelled system's totals over one pass. Deterministic: every pass
/// of one seed, traced or not, must give the same totals.
struct PassTotals {
  uint64_t SimCycles = 0;
  uint64_t CodeBytes = 0;
  uint64_t OptCompileCycles = 0;

  bool operator==(const PassTotals &) const = default;
};

/// What one untraced pass measured.
struct PassResult {
  std::vector<OpSample> Ops;
  PassTotals Totals;
  /// serve-shared only: host CPU ns from the runServe call to its first
  /// Progress callback (session construction plus round 0).
  double SetupNs = 0;
  /// Simulated cycles run outside every timed op (serve-shared's round
  /// 0, which is set-up), so Totals.SimCycles minus this is what the ops
  /// simulated.
  uint64_t UntimedCycles = 0;
  /// serve-shared only: the shared index's ledger and the mean number of
  /// sessions active per round.
  aoci::ServeResults Serve;
  double ActiveMean = 0;
};

/// Each op's best time over the passes \p PassOps, which ran the same
/// ops in the same order. Passes cut short by a failure are skipped.
std::vector<OpSample>
bestOps(const std::vector<std::vector<OpSample>> &PassOps);

/// The op a serve session's wrong result fails: the first slice of its
/// last round (\p RoundFirstOp holds each round's first op index), or a
/// fresh op when that round ran no timed slice (round 0 is set-up).
size_t sliceOp(const std::vector<size_t> &RoundFirstOp, uint64_t LastRound,
               OpLedger &Ledger);

/// Runs every op of \p W once through the public harness entry points,
/// checking each op's program result against W.Reference into \p Ledger.
/// Throws std::runtime_error when the run cannot be measured at all.
PassResult runPass(const BenchWorkload &W, OpLedger &Ledger);

/// Layers whose self time the traced run splits each op into.
enum class Layer : unsigned {
  Harness,   ///< the op span itself: assembly and harvesting
  Workload,  ///< makeWorkload / makeScenarioWorkload
  VmSetup,   ///< VirtualMachine construction and addThread
  VmExec,    ///< VirtualMachine::run outside the sample sink
  CoreSetup, ///< policy and AdaptiveSystem construction
  Core,      ///< AdaptiveSystem::onSample outside compile and install
  Opt,       ///< up to CodeShareClient::onVariantCompiled
  Install,   ///< onVariantCompiled to onVariantInstalled
  Count
};
constexpr size_t NumLayers = static_cast<size_t>(Layer::Count);
const char *layerName(Layer L);

/// Deterministic per-pass counters the traced run harvests.
struct LayerCounts {
  uint64_t Bytecodes = 0;
  uint64_t Instructions = 0, Calls = 0, InlinedCalls = 0;
  uint64_t GuardTests = 0, GuardFallbacks = 0;
  uint64_t Samples = 0, AosCycles = 0, SimCycles = 0;
  uint64_t Compiles = 0, OptResident = 0, OptGenerated = 0;
  uint64_t Evictions = 0, Recompiles = 0, PeakCodeBytes = 0;
  uint64_t OsrEntries = 0, Deopts = 0;

  bool operator==(const LayerCounts &) const = default;
};

/// What traced passes measured.
struct TracedResult {
  /// Per traced op: wall ns of the op and of each layer's self time in it.
  std::vector<double> OpNs;
  std::array<std::vector<double>, NumLayers> SelfNs;
  /// Per traced pass, samples in op order comparable with the untraced
  /// passes' ops (same ops, same clock), for the tracing overhead.
  std::vector<std::vector<OpSample>> Comparable;
  /// Wall ns of each program build.
  std::vector<double> BuildNs;
  /// Install spans recorded (the denominator of vm.us_per_install).
  uint64_t Installs = 0;
  unsigned Passes = 0;
  /// Per pass; identical for every pass of one seed.
  LayerCounts Counts;
  PassTotals Totals;

  /// Appends another pass's samples (its Counts and Totals must match).
  void merge(TracedResult &&Other);
};

/// Runs one traced pass of \p W into \p Out (which must be empty),
/// checking program results like runPass. paper-grid and cache-churn run
/// every op assembled from the layers' public interfaces, with a span
/// around each call into a layer. runServe builds its sessions
/// internally, so serve-shared's traced pass is an untraced runServe
/// pass (its ops are the round spans, its counters ServeResults) plus
/// one such traced solo run of each tenant program, which gives the
/// layer split. Throws std::logic_error when a span nests wrongly.
void runTracedPass(const BenchWorkload &W, OpLedger &Ledger, TracedResult &Out);

/// The per-layer metrics from \p Traced, the untraced passes' median op
/// time \p UntracedP50Ns (each op its best over the passes; for the
/// tracing overhead) and an untraced pass \p Untraced (for the serve
/// ledger).
MetricValues layerMetrics(const TracedResult &Traced, double UntracedP50Ns,
                          const PassResult &Untraced);

/// Table of each layer's self time summed over the traced ops and its
/// share of their op time.
std::string describeSplit(const TracedResult &Traced);

} // namespace perfbench

#endif // AOCI_PERFBENCH_PERFBENCH_H
