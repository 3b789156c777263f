//===- harness/Fuzzer.h - Policy-differential fuzzer -------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `aoci fuzz` engine: a seeded search over ScenarioSpecs for policy
/// differentials — scenarios where inlining policy A beats policy B (or
/// vice versa) by more than a threshold percentage of simulated cycles.
/// Each differential found is shrunk to a minimal reproducer (greedy
/// first-improvement over a fixed candidate order) and rendered as a
/// replayable `.scn` spec whose `expect` block records the configuration
/// and the observed delta.
///
/// The whole search is a pure function of FuzzConfig: same seed and
/// budget, same differentials, same shrunk bytes. That is what lets CI
/// run a bounded fuzz job against the checked-in corpus and fail only on
/// *new* findings.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_FUZZER_H
#define AOCI_HARNESS_FUZZER_H

#include "harness/Experiment.h"
#include "workload/scenario/ScenarioSpec.h"

#include <functional>
#include <string>
#include <vector>

namespace aoci {

/// Fuzz campaign configuration.
struct FuzzConfig {
  FuzzConfig() {
    // Fold the OSR and bounded-code-cache axes into every campaign by
    // default: differentials that only appear when loops tier up
    // mid-iteration or when eviction forces recompilation are exactly
    // the ones a policy-vs-policy search should be exposed to. The
    // expect block records both knobs, so reproducers stay
    // self-contained; `--osr off` / `--code-cache 0` restore the
    // legacy axes.
    Aos.Osr.Enabled = true;
    Model.CodeCache.CapacityBytes = 6000;
  }

  /// Seeds the mutation stream and the search's pick order.
  uint64_t Seed = 1;
  /// Scenario executions to spend (each candidate costs two runs: one
  /// per policy; shrinking spends extra runs outside this budget, capped
  /// by ShrinkBudget per differential).
  unsigned Budget = 60;
  /// The two policies being differenced.
  PolicyKind PolicyA = PolicyKind::Fixed;
  unsigned DepthA = 4;
  PolicyKind PolicyB = PolicyKind::ContextInsensitive;
  unsigned DepthB = 1;
  /// Minimum |speedup %| of A over B (signed, B as baseline) to count as
  /// a differential.
  double ThresholdPct = 3.0;
  /// Workload knobs every candidate runs under (Scale directly controls
  /// fuzzing cost; CI uses a small scale).
  WorkloadParams Params{1, 0.05};
  /// Cost model and adaptive-system config. The constructor turns OSR
  /// on and bounds the code cache (see above).
  CostModel Model;
  AosSystemConfig Aos;
  /// Stop after this many distinct differentials.
  unsigned MaxDifferentials = 8;
  /// Scenario executions a single differential's shrink may spend.
  unsigned ShrinkBudget = 160;
};

/// One shrunk finding.
struct FuzzDifferential {
  /// Minimal reproducer; Name is "diff-<n>" and the expect block carries
  /// the policies, the observed delta, and the run knobs.
  ScenarioSpec Spec;
  /// Signed speedup % of A over B for the *shrunk* spec.
  double DeltaPct = 0;
  /// The spec the search originally tripped on (pre-shrink), for logs.
  ScenarioSpec Original;
  double OriginalDeltaPct = 0;
  /// Scenario executions the shrink spent.
  unsigned ShrinkRuns = 0;
};

/// Campaign results.
struct FuzzResults {
  std::vector<FuzzDifferential> Differentials;
  /// Candidates executed (pairs of runs), including shrink runs.
  unsigned CandidatesTried = 0;
  uint64_t TotalRuns = 0;
};

/// Runs a fuzz campaign. \p Progress (optional) receives a line per
/// candidate batch and per differential found.
FuzzResults
runFuzz(const FuzzConfig &Config,
        const std::function<void(const std::string &)> &Progress = nullptr);

/// Key under which two specs count as the same finding: the canonical
/// print with the name and expectation stripped, so renames and
/// bookkeeping do not duplicate corpus entries.
std::string scenarioSearchKey(const ScenarioSpec &S);

/// Replays one `.scn` reproducer: runs its expect block's two policies
/// and returns the signed delta (A over B). Used by `aoci fuzz --known`
/// and ScenarioReplayTest.
double replayScenario(const ScenarioSpec &S);

} // namespace aoci

#endif // AOCI_HARNESS_FUZZER_H
