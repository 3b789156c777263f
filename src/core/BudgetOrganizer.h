//===- core/BudgetOrganizer.h - Budget-driven inlining organizer -*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The budget-driven inlining organizer: an alternative to the paper's
/// fixed 1.5%-threshold AI organizer that expands candidate call trees
/// from the DCG under explicit size budgets, Truffle-style. Candidates
/// are priced with *measured* per-variant machine units fed back from
/// CodeManager installs (the AosDatabase measured-size ledger); the
/// static SizeEstimator is consulted only for never-compiled callees,
/// scaled by a SizeCalibration that tracks the estimator's observed
/// error. Two budgets bound expansion:
///
///  - the *inflation budget* caps each caller's accepted candidate units
///    at a multiple of the caller's own (measured or estimated) size;
///  - the *exploration budget* is a per-wakeup pool that only
///    estimate-priced (never-compiled) candidates draw from, bounding
///    how much speculative expansion rests on unvalidated estimates.
///
/// Selection is greedy by weight density (trace weight per priced unit)
/// with fully deterministic tie-breaks, so the rule set is a pure
/// function of the DCG, the ledger, and the configuration — the harness
/// determinism contract extends to this organizer unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_CORE_BUDGETORGANIZER_H
#define AOCI_CORE_BUDGETORGANIZER_H

#include "core/AosDatabase.h"
#include "opt/SizeEstimator.h"
#include "profile/DynamicCallGraph.h"
#include "profile/InlineRules.h"

#include <functional>

namespace aoci {

/// Budget parameters (the `--budget-*` CLI knobs).
struct BudgetOrganizerConfig {
  /// Per-caller budget = caller units × InflationFactor + SlackUnits.
  double InflationFactor = 2.5;
  /// Flat addition so tiny callers can still afford one real candidate.
  uint64_t SlackUnits = 80;
  /// Per-wakeup pool charged only by estimate-priced candidates.
  uint64_t ExplorationUnits = 600;
  /// Traces lighter than this never become candidates (noise floor,
  /// matching the threshold organizer's MinRuleWeight).
  double MinCandidateWeight = 1.5;
};

/// Outcome of one rebuild, for overhead accounting and RunResult.
struct BudgetRebuildStats {
  size_t Scanned = 0;           ///< DCG traces examined.
  uint64_t UnitsSpent = 0;      ///< Priced units of accepted candidates.
  unsigned CandidatesAccepted = 0;
  unsigned CandidatesPruned = 0; ///< Rejected by either budget.
};

/// The budget-driven inlining organizer. Drop-in peer of
/// AdaptiveInliningOrganizer: consumes the DCG, produces an
/// InlineRuleSet the oracle and missing-edge organizer consume as-is.
class BudgetInliningOrganizer {
public:
  explicit BudgetInliningOrganizer(
      BudgetOrganizerConfig Config = BudgetOrganizerConfig())
      : Config(Config) {}

  /// Per-candidate pricing-decision callback: the AdaptiveSystem emits an
  /// uncharged `budget-decision` trace event from it.
  using DecisionFn =
      std::function<void(MethodId Caller, MethodId Callee, uint64_t Units,
                         uint64_t Remaining, bool Accepted, bool Measured,
                         double Weight)>;

  /// Rebuilds \p Rules from \p Dcg under the budgets. \p Db supplies
  /// measured sizes; \p Calib scales estimates for never-compiled
  /// callees. Existing rules keep their CreatedAtCycle, exactly like the
  /// threshold organizer, so the missing-edge organizer's new-rule logic
  /// is organizer-agnostic.
  BudgetRebuildStats rebuildRules(const Program &P,
                                  const DynamicCallGraph &Dcg,
                                  const AosDatabase &Db,
                                  const SizeCalibration &Calib,
                                  uint64_t NowCycle, InlineRuleSet &Rules,
                                  const DecisionFn &OnDecision = nullptr) const;

  const BudgetOrganizerConfig &config() const { return Config; }

private:
  BudgetOrganizerConfig Config;
};

} // namespace aoci

#endif // AOCI_CORE_BUDGETORGANIZER_H
