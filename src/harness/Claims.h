//===- harness/Claims.h - The reproduction's claims, checked ----*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `aoci claims`: one table of every claim the reproduction makes, each
/// checked against a fresh measurement. A claim is a paper number (the
/// abstract, Table 1, Section 4, Figure 6), a design ablation, or a gate
/// of one of the extensions (steady state, warm start, serve mode, the
/// budget organizer). Each row fixes its own workload scale.
///
/// Studies measure and rows read: a study runs what its rows need once
/// (one traced grid feeds the abstract, Table 1, Figure 6 and the
/// steady-state rows) and records one value per row id. A row then
/// compares that value with its bound and prints the margin, the slack
/// to the bound, so a gate that barely passes shows it.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_CLAIMS_H
#define AOCI_HARNESS_CLAIMS_H

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace aoci {

/// How a row's value is compared with its bound.
enum class Comparator {
  AtLeast, ///< value >= Bound
  Above,   ///< value > Bound
  AtMost,  ///< value <= Bound
  Below,   ///< value < Bound
  Within,  ///< Bound <= value <= Bound2
  Pinned,  ///< |value - Bound| <= Bound2 (the tolerance)
};

/// What a row asserts about the paper.
enum class ClaimStatus {
  /// The value meets a bound drawn from the paper's claim or the gate.
  Reproduced,
  /// The value misses the paper; it is pinned at what this reproduction
  /// measures, within a tolerance small enough that the row cannot drift
  /// into agreeing with the paper unnoticed.
  KnownDeviation,
};

/// One row of the claims table.
struct Claim {
  const char *Id;
  /// Where the claim comes from: a paper figure or section, an
  /// extension, or a design ablation.
  const char *Source;
  /// What the study measures for this row.
  const char *Quantity;
  Comparator Cmp;
  /// The bound; Within's low end; Pinned's value.
  double Bound;
  /// Within's high end; Pinned's tolerance; unused otherwise.
  double Bound2;
  /// The paper's value as the paper states it ("-" when it has none).
  const char *Paper;
  ClaimStatus Status;
  /// "%" or "" (a count); and the digits printed after the point.
  const char *Unit;
  int Decimals;
};

/// A study's reading for one row, with an optional note naming what
/// produced it (the workload that set a maximum, those that lost a gate).
struct Measurement {
  double Value = 0;
  std::string Note;
};

/// Row id to its measurement.
using Measurements = std::map<std::string, Measurement>;

/// A row checked: the margin is the slack to the bound, positive inside
/// it. A row passes on a positive margin, or on a zero one when its
/// comparator includes the bound; an unmeasured row fails.
struct ClaimVerdict {
  bool Pass = false;
  double Margin = 0;
};

ClaimVerdict checkClaim(const Claim &C, std::optional<double> Value);

/// One leg of a time-to-steady-state comparison (harness/SteadyState.h).
struct SteadyLeg {
  bool Reached = false;
  uint64_t WarmupCycles = 0;
  uint64_t WallCycles = 0;
};

/// The censored-win rule: \p Challenger settles before \p Incumbent. It
/// must settle itself. When the incumbent never settles, its time to
/// steady state lies beyond its wall, so the challenger wins by settling
/// below that wall. Otherwise it must settle sooner, or as soon when
/// \p TiesWin.
bool settlesSooner(const SteadyLeg &Challenger, const SteadyLeg &Incumbent,
                   bool TiesWin);

/// One google-benchmark-shaped row for tools/check_bench_regression.py,
/// which compares a CI run's rows with the previous run's. The value is
/// a simulated quantity; lower is better unless \p HigherIsBetter.
struct DriftRow {
  std::string Name;
  uint64_t Value = 0;
  bool HigherIsBetter = false;
};

/// The checked table: its text, the `--json` document (the drift rows
/// under "benchmarks", the checked rows under "claims") and whether
/// every row passed.
struct ClaimsReport {
  std::string Text;
  std::string Json;
  bool Pass = true;
};

/// Checks every row of \p Claims against \p Measured.
ClaimsReport reportClaims(const std::vector<Claim> &Claims,
                          const Measurements &Measured,
                          const std::vector<DriftRow> &Drift);

/// The reproduction's claims table.
const std::vector<Claim> &claimsTable();

/// Runs every study on one worker per hardware thread and checks
/// claimsTable(). The report's bytes are the same for every thread count.
/// \p Progress, when set, hears from the calling thread as each study
/// finishes.
ClaimsReport
runClaims(const std::function<void(const std::string &)> &Progress = nullptr);

} // namespace aoci

#endif // AOCI_HARNESS_CLAIMS_H
