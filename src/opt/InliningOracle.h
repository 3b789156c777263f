//===- opt/InliningOracle.h - The inlining oracle ---------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Inlining Oracle of Section 3.1: the optimizing compiler consults
/// it for each call site to determine which callees, if any, should be
/// inlined. It applies the profile-free static heuristics (tiny/small
/// statically-bound inlining) and, where a profile-derived inlining rule
/// applies, the rule-driven decisions on top. With an empty rule set it
/// is the static heuristics alone. Context sensitivity is entirely a
/// property of the *rules* it is given — depth-1 rules make it the
/// paper's pre-existing context-insensitive policy module, deeper rules
/// make it context-sensitive via the Equation-3 partial-match query and
/// target-set intersection of Section 3.3.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_OPT_INLININGORACLE_H
#define AOCI_OPT_INLININGORACLE_H

#include "bytecode/ClassHierarchy.h"
#include "bytecode/Program.h"
#include "profile/InlineRules.h"

#include <vector>

namespace aoci {

/// Tunable limits of the inlining system (Section 3.1's "code space
/// expansion and inlining depth heuristics").
struct InlinerConfig {
  /// Maximum inline nesting depth for small statically-bound methods.
  unsigned MaxInlineDepth = 5;
  /// Tiny methods and profile-directed decisions may nest deeper, but
  /// never beyond this.
  unsigned HardMaxDepth = 8;
  /// Expansion cap: a compiled method may grow to at most
  /// RootUnits * MaxExpansionFactor + ExpansionSlackUnits units.
  double MaxExpansionFactor = 5.0;
  uint64_t ExpansionSlackUnits = 120;
  /// Absolute per-compilation unit cap, regardless of root size.
  uint64_t AbsoluteUnitCap = 2000;
  /// At a virtual site, at most this many targets are guard-inlined.
  unsigned MaxGuardedTargets = 2;
  /// A profile-directed target must hold at least this share of the
  /// applicable profile weight at its site; below it the site counts as
  /// too polymorphic (the imprecision the adaptive policy hunts).
  double MinTargetShare = 0.40;
};

/// One inlining recommendation for a call site.
struct InlineTargetDecision {
  MethodId Callee = InvalidMethodId;
  /// True when a runtime method-test guard is required.
  bool NeedsGuard = false;
  /// True when the decision came from profile rules (grants the budget
  /// exemption of Section 3.1's third bullet).
  bool ProfileDirected = false;
  /// Profile weight, for guard ordering (hottest first).
  double Weight = 0;
};

/// Everything the oracle may consult about one call site.
struct OracleQuery {
  /// Method body containing the call site (the root method or an inlined
  /// callee).
  MethodId Enclosing = InvalidMethodId;
  BytecodeIndex Site = 0;
  /// The invoke instruction itself.
  Instruction Call;
  /// Compilation context, innermost-first; element 0 is
  /// (Enclosing, Site) and deeper elements are the inline chain back to
  /// the root being compiled.
  std::vector<ContextPair> CompilationContext;
  /// Current inline nesting depth (0 at the root's own sites).
  unsigned Depth = 0;
};

/// The oracle the compiler consults per call site: static heuristics
/// plus rule-driven decisions with Equation-3 partial matching and
/// target-set intersection.
class InliningOracle {
public:
  /// \p Rules must outlive the oracle and may be refreshed between
  /// compilations (the AI organizer rebuilds it on each wakeup).
  InliningOracle(const Program &P, const ClassHierarchy &CH,
                 const InlineRuleSet &Rules,
                 InlinerConfig Config = InlinerConfig())
      : P(P), CH(CH), Rules(Rules), Config(Config) {}

  /// Returns the targets to inline at \p Query's site, ordered by
  /// decreasing desirability (guard order). An empty result leaves the
  /// site as an ordinary call. The plan builder applies budget checks on
  /// top of these recommendations.
  ///
  /// When \p RejectedTargets is non-null, the oracle appends every target
  /// an applicable *rule* recommended but the oracle declined (empty
  /// target-set intersection, low share, large callee). The compiler
  /// reports these to the AOS database as refusals so the missing-edge
  /// organizer stops re-recommending them.
  std::vector<InlineTargetDecision>
  decide(const OracleQuery &Query,
         std::vector<MethodId> *RejectedTargets = nullptr) const;

  const InlinerConfig &config() const { return Config; }

private:
  /// Static heuristics: tiny/small statically-bound inlining via
  /// class-hierarchy analysis. Returns at most one decision.
  std::vector<InlineTargetDecision>
  staticHeuristics(const OracleQuery &Query) const;

  const Program &P;
  const ClassHierarchy &CH;
  const InlineRuleSet &Rules;
  InlinerConfig Config;
};

} // namespace aoci

#endif // AOCI_OPT_INLININGORACLE_H
