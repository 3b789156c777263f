//===- workload/scenario/ScenarioSpec.h - Adversarial scenario DSL -*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adversarial scenario DSL. A ScenarioSpec is a small, fully
/// deterministic description of a phase-driven workload: each phase names
/// a call-graph shape, a receiver mix (megamorphism degree), an
/// allocation burst rate, and a method-churn rate, plus how long the
/// phase runs. Specs compile into ordinary Workloads (ScenarioWorkload.h)
/// and round-trip through a canonical line-oriented text form (`.scn`
/// files) so fuzz-found policy differentials can be checked in as
/// replayable reproducers.
///
/// The text form, one directive per line ('#' starts a comment):
///
///   scenario <name>
///   expect policy-a=<p> depth-a=<n> policy-b=<p> depth-b=<n>
///          min-delta=<pct> scale=<x> seed=<n> code-cache=<bytes>
///          osr=on|off                                  (single line)
///   phase iterations=<n> shape=chain|fanout|diamond depth=<n>
///         mega=<n> alloc=<n> churn=<n> work=<n>        (single line)
///
/// printScenario() emits the canonical form (fixed key order, %.6g
/// doubles); parseScenario() accepts it plus comments/blank lines, so
/// parse(print(S)) == S for every clamped spec.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_WORKLOAD_SCENARIO_SCENARIOSPEC_H
#define AOCI_WORKLOAD_SCENARIO_SCENARIOSPEC_H

#include <cstdint>
#include <string>
#include <vector>

namespace aoci {

/// Call-graph shape of one phase's hot kernel.
enum class PhaseShape : uint8_t {
  Chain,   ///< kernel -> link1 -> ... -> dispatch (one deep chain).
  Fanout,  ///< kernel -> leaf0..leaf{depth-1}, each with its own dispatch.
  Diamond, ///< kernel -> {left, right} -> join -> dispatch.
};

/// Stable lower-case shape names ("chain", "fanout", "diamond").
const char *phaseShapeName(PhaseShape S);

/// Parses a phaseShapeName() string. Returns false on unknown names.
bool parsePhaseShape(const std::string &Name, PhaseShape &S);

/// One phase of a scenario. All knobs are clamped (clampPhase) to the
/// ranges the compiler supports; the comments give the clamp range.
struct PhaseSpec {
  /// Main-loop iterations of this phase (scaled by WorkloadParams::Scale
  /// at compile time). Clamp [1, 500000].
  uint64_t Iterations = 2000;
  PhaseShape Shape = PhaseShape::Chain;
  /// Call-chain depth (Chain), leaf count (Fanout), or edge work depth
  /// (Diamond). Clamp [1, 6].
  unsigned Depth = 3;
  /// Receiver classes rotated through the virtual dispatch. 1 is
  /// monomorphic; 8 saturates the guard-inlining cases. Clamp [1, 8].
  unsigned Megamorphism = 1;
  /// Objects allocated (and dropped) per kernel invocation; each pays
  /// the allocation cost. Clamp [0, 64].
  unsigned AllocBurst = 0;
  /// Distinct straight-line methods rotated through per iteration; keeps
  /// a wide warm set alive, thrashing a bounded code cache. Clamp [0, 32].
  unsigned MethodChurn = 0;
  /// Work units charged along the hot kernel per call. Clamp [1, 500].
  uint64_t WorkUnits = 20;

  bool operator==(const PhaseSpec &) const = default;
};

/// The run configuration and verdict a checked-in reproducer replays:
/// "policy A beat policy B by MinDeltaPct% simulated cycles under these
/// knobs". Policies are stored as policyKindName() strings so the
/// workload library stays free of policy types.
struct ScenarioExpectation {
  std::string PolicyA = "fixed";
  unsigned DepthA = 4;
  std::string PolicyB = "cins";
  unsigned DepthB = 1;
  /// Signed differential recorded when the reproducer was found:
  /// positive means A was faster than B by that percentage.
  double MinDeltaPct = 0.0;
  double Scale = 1.0;
  uint64_t Seed = 1;
  /// Code-cache capacity the differential was found under (0 = unbounded).
  uint64_t CodeCacheBytes = 0;
  bool Osr = false;

  bool operator==(const ScenarioExpectation &) const = default;
};

/// A whole scenario: named, phased, optionally carrying the expectation
/// block a fuzz-found reproducer replays.
struct ScenarioSpec {
  std::string Name = "scenario";
  std::vector<PhaseSpec> Phases;
  bool HasExpectation = false;
  ScenarioExpectation Expect;

  bool operator==(const ScenarioSpec &) const = default;
};

/// Returns \p P with every knob clamped into its documented range.
PhaseSpec clampPhase(PhaseSpec P);

/// Clamps every phase; a spec with no phases gets one default phase.
ScenarioSpec clampScenario(ScenarioSpec S);

/// Canonical text form (see file comment). parseScenario() inverts it.
std::string printScenario(const ScenarioSpec &S);

/// Parses the text form. On failure returns false and describes the
/// offending line in \p Error. The result is clamped.
bool parseScenario(const std::string &Text, ScenarioSpec &Spec,
                   std::string &Error);

/// The built-in adversaries, in scenarioNames() order: megamorphic
/// storm, mid-run call-graph phase flip, allocation burst, and
/// cache-thrashing method churn (pair with --code-cache).
const std::vector<ScenarioSpec> &builtinScenarios();

/// Names of the built-in adversaries ("scn-..."); accepted everywhere a
/// workload name is (makeWorkload, aoci run/trace/grid).
const std::vector<std::string> &scenarioNames();

/// Built-in scenario by name, or null when \p Name is not one.
const ScenarioSpec *findBuiltinScenario(const std::string &Name);

} // namespace aoci

#endif // AOCI_WORKLOAD_SCENARIO_SCENARIOSPEC_H
