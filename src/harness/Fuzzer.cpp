//===- harness/Fuzzer.cpp - Policy-differential fuzzer ----------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/Fuzzer.h"

#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "workload/scenario/ScenarioMutator.h"

#include <cmath>
#include <memory>
#include <set>

using namespace aoci;

std::string aoci::scenarioSearchKey(const ScenarioSpec &S) {
  ScenarioSpec Canon = S;
  Canon.Name.clear();
  Canon.Name += 'k';
  Canon.HasExpectation = false;
  Canon.Expect = ScenarioExpectation();
  return printScenario(Canon);
}

namespace {

/// Signed speedup % of policy A over policy B (B is the baseline;
/// positive = A faster). Each policy runs once on one shared build of
/// \p Spec, so the result is a pure function of (spec phases, params,
/// model, aos) — the spec's name and expect block never reach the VM.
double measureDelta(const FuzzConfig &Config, const ScenarioSpec &Spec,
                    uint64_t &RunsOut) {
  RunConfig RC;
  RC.WorkloadName = Spec.Name;
  RC.Scenario = std::make_shared<const ScenarioSpec>(Spec);
  RC.Params = Config.Params;
  RC.Model = Config.Model;
  RC.Aos = Config.Aos;
  const std::shared_ptr<const Workload> Program = buildWorkload(RC);
  auto Cycles = [&](PolicyKind Policy, unsigned Depth) {
    RC.Policy = Policy;
    RC.MaxDepth = Depth;
    Session S(RC, Program);
    S.run();
    return S.result().WallCycles;
  };
  const uint64_t A = Cycles(Config.PolicyA, Config.DepthA);
  const uint64_t B = Cycles(Config.PolicyB, Config.DepthB);
  RunsOut += 2;
  return speedupPercent(static_cast<double>(B), static_cast<double>(A));
}

/// The deterministic shrink candidate order. Every candidate is strictly
/// smaller than \p S under the lexicographic measure (phase count, then
/// per-phase knob sums, then shape ordinal), so greedy acceptance always
/// terminates.
std::vector<ScenarioSpec> shrinkCandidates(const ScenarioSpec &S) {
  std::vector<ScenarioSpec> Out;
  // 1. Drop a phase.
  if (S.Phases.size() > 1)
    for (size_t At = 0; At != S.Phases.size(); ++At) {
      ScenarioSpec C = S;
      C.Phases.erase(C.Phases.begin() + At);
      Out.push_back(std::move(C));
    }
  // 2..7. Halve / decrement one knob of one phase.
  for (size_t At = 0; At != S.Phases.size(); ++At) {
    const PhaseSpec &P = S.Phases[At];
    auto Push = [&](const std::function<void(PhaseSpec &)> &Edit) {
      ScenarioSpec C = S;
      Edit(C.Phases[At]);
      C = clampScenario(std::move(C));
      if (!(C == S))
        Out.push_back(std::move(C));
    };
    if (P.Iterations > 1)
      Push([](PhaseSpec &Q) { Q.Iterations /= 2; });
    if (P.WorkUnits > 1)
      Push([](PhaseSpec &Q) { Q.WorkUnits /= 2; });
    if (P.Megamorphism > 1)
      Push([](PhaseSpec &Q) { Q.Megamorphism /= 2; });
    if (P.Depth > 1)
      Push([](PhaseSpec &Q) { Q.Depth -= 1; });
    if (P.AllocBurst > 0)
      Push([](PhaseSpec &Q) { Q.AllocBurst /= 2; });
    if (P.MethodChurn > 0)
      Push([](PhaseSpec &Q) { Q.MethodChurn /= 2; });
    if (P.Shape != PhaseShape::Chain)
      Push([](PhaseSpec &Q) { Q.Shape = PhaseShape::Chain; });
  }
  return Out;
}

/// Greedy first-improvement shrink preserving the differential's sign
/// and keeping it above threshold.
ScenarioSpec shrink(const FuzzConfig &Config, ScenarioSpec Cur,
                    double &CurDelta, unsigned &CandidatesSpent,
                    uint64_t &RunsOut) {
  const bool Positive = CurDelta > 0;
  bool Improved = true;
  while (Improved && CandidatesSpent < Config.ShrinkBudget) {
    Improved = false;
    for (ScenarioSpec &C : shrinkCandidates(Cur)) {
      if (CandidatesSpent >= Config.ShrinkBudget)
        break;
      ++CandidatesSpent;
      const double D = measureDelta(Config, C, RunsOut);
      if ((D > 0) == Positive && std::abs(D) >= Config.ThresholdPct) {
        Cur = std::move(C);
        CurDelta = D;
        Improved = true;
        break;
      }
    }
  }
  return Cur;
}

} // namespace

double aoci::replayScenario(const ScenarioSpec &S) {
  FuzzConfig Config;
  const ScenarioExpectation &E = S.Expect;
  // Unknown policy names fall back to the defaults; callers that care
  // (the CLI, the replay test) validate the names first.
  parsePolicyKind(E.PolicyA, Config.PolicyA);
  parsePolicyKind(E.PolicyB, Config.PolicyB);
  Config.DepthA = E.DepthA;
  Config.DepthB = E.DepthB;
  Config.Params.Seed = E.Seed;
  Config.Params.Scale = E.Scale;
  Config.Model.CodeCache.CapacityBytes = E.CodeCacheBytes;
  Config.Aos.Osr.Enabled = E.Osr;
  uint64_t Runs = 0;
  return measureDelta(Config, S, Runs);
}

FuzzResults
aoci::runFuzz(const FuzzConfig &Config,
              const std::function<void(const std::string &)> &Progress) {
  FuzzResults Results;
  ScenarioMutator Mut(Config.Seed);
  Rng Pick(Config.Seed ^ 0xf0220000u);
  std::set<std::string> Seen;
  // The live population mutation draws parents from. Seeded with the
  // built-in adversaries so the search starts from known-interesting
  // structure rather than a cold default spec.
  std::vector<ScenarioSpec> Pool = builtinScenarios();

  unsigned Attempts = 0;
  while (Results.CandidatesTried < Config.Budget &&
         Results.Differentials.size() < Config.MaxDifferentials &&
         Attempts < 4 * Config.Budget) {
    ++Attempts;
    // The first |builtins| candidates are the builtins themselves, in
    // order; after that, mutate a random pool member.
    ScenarioSpec Candidate;
    if (Results.CandidatesTried < Pool.size() && Attempts <= Pool.size())
      Candidate = Pool[Results.CandidatesTried];
    else
      Candidate = Mut.mutate(Pool[Pick.nextBelow(Pool.size())]);
    const std::string Key = scenarioSearchKey(Candidate);
    if (!Seen.insert(Key).second)
      continue; // exact duplicate; costs an attempt, not budget
    ++Results.CandidatesTried;
    const double Delta = measureDelta(Config, Candidate, Results.TotalRuns);
    if (Progress)
      Progress(formatString("candidate %u/%u: %-24s delta %+.2f%%",
                            Results.CandidatesTried, Config.Budget,
                            Candidate.Name.c_str(), Delta));
    // Interesting candidates join the pool either way; near-threshold
    // specs are good mutation parents.
    if (Pool.size() < 32)
      Pool.push_back(Candidate);
    else
      Pool[Pick.nextBelow(Pool.size())] = Candidate;
    if (std::abs(Delta) < Config.ThresholdPct)
      continue;

    FuzzDifferential Diff;
    Diff.Original = Candidate;
    Diff.OriginalDeltaPct = Delta;
    double ShrunkDelta = Delta;
    unsigned Spent = 0;
    ScenarioSpec Shrunk =
        shrink(Config, Candidate, ShrunkDelta, Spent, Results.TotalRuns);
    Diff.ShrinkRuns = Spent;
    Shrunk.Name =
        formatString("diff-%u",
                     static_cast<unsigned>(Results.Differentials.size()));
    Shrunk.HasExpectation = true;
    Shrunk.Expect.PolicyA = policyKindName(Config.PolicyA);
    Shrunk.Expect.DepthA = Config.DepthA;
    Shrunk.Expect.PolicyB = policyKindName(Config.PolicyB);
    Shrunk.Expect.DepthB = Config.DepthB;
    Shrunk.Expect.MinDeltaPct = ShrunkDelta;
    Shrunk.Expect.Scale = Config.Params.Scale;
    Shrunk.Expect.Seed = Config.Params.Seed;
    Shrunk.Expect.CodeCacheBytes = Config.Model.CodeCache.CapacityBytes;
    Shrunk.Expect.Osr = Config.Aos.Osr.Enabled;
    Diff.Spec = Shrunk;
    Diff.DeltaPct = ShrunkDelta;
    // A differential that shrinks into an already-reported spec is the
    // same root cause; keep only the first. Shrunk keys also join Seen
    // so the search never re-trips on the minimal form itself.
    Seen.insert(scenarioSearchKey(Shrunk));
    bool Duplicate = false;
    for (const FuzzDifferential &Prev : Results.Differentials)
      if (scenarioSearchKey(Prev.Spec) == scenarioSearchKey(Shrunk))
        Duplicate = true;
    if (Duplicate)
      continue;
    if (Progress)
      Progress(formatString(
          "differential: %s %+.2f%% (was %+.2f%%, %u shrink candidates)",
          Shrunk.Name.c_str(), ShrunkDelta, Delta, Spent));
    Results.Differentials.push_back(std::move(Diff));
  }
  return Results;
}
