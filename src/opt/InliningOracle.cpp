//===- opt/InliningOracle.cpp - The inlining oracle -----------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "opt/InliningOracle.h"

#include "opt/SizeEstimator.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace aoci;

std::vector<InlineTargetDecision>
InliningOracle::staticHeuristics(const OracleQuery &Query) const {
  std::vector<InlineTargetDecision> Out;
  const Instruction &Call = Query.Call;
  const MethodId DeclId = static_cast<MethodId>(Call.Operand);
  const Method &Decl = P.method(DeclId);

  MethodId Target = InvalidMethodId;
  bool NeedsGuard = false;

  if (Call.Op == Opcode::InvokeStatic || Call.Op == Opcode::InvokeSpecial) {
    if (Decl.IsAbstract)
      return Out;
    Target = DeclId;
  } else {
    // Virtual/interface: statically bindable only when class analysis /
    // CHA finds a single concrete implementation (Section 3.1).
    const MethodId Root = Decl.OverrideRoot;
    const std::span<const MethodId> Impls = CH.implementations(Root);
    if (Impls.size() != 1)
      return Out;
    Target = Impls.front();
    NeedsGuard = !CH.canBindWithoutGuard(Root, Target);
  }

  const SizeClass Class = siteSizeClass(P, Target, Call.ConstArgMask);
  // Tiny methods are unconditionally inlined when statically bound
  // without a guard; tiny-with-guard and small methods are inlined
  // subject to the budget heuristics; medium needs profile data; large
  // is never inlined.
  if (Class == SizeClass::Medium || Class == SizeClass::Large)
    return Out;

  InlineTargetDecision D;
  D.Callee = Target;
  D.NeedsGuard = NeedsGuard;
  D.ProfileDirected = false;
  D.Weight = 0;
  Out.push_back(D);
  return Out;
}

std::vector<InlineTargetDecision>
InliningOracle::decide(const OracleQuery &Query,
                       std::vector<MethodId> *RejectedTargets) const {
  std::vector<InlineTargetDecision> Static = staticHeuristics(Query);

  // Profile-directed candidates: Section 3.3's partial-match query
  // followed by target-set intersection over identical-context groups.
  std::vector<const InliningRule *> Applicable =
      Rules.applicableRules(Query.CompilationContext);

  if (Applicable.empty())
    return Static;

  std::map<std::vector<ContextPair>, std::vector<const InliningRule *>>
      Groups;
  for (const InliningRule *Rule : Applicable)
    Groups[Rule->T.Context].push_back(Rule);

  double TotalApplicableWeight = 0;
  std::map<MethodId, double> CandidateWeights;
  std::vector<MethodId> Intersection;
  bool First = true;
  for (const auto &[Ctx, GroupRules] : Groups) {
    (void)Ctx;
    std::vector<MethodId> Targets;
    for (const InliningRule *Rule : GroupRules) {
      Targets.push_back(Rule->T.Callee);
      TotalApplicableWeight += Rule->Weight;
      CandidateWeights[Rule->T.Callee] += Rule->Weight;
    }
    std::sort(Targets.begin(), Targets.end());
    Targets.erase(std::unique(Targets.begin(), Targets.end()),
                  Targets.end());
    if (First) {
      Intersection = std::move(Targets);
      First = false;
      continue;
    }
    std::vector<MethodId> Merged;
    std::set_intersection(Intersection.begin(), Intersection.end(),
                          Targets.begin(), Targets.end(),
                          std::back_inserter(Merged));
    Intersection = std::move(Merged);
  }

  const bool IsDispatched = Query.Call.Op == Opcode::InvokeVirtual ||
                            Query.Call.Op == Opcode::InvokeInterface;
  const MethodId Root = P.method(static_cast<MethodId>(Query.Call.Operand))
                            .OverrideRoot;

  std::vector<InlineTargetDecision> Profile;
  for (MethodId Candidate : Intersection) {
    const Method &M = P.method(Candidate);
    if (M.IsAbstract)
      continue;
    // Large methods are never inlined (Section 3.1).
    if (siteSizeClass(P, Candidate, Query.Call.ConstArgMask) ==
        SizeClass::Large)
      continue;
    const double Share =
        TotalApplicableWeight > 0
            ? CandidateWeights[Candidate] / TotalApplicableWeight
            : 0;
    // Below the share floor the site is too polymorphic for this target:
    // guard-inlining it would mostly miss (the imprecision the adaptive
    // policy of Section 4.3 targets).
    if (Share < Config.MinTargetShare)
      continue;
    InlineTargetDecision D;
    D.Callee = Candidate;
    D.ProfileDirected = true;
    D.Weight = CandidateWeights[Candidate];
    D.NeedsGuard =
        IsDispatched && !CH.canBindWithoutGuard(Root, Candidate);
    Profile.push_back(D);
  }

  // Hottest first: guards are tested in this order at runtime, so this
  // minimizes guard tests before the correct inlined target is found.
  std::sort(Profile.begin(), Profile.end(),
            [](const InlineTargetDecision &A, const InlineTargetDecision &B) {
              if (A.Weight != B.Weight)
                return A.Weight > B.Weight;
              return A.Callee < B.Callee;
            });
  if (Profile.size() > Config.MaxGuardedTargets)
    Profile.resize(Config.MaxGuardedTargets);

  // Merge: profile decisions subsume a static decision for the same
  // target (they additionally carry the budget exemption); a static
  // decision for a target the profile does not cover is kept.
  for (const InlineTargetDecision &S : Static) {
    bool Covered = false;
    for (const InlineTargetDecision &D : Profile)
      if (D.Callee == S.Callee)
        Covered = true;
    if (!Covered)
      Profile.push_back(S);
  }

  // An unguarded decision always matches at runtime, so it must stand
  // alone; prefer it if present.
  std::vector<InlineTargetDecision> Final = Profile;
  for (const InlineTargetDecision &D : Profile) {
    if (!D.NeedsGuard) {
      Final = {D};
      break;
    }
  }

  // Report rule-recommended targets the oracle declined, so the compiler
  // can record them as refusals in the AOS database.
  if (RejectedTargets) {
    for (const auto &[Candidate, Weight] : CandidateWeights) {
      (void)Weight;
      bool Accepted = false;
      for (const InlineTargetDecision &D : Final)
        if (D.Callee == Candidate)
          Accepted = true;
      if (!Accepted)
        RejectedTargets->push_back(Candidate);
    }
  }
  return Final;
}
