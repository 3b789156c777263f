//===- workload/scenario/ScenarioSpec.cpp - Adversarial scenario DSL --------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "workload/scenario/ScenarioSpec.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace aoci;

const char *aoci::phaseShapeName(PhaseShape S) {
  switch (S) {
  case PhaseShape::Chain:
    return "chain";
  case PhaseShape::Fanout:
    return "fanout";
  case PhaseShape::Diamond:
    return "diamond";
  }
  return "<invalid>";
}

bool aoci::parsePhaseShape(const std::string &Name, PhaseShape &S) {
  for (PhaseShape Candidate :
       {PhaseShape::Chain, PhaseShape::Fanout, PhaseShape::Diamond})
    if (Name == phaseShapeName(Candidate)) {
      S = Candidate;
      return true;
    }
  return false;
}

PhaseSpec aoci::clampPhase(PhaseSpec P) {
  P.Iterations = std::clamp<uint64_t>(P.Iterations, 1, 500000);
  P.Depth = std::clamp(P.Depth, 1u, 6u);
  P.Megamorphism = std::clamp(P.Megamorphism, 1u, 8u);
  P.AllocBurst = std::min(P.AllocBurst, 64u);
  P.MethodChurn = std::min(P.MethodChurn, 32u);
  P.WorkUnits = std::clamp<uint64_t>(P.WorkUnits, 1, 500);
  return P;
}

ScenarioSpec aoci::clampScenario(ScenarioSpec S) {
  if (S.Phases.empty())
    S.Phases.push_back(PhaseSpec());
  for (PhaseSpec &P : S.Phases)
    P = clampPhase(P);
  return S;
}

namespace {

/// %.6g rendering shared with the trace exporter, so canonical bytes are
/// identical everywhere.
std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

} // namespace

std::string aoci::printScenario(const ScenarioSpec &S) {
  std::string Out = "scenario " + S.Name + "\n";
  if (S.HasExpectation) {
    const ScenarioExpectation &E = S.Expect;
    Out += formatString(
        "expect policy-a=%s depth-a=%u policy-b=%s depth-b=%u "
        "min-delta=%s scale=%s seed=%llu code-cache=%llu osr=%s\n",
        E.PolicyA.c_str(), E.DepthA, E.PolicyB.c_str(), E.DepthB,
        formatDouble(E.MinDeltaPct).c_str(), formatDouble(E.Scale).c_str(),
        static_cast<unsigned long long>(E.Seed),
        static_cast<unsigned long long>(E.CodeCacheBytes),
        E.Osr ? "on" : "off");
  }
  for (const PhaseSpec &P : S.Phases)
    Out += formatString(
        "phase iterations=%llu shape=%s depth=%u mega=%u alloc=%u "
        "churn=%u work=%llu\n",
        static_cast<unsigned long long>(P.Iterations),
        phaseShapeName(P.Shape), P.Depth, P.Megamorphism, P.AllocBurst,
        P.MethodChurn, static_cast<unsigned long long>(P.WorkUnits));
  return Out;
}

namespace {

/// Splits "key=value" tokens of one directive line.
bool splitKeyValues(std::stringstream &In,
                    std::vector<std::pair<std::string, std::string>> &Out,
                    std::string &Error) {
  std::string Token;
  while (In >> Token) {
    const size_t Eq = Token.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Token.size()) {
      Error = "expected key=value, got '" + Token + "'";
      return false;
    }
    Out.emplace_back(Token.substr(0, Eq), Token.substr(Eq + 1));
  }
  return true;
}

bool validName(const std::string &Name) {
  if (Name.empty())
    return false;
  for (char C : Name) {
    const bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '-' || C == '_';
    if (!Ok)
      return false;
  }
  return true;
}

} // namespace

bool aoci::parseScenario(const std::string &Text, ScenarioSpec &Spec,
                         std::string &Error) {
  ScenarioSpec S;
  S.Phases.clear();
  bool SawName = false;

  std::stringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (const size_t Hash = Line.find('#'); Hash != std::string::npos)
      Line.erase(Hash);
    std::stringstream LineIn(Line);
    std::string Directive;
    if (!(LineIn >> Directive))
      continue; // blank / comment-only line

    auto Fail = [&](const std::string &What) {
      Error = formatString("line %u: %s", LineNo, What.c_str());
      return false;
    };

    if (Directive == "scenario") {
      std::string Name, Extra;
      if (!(LineIn >> Name) || (LineIn >> Extra))
        return Fail("scenario takes exactly one name");
      if (!validName(Name))
        return Fail("scenario name must be [A-Za-z0-9_-]+, got '" + Name +
                    "'");
      S.Name = Name;
      SawName = true;
    } else if (Directive == "expect") {
      std::vector<std::pair<std::string, std::string>> KVs;
      std::string KvError;
      if (!splitKeyValues(LineIn, KVs, KvError))
        return Fail(KvError);
      ScenarioExpectation E;
      for (const auto &[Key, Value] : KVs) {
        bool Ok = true;
        if (Key == "policy-a")
          E.PolicyA = Value;
        else if (Key == "depth-a")
          Ok = parseUnsigned(Value, E.DepthA);
        else if (Key == "policy-b")
          E.PolicyB = Value;
        else if (Key == "depth-b")
          Ok = parseUnsigned(Value, E.DepthB);
        else if (Key == "min-delta")
          Ok = parseFinite(Value, E.MinDeltaPct);
        else if (Key == "scale") // a size multiplier, as `--scale` is
          Ok = parseFinite(Value, E.Scale) && E.Scale > 0;
        else if (Key == "seed")
          Ok = parseUnsigned(Value, E.Seed);
        else if (Key == "code-cache")
          Ok = parseUnsigned(Value, E.CodeCacheBytes);
        else if (Key == "osr") {
          if (Value == "on")
            E.Osr = true;
          else if (Value == "off")
            E.Osr = false;
          else
            Ok = false;
        } else
          return Fail("unknown expect key '" + Key + "'");
        if (!Ok)
          return Fail("bad value for expect key '" + Key + "': '" + Value +
                      "'");
      }
      S.HasExpectation = true;
      S.Expect = E;
    } else if (Directive == "phase") {
      std::vector<std::pair<std::string, std::string>> KVs;
      std::string KvError;
      if (!splitKeyValues(LineIn, KVs, KvError))
        return Fail(KvError);
      PhaseSpec P;
      for (const auto &[Key, Value] : KVs) {
        bool Ok = true;
        if (Key == "iterations")
          Ok = parseUnsigned(Value, P.Iterations);
        else if (Key == "shape")
          Ok = parsePhaseShape(Value, P.Shape);
        else if (Key == "depth")
          Ok = parseUnsigned(Value, P.Depth);
        else if (Key == "mega")
          Ok = parseUnsigned(Value, P.Megamorphism);
        else if (Key == "alloc")
          Ok = parseUnsigned(Value, P.AllocBurst);
        else if (Key == "churn")
          Ok = parseUnsigned(Value, P.MethodChurn);
        else if (Key == "work")
          Ok = parseUnsigned(Value, P.WorkUnits);
        else
          return Fail("unknown phase key '" + Key + "'");
        if (!Ok)
          return Fail("bad value for phase key '" + Key + "': '" + Value +
                      "'");
      }
      S.Phases.push_back(P);
    } else {
      return Fail("unknown directive '" + Directive + "'");
    }
  }

  if (!SawName) {
    Error = "missing 'scenario <name>' directive";
    return false;
  }
  if (S.Phases.empty()) {
    Error = "scenario '" + S.Name + "' has no phases";
    return false;
  }
  Spec = clampScenario(std::move(S));
  return true;
}

const std::vector<ScenarioSpec> &aoci::builtinScenarios() {
  static const std::vector<ScenarioSpec> Builtins = [] {
    std::vector<ScenarioSpec> All;

    // Megamorphic storm: one long phase saturating the receiver mix, so
    // every guarded inline body has seven siblings and fallbacks abound.
    {
      ScenarioSpec S;
      S.Name = "scn-megamorphic-storm";
      S.Phases = {PhaseSpec{6000, PhaseShape::Chain, 3, 8, 0, 0, 30}};
      All.push_back(clampScenario(std::move(S)));
    }

    // Phase flip: a monomorphic deep chain that the adaptive system
    // commits to, then a mid-run flip to a fanout with a wide receiver
    // mix — the decay organizer's worst case.
    {
      ScenarioSpec S;
      S.Name = "scn-phase-flip";
      S.Phases = {PhaseSpec{4000, PhaseShape::Chain, 4, 1, 0, 0, 30},
                  PhaseSpec{4000, PhaseShape::Fanout, 2, 6, 0, 0, 30}};
      All.push_back(clampScenario(std::move(S)));
    }

    // Allocation burst: a calm diamond phase, then the same shape
    // allocating 32 dropped objects per kernel call. At scale 1 that is
    // 3,200,256 bytes, under the default GC trigger (4,000,000), so no
    // pause lands unless a run lowers CostModel::GcTriggerBytes.
    {
      ScenarioSpec S;
      S.Name = "scn-alloc-burst";
      S.Phases = {PhaseSpec{2500, PhaseShape::Diamond, 3, 2, 0, 0, 25},
                  PhaseSpec{2500, PhaseShape::Diamond, 3, 2, 32, 0, 25}};
      All.push_back(clampScenario(std::move(S)));
    }

    // Cache churn: rotates through 32 distinct warm methods per
    // iteration; pair with --code-cache to force evict -> deopt ->
    // recompile-on-reentry cycles.
    {
      ScenarioSpec S;
      S.Name = "scn-cache-churn";
      S.Phases = {PhaseSpec{5000, PhaseShape::Fanout, 2, 4, 0, 32, 15}};
      All.push_back(clampScenario(std::move(S)));
    }

    return All;
  }();
  return Builtins;
}

const std::vector<std::string> &aoci::scenarioNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const ScenarioSpec &S : builtinScenarios())
      Out.push_back(S.Name);
    return Out;
  }();
  return Names;
}

const ScenarioSpec *aoci::findBuiltinScenario(const std::string &Name) {
  for (const ScenarioSpec &S : builtinScenarios())
    if (S.Name == Name)
      return &S;
  return nullptr;
}
