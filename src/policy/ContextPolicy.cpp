//===- policy/ContextPolicy.cpp - Context-sensitivity policies ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "policy/ContextPolicy.h"

#include "bytecode/SizeClass.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace aoci;

namespace {

constexpr uint8_t stopBit(ChainStop S) {
  return static_cast<uint8_t>(1u << static_cast<unsigned>(S));
}

/// One policy kind: everything that tells the kinds apart.
struct PolicyRow {
  PolicyKind Kind;
  /// Figure-style name; the CLI's --policy value.
  const char *Name;
  /// The depth cap of every policy of this kind, whatever cap was
  /// requested; 0 takes the requested cap.
  unsigned FixedDepth;
  /// stopBit() of each chain property the walk ends at.
  uint8_t Stops;
  /// Caps each sample at its innermost call site's ImprecisionTable depth.
  bool SiteDepths;
};

constexpr uint8_t Param = stopBit(ChainStop::Parameterless);
constexpr uint8_t Class = stopBit(ChainStop::ClassMethod);
constexpr uint8_t Large = stopBit(ChainStop::Large);

/// Every policy kind, in PolicyKind (figure) order.
constexpr PolicyRow PolicyTable[] = {
    // {Kind, Name, FixedDepth, Stops, SiteDepths}
    {PolicyKind::ContextInsensitive,  "cins",        1, 0,             false},
    {PolicyKind::Fixed,               "fixed",       0, 0,             false},
    {PolicyKind::Parameterless,       "paramLess",   0, Param,         false},
    {PolicyKind::ClassMethods,        "class",       0, Class,         false},
    {PolicyKind::LargeMethods,        "large",       0, Large,         false},
    {PolicyKind::HybridParamClass,    "hybrid1",     0, Param | Class, false},
    {PolicyKind::HybridParamLarge,    "hybrid2",     0, Param | Large, false},
    {PolicyKind::AdaptiveImprecision, "imprecision", 0, 0,             true},
};

static_assert(
    [] {
      for (unsigned I = 0; I != std::size(PolicyTable); ++I)
        if (PolicyTable[I].Kind != static_cast<PolicyKind>(I))
          return false;
      return std::size(PolicyTable) ==
             static_cast<unsigned>(PolicyKind::AdaptiveImprecision) + 1;
    }(),
    "PolicyTable row i must describe PolicyKind i");

const PolicyRow &row(PolicyKind K) {
  return PolicyTable[static_cast<unsigned>(K)];
}

/// True when method \p M has any of the chain properties in \p Stops.
bool hasAnyStop(const Program &P, MethodId M, uint8_t Stops) {
  for (unsigned S = 0; S != NumChainStops; ++S)
    if ((Stops & stopBit(static_cast<ChainStop>(S))) &&
        isChainStop(P, M, static_cast<ChainStop>(S)))
      return true;
  return false;
}

} // namespace

bool aoci::isChainStop(const Program &P, MethodId M, ChainStop Stop) {
  const Method &Meth = P.method(M);
  switch (Stop) {
  case ChainStop::Parameterless:
    return Meth.isParameterless();
  case ChainStop::ClassMethod:
    return Meth.Kind == MethodKind::Static;
  case ChainStop::Large:
    return classifyMethod(Meth) == SizeClass::Large;
  }
  return false;
}

const std::vector<PolicyKind> &aoci::allPolicyKinds() {
  static const std::vector<PolicyKind> Kinds = [] {
    std::vector<PolicyKind> All;
    for (const PolicyRow &R : PolicyTable)
      All.push_back(R.Kind);
    return All;
  }();
  return Kinds;
}

const char *aoci::policyKindName(PolicyKind K) { return row(K).Name; }

bool aoci::parsePolicyKind(const std::string &Name, PolicyKind &K) {
  for (const PolicyRow &R : PolicyTable)
    if (Name == R.Name) {
      K = R.Kind;
      return true;
    }
  return false;
}

ContextPolicy::ContextPolicy(PolicyKind Kind, unsigned MaxDepth)
    : Kind(Kind), MaxDepth(row(Kind).FixedDepth ? row(Kind).FixedDepth
                                                : std::max(1u, MaxDepth)) {}

std::string ContextPolicy::name() const {
  const PolicyRow &R = row(Kind);
  if (R.FixedDepth)
    return R.Name;
  return formatString("%s(max=%u)", R.Name, MaxDepth);
}

ImprecisionTable *ContextPolicy::imprecisionTable() {
  return row(Kind).SiteDepths ? &Table : nullptr;
}

unsigned ContextPolicy::traceDepth(const Program &P,
                                   const std::vector<MethodId> &Chain,
                                   BytecodeIndex InnermostSite) const {
  assert(Chain.size() >= 2 && "a sample needs a callee and one caller");
  const PolicyRow &R = row(Kind);
  const unsigned Available = static_cast<unsigned>(Chain.size()) - 1;
  unsigned Cap = std::min(MaxDepth, Available);

  // Per-site depth limit (adaptive imprecision) applies on top of the cap.
  if (R.SiteDepths)
    Cap = std::min(Cap,
                   std::max(1u, Table.depthFor(Chain[1], InnermostSite)));

  // Early-termination walk: the first chain method with a stop property.
  for (unsigned I = 0; R.Stops != 0 && I <= Cap && I < Chain.size(); ++I)
    if (hasAnyStop(P, Chain[I], R.Stops))
      return std::max(1u, std::min(I, Cap));
  return Cap;
}

//===----------------------------------------------------------------------===//
// ImprecisionTable
//===----------------------------------------------------------------------===//

unsigned ImprecisionTable::depthFor(MethodId Caller,
                                    BytecodeIndex Site) const {
  auto It = Entries.find(key(Caller, Site));
  if (It == Entries.end())
    return 1;
  const Entry &E = It->second;
  return E.GaveUp ? 1 : E.Depth;
}

unsigned ImprecisionTable::raise(MethodId Caller, BytecodeIndex Site,
                                 unsigned MaxDepth, unsigned GiveUpAfter) {
  Entry &E = Entries[key(Caller, Site)];
  if (E.GaveUp || E.Resolved)
    return E.GaveUp ? 1 : E.Depth;
  if (E.Raises >= GiveUpAfter) {
    // Burned every raise without resolving: the site is inherently too
    // polymorphic, so stop paying for context it cannot use.
    E.GaveUp = true;
    return 1;
  }
  if (E.Depth >= MaxDepth) {
    // Hit the depth cap with raises to spare: the context collected so
    // far is still useful, so freeze at the cap instead of discarding it.
    E.Resolved = true;
    return E.Depth;
  }
  ++E.Raises;
  ++E.Depth;
  return E.Depth;
}

void ImprecisionTable::markResolved(MethodId Caller, BytecodeIndex Site) {
  Entry &E = Entries[key(Caller, Site)];
  if (!E.GaveUp)
    E.Resolved = true;
}

bool ImprecisionTable::gaveUp(MethodId Caller, BytecodeIndex Site) const {
  auto It = Entries.find(key(Caller, Site));
  return It != Entries.end() && It->second.GaveUp;
}

bool ImprecisionTable::isResolved(MethodId Caller, BytecodeIndex Site) const {
  auto It = Entries.find(key(Caller, Site));
  return It != Entries.end() && It->second.Resolved;
}

std::unique_ptr<ContextPolicy> aoci::makePolicy(PolicyKind K,
                                                unsigned MaxDepth) {
  return std::make_unique<ContextPolicy>(K, MaxDepth);
}
