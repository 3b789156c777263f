//===- policy/ContextPolicy.h - Context-sensitivity policies ----*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The context-sensitivity profiling policies of Section 4. A policy
/// controls how deep the trace listener walks the call stack when it
/// records a sample:
///
///  - a hard maximum depth (Section 4.2's fixed-level sensitivity), and
///  - the chain properties (ChainStop) where the walk ends early, tested
///    on the chain of methods [callee, caller1, caller2, ...] as the walk
///    proceeds (Section 4.3's adaptive policies), and
///  - an optional per-call-site depth limit (the "adaptively resolving
///    imprecisions" policy, which the paper describes but did not
///    implement; we implement it as the extension deliverable).
///
/// Each policy kind is one row of the table in ContextPolicy.cpp: its
/// figure-style name, fixed depth, stop properties and per-site limit.
///
/// Trace-depth convention: with the chain indexed callee = chain[0],
/// caller_i = chain[i], the recorded trace has depth
///   d = min(maxDepth, max(1, i*)),
/// where i* is the index of the first chain method with one of the
/// policy's stop properties (d = maxDepth when nothing stops). Rationale:
/// if chain[i] receives no state from above (parameterless / static) or
/// can never be inlined upward (large), callers beyond it cannot
/// influence behaviour at the sampled call, so pairs above (caller_i,
/// site_i) carry no information.
/// A depth-1 trace is always recorded — inlining needs at least the
/// direct (caller, callsite, callee) edge.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_POLICY_CONTEXTPOLICY_H
#define AOCI_POLICY_CONTEXTPOLICY_H

#include "bytecode/Program.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace aoci {

/// A chain property where Section 4.3's adaptive policies end the trace
/// walk, and whose first position in sampled chains Section 4 measures
/// (TraceStatistics).
enum class ChainStop : uint8_t {
  Parameterless, ///< Declares no parameters (the receiver does not count).
  ClassMethod,   ///< A class (static) method: it receives no receiver.
  Large,         ///< Large (>= 25x a call): never inlined into a caller.
};
constexpr unsigned NumChainStops = 3;

/// True when method \p M of \p P has property \p Stop.
bool isChainStop(const Program &P, MethodId M, ChainStop Stop);

/// The policies evaluated in Section 5, plus the unimplemented-in-paper
/// imprecision policy, in the order the paper's figures present them.
enum class PolicyKind : uint8_t {
  ContextInsensitive, ///< Jikes' existing depth-1 edge profiling.
  Fixed,              ///< Section 4.2 fixed-level sensitivity.
  Parameterless,      ///< Section 4.3 "Parameterless Methods".
  ClassMethods,       ///< Section 4.3 "Class Methods" (static methods).
  LargeMethods,       ///< Section 4.3 "Large Methods".
  HybridParamClass,   ///< Hybrid 1: Parameterless + Class Methods.
  HybridParamLarge,   ///< Hybrid 2: Parameterless + Large Methods.
  AdaptiveImprecision ///< Section 4.3 "Adaptively Resolving Imprecisions".
};

/// All policy kinds, in the order the paper's figures present them.
const std::vector<PolicyKind> &allPolicyKinds();

/// Figure-style short name, e.g. "paramLess": the CLI's --policy value.
const char *policyKindName(PolicyKind K);

/// Parses a policyKindName() string. Returns false on unknown names.
/// Shared by the CLI flag parsers and the scenario-expectation decoder.
bool parsePolicyKind(const std::string &Name, PolicyKind &K);

//===----------------------------------------------------------------------===//
// Adaptive imprecision resolution (the paper's proposed-but-unimplemented
// final policy, Section 4.3)
//===----------------------------------------------------------------------===//

/// Mutable table of per-call-site depth requests. Starts every site at
/// depth 1 (context-insensitive); the dynamic call graph organizer raises
/// the depth of polymorphic sites whose receiver distribution stays
/// unskewed, until either the imprecision resolves or the site is declared
/// inherently too polymorphic and abandoned.
class ImprecisionTable {
public:
  /// Current requested depth for (Caller, Site); 1 when never raised.
  unsigned depthFor(MethodId Caller, BytecodeIndex Site) const;

  /// Requests one more level of context for the site, up to \p MaxDepth.
  /// Reaching the depth cap with raises to spare freezes the site at
  /// \p MaxDepth (resolved): exhausting the budget is a statement about the
  /// profiler's patience, not about the site's polymorphism. Only after
  /// \p GiveUpAfter raises without resolution is the site declared
  /// inherently too polymorphic and abandoned (depth returns to 1).
  /// Returns the new depth.
  unsigned raise(MethodId Caller, BytecodeIndex Site, unsigned MaxDepth,
                 unsigned GiveUpAfter = 3);

  /// Marks the site resolved: its current depth is frozen.
  void markResolved(MethodId Caller, BytecodeIndex Site);

  bool gaveUp(MethodId Caller, BytecodeIndex Site) const;
  bool isResolved(MethodId Caller, BytecodeIndex Site) const;

  size_t numTrackedSites() const { return Entries.size(); }

private:
  struct Entry {
    unsigned Depth = 1;
    unsigned Raises = 0;
    bool GaveUp = false;
    bool Resolved = false;
  };
  static uint64_t key(MethodId Caller, BytecodeIndex Site) {
    return (static_cast<uint64_t>(Caller) << 32) | Site;
  }
  std::unordered_map<uint64_t, Entry> Entries;
};

//===----------------------------------------------------------------------===//
// ContextPolicy
//===----------------------------------------------------------------------===//

/// A context-sensitivity policy: one policy kind's row of the policy
/// table, with a depth cap.
class ContextPolicy {
public:
  /// A policy of kind \p Kind whose traces are at most \p MaxDepth pairs
  /// deep (at least 1; the context-insensitive kind is always 1).
  ContextPolicy(PolicyKind Kind, unsigned MaxDepth);

  /// The figure-style name with the depth cap, e.g. "fixed(max=4)"; the
  /// bare name for a kind whose depth is fixed.
  std::string name() const;

  /// Hard cap on trace depth (number of (caller, callsite) pairs).
  unsigned maxDepth() const { return MaxDepth; }

  /// The per-site depth table the dynamic call graph organizer raises
  /// for unskewed polymorphic sites; null unless the policy adapts
  /// per-site depths online (the imprecision kind).
  ImprecisionTable *imprecisionTable();

  /// Computes the trace depth for a sampled chain according to this
  /// policy. \p Chain holds [callee, caller1, caller2, ...]; its length is
  /// the number of available methods (>= 2 for a valid sample), and
  /// \p InnermostSite is the call-site index within caller1 (used by the
  /// per-site depth limit). The result is in
  /// [1, min(maxDepth, Chain.size() - 1)].
  unsigned traceDepth(const Program &P, const std::vector<MethodId> &Chain,
                      BytecodeIndex InnermostSite) const;

private:
  PolicyKind Kind;
  unsigned MaxDepth;
  /// Consulted only by a kind with per-site depths.
  ImprecisionTable Table;
};

/// Constructs a policy of kind \p K with depth cap \p MaxDepth.
std::unique_ptr<ContextPolicy> makePolicy(PolicyKind K, unsigned MaxDepth);

} // namespace aoci

#endif // AOCI_POLICY_CONTEXTPOLICY_H
