//===- vm/CodeVariant.h - One compiled version of a method ------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CodeVariant is the simulation's stand-in for a blob of machine code:
/// the method it implements, the optimization level, the inline plan, and
/// the size/compile-cost ledger entries the experiments aggregate.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_VM_CODEVARIANT_H
#define AOCI_VM_CODEVARIANT_H

#include "vm/CostModel.h"
#include "vm/InlinePlan.h"

namespace aoci {

class Program;

/// One compiled version of one method. Old variants stay alive for the
/// duration of a run because extant activations keep executing them after
/// a recompilation installs a replacement — the same discipline Jikes RVM
/// follows.
struct CodeVariant {
  MethodId M = InvalidMethodId;
  OptLevel Level = OptLevel::Baseline;
  InlinePlan Plan;
  /// Machine-size units of the generated code (root body + inlined
  /// bodies + guards).
  uint64_t MachineUnits = 0;
  /// Generated code bytes — the quantity Figure 5 tracks.
  uint64_t CodeBytes = 0;
  /// Cycles the compiler spent producing this variant.
  uint64_t CompileCycles = 0;
  /// VM clock value at installation time.
  uint64_t CompiledAtCycle = 0;
  /// Monotonic per-method recompilation counter (0 = first compile).
  unsigned SerialNumber = 0;
  /// Global installation sequence number (0 = first install in the run).
  /// Eviction tie-break key: install order is pure simulated state.
  unsigned InstallSeq = 0;
  /// VM clock at the most recent physical invocation (or OSR/deopt
  /// retarget) of this variant; the bounded cache's LRU key. Mutable
  /// because stamping an invocation does not change what the code *is*.
  mutable uint64_t LastUsedCycle = 0;
  /// True when this variant is mapped from the process-wide shared code
  /// cache (serve mode, src/share/): either it was installed as a
  /// shared-cache hit, or this session published it and the publish was
  /// accepted into the shared index. Shared-vs-private code-byte
  /// accounting keys off this flag. Mutable for the same reason as
  /// LastUsedCycle: the publish barrier tags an already-installed
  /// variant without changing what the code is.
  mutable bool SharedIn = false;
  /// True once the bounded cache reclaimed this variant. The object stays
  /// owned by CodeManager (a tombstone) so any stale pointer into it is a
  /// detectable audit failure rather than a host use-after-free; only the
  /// byte ledgers and dispatch tables treat it as gone.
  bool Evicted = false;

  /// Builds every InlineNode's direct-mapped site index (root node over
  /// this method's body, case bodies over their callee's). Called once by
  /// CodeManager::install so the interpreter's per-call plan lookup is
  /// O(1) instead of a binary search.
  void indexPlanSites(const Program &P);
};

} // namespace aoci

#endif // AOCI_VM_CODEVARIANT_H
