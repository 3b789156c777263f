//===- vm/CodeManager.h - Installed-code registry ----------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns every CodeVariant ever installed and tracks the current variant
/// per method, along with the code-space and compile-time ledgers behind
/// Figures 5 and 6.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_VM_CODEMANAGER_H
#define AOCI_VM_CODEMANAGER_H

#include "bytecode/Program.h"
#include "vm/CodeVariant.h"

#include <functional>
#include <memory>
#include <vector>

namespace aoci {

class TraceSink;

/// The code cache's hook back into the execution engine, implemented by
/// VirtualMachine. Declared here (vm layer) so CodeManager can evict
/// without knowing about threads, frames, or the OSR subsystem: the
/// delegate answers "is this variant safe to reclaim?" and absorbs the
/// side effects (deopt, cycle charges).
class CodeEvictionDelegate {
public:
  virtual ~CodeEvictionDelegate() = default;

  /// Current simulated clock, used to timestamp code-evict trace events.
  virtual uint64_t evictionClock() const = 0;

  /// Charges \p Cycles of cache-reclaim work to the application thread.
  virtual void chargeEviction(uint64_t Cycles) = 0;

  /// Makes \p V safe to evict, deoptimizing live activations out of it if
  /// necessary. Returns false when the variant must stay (it is pinned by
  /// an activation that cannot be transferred) — the cache then tries a
  /// different victim.
  virtual bool prepareEviction(const CodeVariant &V) = 0;

  /// A variant was just installed (\p Where is "install") or evicted
  /// ("evict"). The engine dispatches through current(), so it keeps no
  /// code pointer to drop; it re-checks its own invariants under the
  /// auditor (support/Audit.h).
  virtual void onCodeChanged(const char *Where) = 0;
};

/// Registry of compiled code. By default installation never frees the
/// previous variant: activations suspended in it keep raw pointers into
/// it, and with OSR enabled (src/osr/) a live activation is transferred
/// onto the newly installed variant at its next loop backedge — otherwise
/// it simply runs the old code to completion and only future invocations
/// see the replacement.
///
/// With CostModel::CodeCache.CapacityBytes set, the registry becomes a
/// bounded code cache: whenever live bytes exceed capacity, victims are
/// evicted in deterministic (LastUsedCycle, InstallSeq) order — both keys
/// are simulated state, so serial and parallel grid runs evict
/// identically. Evicted variants stay owned as tombstones (Evicted flag)
/// so a stale pointer is an auditable bug, not a use-after-free; evicted
/// methods recompile on re-entry through VirtualMachine::ensureCompiled.
class CodeManager {
public:
  /// \p P must outlive the manager; install() consults it to build each
  /// variant's O(1) plan-site index. \p Model (copied) supplies the
  /// code-cache bound and the eviction cycle charges.
  explicit CodeManager(const Program &P, const CostModel &Model = CostModel())
      : P(P), Model(Model), Current(P.numMethods(), nullptr),
        Baseline(P.numMethods(), nullptr), InstallCount(P.numMethods(), 0),
        PendingRecompile(P.numMethods(), 0) {}

  /// Current variant for \p M, or null when the method has never been
  /// compiled.
  const CodeVariant *current(MethodId M) const { return Current[M]; }

  /// The baseline variant for \p M, or null when \p M was never
  /// baseline-compiled. Deoptimization re-establishes stale inlined
  /// frames on this variant (every physically entered method has one:
  /// ensureCompiled() baseline-compiles before any optimized install).
  const CodeVariant *baseline(MethodId M) const { return Baseline[M]; }

  /// Installs \p Variant as the current code for its method and records
  /// its size/compile cost in the ledgers. Returns the stable pointer.
  /// With a trace sink attached, emits the compile-complete /
  /// plan-install / plan-site events for the variant.
  const CodeVariant *install(std::unique_ptr<CodeVariant> Variant);

  /// Attaches the observability event sink (null detaches); normally
  /// forwarded from VirtualMachine::setTraceSink.
  void setTraceSink(TraceSink *T) { Trace = T; }

  /// Attaches the eviction delegate (VirtualMachine registers itself at
  /// construction). Without one the cache cannot prove liveness, so no
  /// variant is ever evicted — standalone CodeManager use stays safe.
  void setEvictionDelegate(CodeEvictionDelegate *D) { Delegate = D; }

  /// Advisory victim preference, e.g. the controller marking hot methods:
  /// variants whose method \p PreferKeep returns true for are evicted
  /// only when no other candidate can bring the cache under capacity, so
  /// the preference can never break the capacity bound (or determinism —
  /// the hook must be a pure function of simulated state).
  void setEvictPreference(std::function<bool(MethodId)> PreferKeep) {
    this->PreferKeep = std::move(PreferKeep);
  }

  /// The capacity/policy knob this manager was built with.
  const CodeCacheConfig &cacheConfig() const { return Model.CodeCache; }

  /// Cumulative bytes of *optimized* machine code generated over the run
  /// (baseline code excluded), including code made obsolete by later
  /// recompilations: what the optimizing compiler produced and paid for.
  uint64_t optimizedBytesGenerated() const { return OptBytesGenerated; }

  /// Bytes of optimized code currently installed (final variants only).
  /// This is the code-space measure behind Figure 5.
  uint64_t optimizedBytesResident() const;

  /// Bytes of machine code currently live — every non-evicted variant,
  /// baseline included. This is the quantity the bounded cache caps; it
  /// differs from optimizedBytesGenerated() (cumulative) and
  /// optimizedBytesResident() (current variants only) whenever eviction
  /// or recompilation has occurred.
  uint64_t liveCodeBytes() const { return LiveBytes; }

  /// High-water mark of liveCodeBytes(), taken at install boundaries
  /// outside eviction passes (so with a bounded cache it never exceeds
  /// the capacity).
  uint64_t peakCodeBytes() const { return PeakBytes; }

  /// Number of variants the bounded cache has evicted.
  uint64_t numEvictions() const { return Evictions; }

  /// Force-evicts \p V now, regardless of capacity — the cross-session
  /// path: when the process-wide shared cache (src/share/) evicts an
  /// entry, every session that installed it reclaims its mapping through
  /// here, reusing the exact prepareEviction/deopt/tombstone machinery of
  /// a capacity eviction. Returns false when the delegate reports the
  /// variant pinned (a live activation that cannot be transferred);
  /// returns true when it was reclaimed — or was already a tombstone.
  /// \p V must be owned by this manager.
  bool evictNow(const CodeVariant &V);

  /// Bytes of live code currently mapped from the shared cache (variants
  /// carrying CodeVariant::SharedIn) — the "shared" half of the
  /// per-tenant shared-vs-private code-byte split; the private half is
  /// liveCodeBytes() minus this.
  uint64_t sharedInBytesLive() const;

  /// Number of compilations that re-created code for a method whose every
  /// variant had been evicted — the recompile-on-re-entry cost of
  /// bounding the cache.
  uint64_t recompilesAfterEvict() const { return RecompilesAfterEvict; }

  /// Cumulative optimizing-compiler cycles (baseline excluded).
  uint64_t optCompileCycles() const { return OptCompileCyclesTotal; }

  /// Cumulative baseline-compiler cycles.
  uint64_t baselineCompileCycles() const { return BaseCompileCyclesTotal; }

  /// Number of compilations performed at \p Level.
  unsigned numCompiles(OptLevel Level) const {
    return NumCompiles[static_cast<unsigned>(Level)];
  }

  /// Every variant ever installed, in installation order.
  const std::vector<std::unique_ptr<CodeVariant>> &allVariants() const {
    return Variants;
  }

private:
  /// Evicts victims in deterministic order until live bytes fit the
  /// configured capacity (or every remaining candidate is pinned).
  /// \p JustInstalled is never a victim: evicting the code an install
  /// just produced would only thrash.
  void enforceCapacity(const CodeVariant *JustInstalled);

  /// Reclaims \p V: flips the tombstone flag, rewrites the ledgers and
  /// dispatch tables, charges EvictReclaimCycles, and emits the
  /// code-evict trace event.
  void evict(CodeVariant &V);

  /// Throws audit::AuditError when the byte ledgers disagree with the
  /// variant tombstone flags or a dispatch table points at evicted code.
  /// No-op unless auditing is enabled (support/Audit.h).
  void auditAccounting(const char *Where) const;

  const Program &P;
  CostModel Model;
  TraceSink *Trace = nullptr;
  CodeEvictionDelegate *Delegate = nullptr;
  std::function<bool(MethodId)> PreferKeep;
  std::vector<std::unique_ptr<CodeVariant>> Variants;
  std::vector<const CodeVariant *> Current;
  std::vector<const CodeVariant *> Baseline;
  /// Variants ever installed per method, evicted ones included: the next
  /// install's CodeVariant::SerialNumber.
  std::vector<unsigned> InstallCount;
  /// Methods whose current code was evicted; the next install of such a
  /// method counts toward RecompilesAfterEvict.
  std::vector<uint8_t> PendingRecompile;
  uint64_t OptBytesGenerated = 0;
  uint64_t OptCompileCyclesTotal = 0;
  uint64_t BaseCompileCyclesTotal = 0;
  uint64_t LiveBytes = 0;
  uint64_t PeakBytes = 0;
  uint64_t Evictions = 0;
  uint64_t RecompilesAfterEvict = 0;
  unsigned NumCompiles[NumOptLevels] = {0, 0, 0};
  /// Next CodeVariant::InstallSeq to hand out.
  unsigned NextInstallSeq = 0;
  /// True while enforceCapacity runs: installs performed by an
  /// eviction-triggered deopt (baseline materialization) must not
  /// recursively enforce capacity.
  bool InEviction = false;
};

} // namespace aoci

#endif // AOCI_VM_CODEMANAGER_H
