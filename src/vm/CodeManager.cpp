//===- vm/CodeManager.cpp - Installed-code registry -----------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "vm/CodeManager.h"

#include "support/Audit.h"
#include "trace/TraceSink.h"
#include "vm/Overhead.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace aoci;

namespace {

void indexNode(const Program &P, InlineNode &Node, MethodId Body) {
  Node.buildIndex(static_cast<uint32_t>(P.method(Body).Body.size()));
  for (auto &Decision : Node.Sites)
    for (InlineCase &Case : Decision.Cases)
      if (Case.Body)
        indexNode(P, *Case.Body, Case.Callee);
}

unsigned countSites(const InlineNode &Node) {
  unsigned N = static_cast<unsigned>(Node.Sites.size());
  for (const auto &Decision : Node.Sites)
    for (const InlineCase &Case : Decision.Cases)
      if (Case.Body)
        N += countSites(*Case.Body);
  return N;
}

/// Emits one plan-site event per decided call site, depth-first in site
/// order — the per-site context-sensitivity verdicts of the installed
/// plan.
void emitPlanSites(TraceSink &Trace, const CodeVariant &V,
                   const InlineNode &Node, unsigned Depth) {
  for (const auto &Decision : Node.Sites) {
    bool Guarded = false;
    for (const InlineCase &Case : Decision.Cases)
      Guarded |= Case.Guarded;
    TraceEvent &E =
        Trace.append(TraceEventKind::PlanSite,
                     traceTrack(AosComponent::Compilation), V.CompiledAtCycle);
    E.Method = V.M;
    E.A = Decision.Site;
    E.B = Depth;
    E.C = static_cast<int64_t>(Decision.Cases.size());
    // The verdict code: 0 unguarded, 1 guarded-mono, 2 guarded-poly.
    E.D = !Guarded ? 0 : Decision.Cases.size() <= 1 ? 1 : 2;
    E.E = Decision.Cases.empty() ? -1 : Decision.Cases.front().Callee;
    for (const InlineCase &Case : Decision.Cases)
      if (Case.Body)
        emitPlanSites(Trace, V, *Case.Body, Depth + 1);
  }
}

} // namespace

void CodeVariant::indexPlanSites(const Program &P) {
  if (!Plan.empty())
    indexNode(P, Plan.Root, M);
}

const CodeVariant *CodeManager::install(std::unique_ptr<CodeVariant> Variant) {
  assert(Variant && "installing a null variant");
  assert(Variant->M < Current.size() && "method id out of range");

  CodeVariant *Ptr = Variant.get();
  Ptr->indexPlanSites(P);
  Ptr->SerialNumber = InstallCount[Ptr->M]++;
  Ptr->InstallSeq = NextInstallSeq++;
  // Installation counts as a use: freshly compiled code must not be the
  // least-recently-used victim before it ever runs.
  Ptr->LastUsedCycle = Ptr->CompiledAtCycle;

  if (Ptr->Level == OptLevel::Baseline) {
    BaseCompileCyclesTotal += Ptr->CompileCycles;
  } else {
    OptBytesGenerated += Ptr->CodeBytes;
    OptCompileCyclesTotal += Ptr->CompileCycles;
  }
  ++NumCompiles[static_cast<unsigned>(Ptr->Level)];
  LiveBytes += Ptr->CodeBytes;
  if (PendingRecompile[Ptr->M]) {
    ++RecompilesAfterEvict;
    PendingRecompile[Ptr->M] = 0;
  }

  const CodeVariant *Prev = Current[Ptr->M];
  if (Trace) {
    if (Trace->wants(TraceEventKind::CompileComplete)) {
      // A duration event spanning the compile: it started CompileCycles
      // before the installation-time clock value.
      TraceEvent &E = Trace->append(TraceEventKind::CompileComplete,
                                    traceTrack(AosComponent::Compilation),
                                    Ptr->CompiledAtCycle - Ptr->CompileCycles);
      E.Dur = Ptr->CompileCycles;
      E.Method = Ptr->M;
      E.A = static_cast<int64_t>(Ptr->Level);
      E.B = static_cast<int64_t>(Ptr->CodeBytes);
      E.C = static_cast<int64_t>(Ptr->CodeBytes) -
            static_cast<int64_t>(Prev ? Prev->CodeBytes : 0);
      E.D = Ptr->Plan.NumInlineBodies;
      E.E = Ptr->Plan.NumGuards;
    }
    if (!Ptr->Plan.empty() && Trace->wants(TraceEventKind::PlanInstall)) {
      TraceEvent &E = Trace->append(TraceEventKind::PlanInstall,
                                    traceTrack(AosComponent::Compilation),
                                    Ptr->CompiledAtCycle);
      E.Method = Ptr->M;
      E.A = static_cast<int64_t>(Ptr->Level);
      E.B = countSites(Ptr->Plan.Root);
      E.C = Ptr->Plan.NumInlineBodies;
      E.D = Ptr->Plan.NumGuards;
    }
    if (!Ptr->Plan.empty() && Trace->wants(TraceEventKind::PlanSite))
      emitPlanSites(*Trace, *Ptr, Ptr->Plan.Root, /*Depth=*/0);
  }

  // A baseline rematerialized as a deoptimization target (the cache
  // evicted the original while optimized code was still dispatched) must
  // not demote the method: the optimized current keeps receiving calls,
  // and eviction falls back to this baseline if the current goes next.
  const bool KeepCurrent = Ptr->Level == OptLevel::Baseline &&
                           Prev != nullptr &&
                           Prev->Level != OptLevel::Baseline;
  if (!KeepCurrent)
    Current[Ptr->M] = Ptr;
  if (Ptr->Level == OptLevel::Baseline)
    Baseline[Ptr->M] = Ptr;
  Variants.push_back(std::move(Variant));

  if (Delegate)
    Delegate->onCodeChanged("install");
  enforceCapacity(Ptr);
  // The high-water mark is taken at install boundaries outside eviction
  // passes: baselines materialized mid-deopt transiently overshoot until
  // the triggering pass finishes reclaiming.
  if (!InEviction && LiveBytes > PeakBytes)
    PeakBytes = LiveBytes;
  auditAccounting("install");
  return Ptr;
}

bool CodeManager::evictNow(const CodeVariant &V) {
  CodeVariant *Target = nullptr;
  for (const auto &Owned : Variants)
    if (Owned.get() == &V) {
      Target = Owned.get();
      break;
    }
  assert(Target && "evictNow on a variant this manager does not own");
  if (!Target || Target->Evicted)
    return true;
  if (!Delegate)
    return false; // liveness unknowable: pinned, like enforceCapacity
  // Mirror enforceCapacity's re-entrancy discipline: baselines the deopt
  // rematerializes mid-eviction must not recursively evict or move the
  // high-water mark.
  const bool Outer = !InEviction;
  InEviction = true;
  bool Reclaimed = false;
  if (Delegate->prepareEviction(*Target)) {
    evict(*Target);
    Reclaimed = true;
  }
  if (Outer) {
    InEviction = false;
    if (LiveBytes > PeakBytes)
      PeakBytes = LiveBytes;
    auditAccounting("evict-now");
  }
  return Reclaimed;
}

uint64_t CodeManager::sharedInBytesLive() const {
  uint64_t Bytes = 0;
  for (const auto &V : Variants)
    if (!V->Evicted && V->SharedIn)
      Bytes += V->CodeBytes;
  return Bytes;
}

uint64_t CodeManager::optimizedBytesResident() const {
  uint64_t Bytes = 0;
  for (const CodeVariant *V : Current)
    if (V && V->Level != OptLevel::Baseline)
      Bytes += V->CodeBytes;
  return Bytes;
}

namespace {

/// Deterministic victim order: least-recently-invoked first, install
/// sequence breaking ties. Both keys derive from the simulated clock
/// alone, so serial and parallel runs pick the same victims.
bool victimBefore(const CodeVariant &A, const CodeVariant &B) {
  if (A.LastUsedCycle != B.LastUsedCycle)
    return A.LastUsedCycle < B.LastUsedCycle;
  return A.InstallSeq < B.InstallSeq;
}

} // namespace

void CodeManager::enforceCapacity(const CodeVariant *JustInstalled) {
  if (!Model.CodeCache.enabled() || InEviction)
    return;
  if (!Delegate)
    return; // liveness unknowable: everything is pinned
  InEviction = true;
  std::vector<const CodeVariant *> Pinned;
  while (LiveBytes > Model.CodeCache.CapacityBytes) {
    CodeVariant *Victim = nullptr;
    bool VictimPreferred = false;
    for (const auto &Owned : Variants) {
      CodeVariant *V = Owned.get();
      if (V->Evicted || V == JustInstalled ||
          std::find(Pinned.begin(), Pinned.end(), V) != Pinned.end())
        continue;
      // The controller's prefer-keep hook only reorders: preferred
      // variants lose to any non-preferred candidate, and within a tier
      // the LRU order decides.
      bool Preferred = PreferKeep && PreferKeep(V->M);
      if (!Victim || (VictimPreferred && !Preferred) ||
          (VictimPreferred == Preferred && victimBefore(*V, *Victim))) {
        Victim = V;
        VictimPreferred = Preferred;
      }
    }
    if (!Victim)
      break; // every remaining variant is pinned or just installed
    if (!Delegate->prepareEviction(*Victim)) {
      Pinned.push_back(Victim);
      continue;
    }
    evict(*Victim);
  }
  InEviction = false;
}

void CodeManager::evict(CodeVariant &V) {
  assert(!V.Evicted && "double eviction");
  V.Evicted = true;
  LiveBytes -= V.CodeBytes;
  ++Evictions;

  if (Current[V.M] == &V) {
    // Fall back to the method's baseline if it is still live; otherwise
    // the method re-enters through ensureCompiled (a recompile).
    const CodeVariant *Base = Baseline[V.M];
    Current[V.M] = (Base && Base != &V && !Base->Evicted) ? Base : nullptr;
  }
  if (Baseline[V.M] == &V)
    Baseline[V.M] = nullptr;
  if (Current[V.M] == nullptr)
    PendingRecompile[V.M] = 1;

  Delegate->chargeEviction(Model.EvictReclaimCycles);

  if (Trace && Trace->wants(TraceEventKind::CodeEvict)) {
    TraceEvent &E = Trace->append(TraceEventKind::CodeEvict,
                                  traceTrack(AosComponent::Compilation),
                                  Delegate->evictionClock());
    E.Method = V.M;
    E.A = static_cast<int64_t>(V.Level);
    E.B = static_cast<int64_t>(V.CodeBytes);
    E.C = V.SerialNumber;
    E.D = static_cast<int64_t>(LiveBytes);
    E.E = static_cast<int64_t>(Evictions - 1);
  }

  Delegate->onCodeChanged("evict");
  auditAccounting("evict");
}

void CodeManager::auditAccounting(const char *Where) const {
  if (!audit::enabled())
    return;
  uint64_t Sum = 0;
  for (const auto &V : Variants)
    if (!V->Evicted)
      Sum += V->CodeBytes;
  audit::check(Sum == LiveBytes, "CodeManager",
               std::string(Where) + ": live-byte ledger " +
                   std::to_string(LiveBytes) + " != sum of live variants " +
                   std::to_string(Sum));
  for (size_t M = 0; M != Current.size(); ++M) {
    const CodeVariant *C = Current[M];
    audit::check(!C || (!C->Evicted && C->M == M), "CodeManager",
                 std::string(Where) + ": current[" + std::to_string(M) +
                     "] is evicted or mismatched");
    const CodeVariant *B = Baseline[M];
    audit::check(!B || (!B->Evicted && B->M == M &&
                        B->Level == OptLevel::Baseline),
                 "CodeManager",
                 std::string(Where) + ": baseline[" + std::to_string(M) +
                     "] is evicted or mismatched");
  }
  audit::check(InEviction || PeakBytes >= LiveBytes, "CodeManager",
               std::string(Where) + ": peak below live bytes");
}
