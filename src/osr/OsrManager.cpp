//===- osr/OsrManager.cpp - OSR & deoptimization driver --------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "osr/OsrManager.h"

#include "osr/FrameMap.h"
#include "trace/TraceSink.h"

#include <cassert>

using namespace aoci;

bool OsrManager::onStaleBackedge(VirtualMachine &VM, ThreadState &T) {
  assert(!T.Frames.empty() && "backedge on an empty stack");
  if (T.Frames.back().Inlined)
    return deoptimize(VM, T);
  return osrEnter(VM, T);
}

bool OsrManager::worthTransition(MethodId M, const CodeVariant &From,
                                 const CodeVariant &To,
                                 uint64_t TransitionCycles,
                                 double *Savings) const {
  if (Policy)
    return Policy(M, From, To, TransitionCycles, Savings);
  // Without a controller there is no hotness estimate to price the
  // transition against; transfer only on level upgrades, where the
  // steady-state win is unconditional.
  if (Savings)
    *Savings = 0;
  return static_cast<unsigned>(To.Level) > static_cast<unsigned>(From.Level);
}

uint64_t OsrManager::segmentRecovered(const VirtualMachine &VM,
                                      const Frame &F) const {
  const CostModel &Model = VM.costModel();
  const uint64_t CpuFrom = Model.cyclesPerUnit(F.OsrFromLevel);
  const uint64_t CpuTo = Model.cyclesPerUnit(F.Variant->Level);
  if (CpuFrom <= CpuTo)
    return 0;
  // The segment spent (now - enter) cycles in the replacement; the same
  // work at the stale variant's per-unit rate would have cost a factor
  // CpuFrom/CpuTo more. Integer arithmetic keeps the estimate (and the
  // osr-exit trace payload) deterministic.
  const uint64_t InReplacement = VM.cycles() - F.OsrEnterCycle;
  return InReplacement * (CpuFrom - CpuTo) / CpuTo;
}

bool OsrManager::osrEnter(VirtualMachine &VM, ThreadState &T) {
  Frame &F = T.Frames.back();
  const CodeVariant *From = F.Variant;
  const CodeVariant *To = VM.codeManager().current(F.Method);
  // With a bounded code cache the method's current code can be *gone*
  // (evicted without a live replacement): there is nothing to transfer
  // onto, so the activation keeps running the code it is pinned on.
  if (To == nullptr)
    return false;
  assert(To != From && "backedge reported as stale");
  const CostModel &Model = VM.costModel();

  double Savings = 0;
  if (!worthTransition(F.Method, *From, *To, Model.OsrTransitionCycles,
                       &Savings))
    return false;

  // A frame can be replaced more than once (Opt1 then Opt2); close the
  // previous segment's recovery accounting before the fields are reused.
  if (F.OsrEntered)
    Stats.CyclesRecoveredEstimate += segmentRecovered(VM, F);

  if (TraceSink *Trace = VM.traceSink()) {
    if (Trace->wants(TraceEventKind::OsrEnter)) {
      TraceEvent &E =
          Trace->append(TraceEventKind::OsrEnter, TraceTrackVm, VM.cycles());
      E.Thread = T.Id;
      E.Method = F.Method;
      E.A = static_cast<int64_t>(From->Level);
      E.B = static_cast<int64_t>(To->Level);
      E.C = F.PC;
      E.D = To->SerialNumber;
      E.X = Savings;
    }
  }

  retargetFrame(VM, T, T.Frames.size() - 1, To,
                To->Plan.empty() ? nullptr : &To->Plan.Root,
                /*Inlined=*/false);
  F.OsrFromLevel = From->Level;
  F.OsrEntered = true;
  VM.chargeMutator(Model.OsrTransitionCycles);
  // Stamp the segment start *after* the charge so the transition cost is
  // never counted as recovered time.
  F.OsrEnterCycle = VM.cycles();

  Stats.TransitionCyclesCharged += Model.OsrTransitionCycles;
  ++Stats.OsrEntries;
  VM.auditState("osr-enter");
  return true;
}

bool OsrManager::deoptimize(VirtualMachine &VM, ThreadState &T) {
  const size_t Root = physicalRootIndex(T, T.Frames.size() - 1);
  const size_t NumFrames = T.Frames.size() - Root;
  Frame &RootF = T.Frames[Root];
  const CodeVariant *From = RootF.Variant;
  const CodeVariant *To = VM.codeManager().current(From->M);
  // The replacement that made this group stale can itself have been
  // evicted since; with no current code there is no detour worth pricing,
  // so the group keeps running its (pinned) variant.
  if (To == nullptr)
    return false;
  assert(To != From && "backedge reported as stale");
  const CostModel &Model = VM.costModel();

  // The detour is priced end to end: unwinding every frame to baseline
  // plus the OSR entry the root frame will take at its next backedge to
  // reach the replacement code.
  const uint64_t TransitionCycles =
      Model.DeoptFrameCycles * NumFrames + Model.OsrTransitionCycles;
  double Savings = 0;
  if (!worthTransition(From->M, *From, *To, TransitionCycles, &Savings))
    return false;

  if (RootF.OsrEntered)
    Stats.CyclesRecoveredEstimate += segmentRecovered(VM, RootF);

  if (TraceSink *Trace = VM.traceSink()) {
    if (Trace->wants(TraceEventKind::Deopt)) {
      const Frame &Top = T.Frames.back();
      TraceEvent &E =
          Trace->append(TraceEventKind::Deopt, TraceTrackVm, VM.cycles());
      E.Thread = T.Id;
      E.Method = From->M;
      E.A = static_cast<int64_t>(NumFrames);
      E.B = Top.PC;
      E.C = static_cast<int64_t>(From->Level);
      E.E = Top.Method;
    }
  }

  remapGroupToBaseline(VM, T, Root, T.Frames.size());
  ++Stats.Deopts;
  VM.auditState("deopt");
  return true;
}

void OsrManager::remapGroupToBaseline(VirtualMachine &VM, ThreadState &T,
                                      size_t Root, size_t End) {
  const CostModel &Model = VM.costModel();
  const size_t NumFrames = End - Root;
  for (size_t I = Root; I != End; ++I) {
    Frame &F = T.Frames[I];
    const CodeVariant *Base = VM.codeManager().baseline(F.Method);
    if (Base == nullptr) {
      const CodeVariant *Cur = VM.codeManager().current(F.Method);
      if (Cur != nullptr && Cur != F.Variant) {
        // Hand-installed optimized-only code (tests can do this): the
        // current variant is the only physical code the method has.
        Base = Cur;
      } else {
        // An inlined-only method may never have been physically entered,
        // so no baseline exists yet — and with a bounded cache the
        // baseline may have been evicted, possibly while its method's
        // optimized code (the very variant this group must vacate) is
        // still current. (Re-)materialize a baseline; the compile charge
        // lands on the application thread, exactly as a first call would
        // have paid it.
        Base = VM.ensureBaseline(F.Method);
      }
    }
    assert(Base != nullptr && "deopt target method has no code");
    // Baseline variants carry no plan; each frame resumes as an ordinary
    // physical activation of its source method.
    retargetFrame(VM, T, I, Base,
                  Base->Plan.empty() ? nullptr : &Base->Plan.Root,
                  /*Inlined=*/false);
    F.OsrEntered = false;
  }

  VM.chargeMutator(Model.DeoptFrameCycles * NumFrames);
  Stats.TransitionCyclesCharged += Model.DeoptFrameCycles * NumFrames;
  Stats.DeoptFramesRemapped += NumFrames;
}

void OsrManager::onEvictVariant(VirtualMachine &VM, const CodeVariant &V) {
  for (const auto &TPtr : VM.threads()) {
    ThreadState &T = *TPtr;
    for (size_t I = 0; I < T.Frames.size();) {
      // Inlined frames share their physical root's variant, so scanning
      // for non-inlined frames on the victim finds every group exactly
      // once (recursion can produce several groups per thread).
      if (T.Frames[I].Variant != &V || T.Frames[I].Inlined) {
        ++I;
        continue;
      }
      size_t End = I + 1;
      while (End != T.Frames.size() && T.Frames[End].Inlined)
        ++End;

      Frame &RootF = T.Frames[I];
      if (RootF.OsrEntered)
        Stats.CyclesRecoveredEstimate += segmentRecovered(VM, RootF);

      if (TraceSink *Trace = VM.traceSink()) {
        if (Trace->wants(TraceEventKind::Deopt)) {
          const Frame &Top = T.Frames[End - 1];
          TraceEvent &E =
              Trace->append(TraceEventKind::Deopt, TraceTrackVm, VM.cycles());
          E.Thread = T.Id;
          E.Method = V.M;
          E.A = static_cast<int64_t>(End - I);
          E.B = Top.PC;
          E.C = static_cast<int64_t>(V.Level);
          E.E = Top.Method;
        }
      }

      remapGroupToBaseline(VM, T, I, End);
      ++Stats.Deopts;
      I = End;
    }
  }
  VM.auditState("evict-deopt");
}

void OsrManager::onOsrFrameReturn(VirtualMachine &VM, ThreadState &T,
                                  const Frame &Done) {
  const uint64_t Recovered = segmentRecovered(VM, Done);
  Stats.CyclesRecoveredEstimate += Recovered;
  ++Stats.OsrExits;
  if (TraceSink *Trace = VM.traceSink()) {
    if (Trace->wants(TraceEventKind::OsrExit)) {
      TraceEvent &E =
          Trace->append(TraceEventKind::OsrExit, TraceTrackVm, VM.cycles());
      E.Thread = T.Id;
      E.Method = Done.Method;
      E.A = static_cast<int64_t>(Done.OsrFromLevel);
      E.B = static_cast<int64_t>(Done.Variant->Level);
      E.C = static_cast<int64_t>(VM.cycles() - Done.OsrEnterCycle);
      E.D = static_cast<int64_t>(Recovered);
    }
  }
}
