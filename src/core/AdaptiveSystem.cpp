//===- core/AdaptiveSystem.cpp - The adaptive optimization system ----------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/AdaptiveSystem.h"

#include "support/Audit.h"
#include "trace/TraceSink.h"

#include <cassert>
#include <string>

using namespace aoci;

namespace {

/// The organizer ids of organizer-wakeup events (exported as names by the
/// JSON layer; see OBSERVABILITY.md).
enum OrganizerId : int64_t {
  OrgMethod = 0,
  OrgAi = 1,
  OrgDecay = 2,
  OrgMissingEdge = 3,
};

/// Emits one organizer-wakeup event. \p Examined / \p Acted are the
/// organizer-specific work item and outcome counts documented per
/// organizer in OBSERVABILITY.md.
void traceWakeup(TraceSink *Trace, AosComponent Component, uint64_t Cycle,
                 int64_t Organizer, int64_t Wakeup, int64_t Examined,
                 int64_t Acted) {
  if (!Trace || !Trace->wants(TraceEventKind::OrganizerWakeup))
    return;
  TraceEvent &E = Trace->append(TraceEventKind::OrganizerWakeup,
                                traceTrack(Component), Cycle);
  E.A = Organizer;
  E.B = Wakeup;
  E.C = Examined;
  E.D = Acted;
}

/// Emits one compile-request event as \p R enters the queue.
void traceRequest(TraceSink *Trace, uint64_t Cycle,
                  const CompilationRequest &R, bool FromMissingEdge,
                  size_t QueueDepth) {
  if (!Trace || !Trace->wants(TraceEventKind::CompileRequest))
    return;
  TraceEvent &E = Trace->append(TraceEventKind::CompileRequest,
                                traceTrack(AosComponent::Controller), Cycle);
  E.Method = R.M;
  E.A = static_cast<int64_t>(R.Level);
  E.B = R.ForceSameLevel ? 1 : 0;
  E.C = FromMissingEdge ? 1 : 0;
  E.D = static_cast<int64_t>(QueueDepth);
}

} // namespace

AdaptiveSystem::AdaptiveSystem(VirtualMachine &VM, ContextPolicy &Policy,
                               AosSystemConfig Config)
    : VM(VM), Policy(Policy), Config(Config),
      MethodL(Config.MethodBufferCapacity),
      TraceL(Policy, Config.TraceBufferCapacity, Config.InlineAwareWalk),
      AiOrg(Config.Ai), BudgetOrg(Config.Budget),
      Ctrl(VM.program(), VM.costModel(), Config.ControllerCfg),
      Compiler(VM.program(), VM.hierarchy(), VM.costModel()) {
  // The OSR gate is the controller's analytic model; the indirection
  // keeps src/osr/ independent of the core layer.
  OsrMgr.setPolicy([this](MethodId M, const CodeVariant &From,
                          const CodeVariant &To, uint64_t TransitionCycles,
                          double *Savings) {
    return Ctrl.worthOsr(M, From, To, TransitionCycles, Savings);
  });
}

size_t AdaptiveSystem::rebuildInlineRules(uint64_t NowCycle) {
  if (Config.Organizer == InlineOrganizerKind::Threshold)
    return AiOrg.rebuildRules(VM.program(), Dcg, NowCycle, Rules);

  // Budget organizer: same consumption surface (the rule set), plus an
  // uncharged budget-decision event per priced candidate.
  TraceSink *Sink = VM.traceSink();
  BudgetInliningOrganizer::DecisionFn OnDecision;
  if (Sink && Sink->wants(TraceEventKind::BudgetDecision))
    OnDecision = [&](MethodId Caller, MethodId Callee, uint64_t Units,
                     uint64_t Remaining, bool Accepted, bool Measured,
                     double Weight) {
      TraceEvent &E = Sink->append(TraceEventKind::BudgetDecision,
                                   traceTrack(AosComponent::AiOrganizer),
                                   VM.cycles());
      E.Method = Caller;
      E.A = static_cast<int64_t>(Callee);
      E.B = static_cast<int64_t>(Units);
      E.C = static_cast<int64_t>(Remaining);
      E.D = Accepted ? 1 : 0;
      E.E = Measured ? 1 : 0;
      E.X = Weight;
    };
  BudgetRebuildStats B = BudgetOrg.rebuildRules(VM.program(), Dcg, Db, Calib,
                                                NowCycle, Rules, OnDecision);
  Stats.BudgetUnitsSpent += B.UnitsSpent;
  Stats.BudgetCandidatesAccepted += B.CandidatesAccepted;
  Stats.BudgetCandidatesPruned += B.CandidatesPruned;
  return B.Scanned;
}

WarmStartStats AdaptiveSystem::warmStart(const ProfileData &Profile) {
  WarmStartStats S;
  const Program &P = VM.program();

  // Resolves one name-keyed profile trace against the live program.
  // False (drop) when any named method is absent — the stale-profile
  // case this API must survive.
  auto resolveTrace = [&](const ProfileTraceLine &L, Trace &T) {
    if (L.Weight <= 0 || L.Context.empty())
      return false;
    T.Context.clear();
    for (const auto &Pair : L.Context) {
      ContextPair Resolved;
      Resolved.Caller = P.findMethod(Pair.first);
      Resolved.Site = Pair.second;
      if (Resolved.Caller == InvalidMethodId)
        return false;
      T.Context.push_back(Resolved);
    }
    T.Callee = P.findMethod(L.Callee);
    return T.Callee != InvalidMethodId;
  };

  for (const ProfileTraceLine &L : Profile.DcgTraces) {
    Trace T;
    if (!resolveTrace(L, T)) {
      ++S.TracesDropped;
      continue;
    }
    Dcg.addSample(T, L.Weight);
    ++AuditTracesFed;
    ++S.TracesApplied;
  }

  for (const ProfileHotMethod &H : Profile.HotMethods) {
    const MethodId M = P.findMethod(H.Method);
    if (M == InvalidMethodId || H.Samples <= 0) {
      ++S.HotMethodsDropped;
      continue;
    }
    Ctrl.seedSamples(M, H.Samples);
    ++S.HotMethodsApplied;
  }

  for (const ProfileRefusal &R : Profile.Refusals) {
    const MethodId Compiled = P.findMethod(R.Compiled);
    Trace Edge;
    ContextPair Pair;
    Pair.Caller = P.findMethod(R.Caller);
    Pair.Site = R.Site;
    Edge.Context.push_back(Pair);
    Edge.Callee = P.findMethod(R.Callee);
    if (Compiled == InvalidMethodId || Pair.Caller == InvalidMethodId ||
        Edge.Callee == InvalidMethodId) {
      ++S.RefusalsDropped;
      continue;
    }
    Db.recordRefusal(Compiled, Edge);
    ++S.RefusalsApplied;
  }

  // Codify rules from the seeded DCG, then re-apply persisted decisions
  // the thresholds alone would not recreate (rules whose supporting
  // weight had already decayed when the profile was saved).
  rebuildInlineRules(/*NowCycle=*/0);
  for (const ProfileTraceLine &L : Profile.Decisions) {
    Trace T;
    if (!resolveTrace(L, T)) {
      ++S.DecisionsDropped;
      continue;
    }
    if (!Rules.find(T))
      Rules.add(InliningRule{T, L.Weight, /*CreatedAtCycle=*/0});
    ++S.DecisionsApplied;
  }

  if (Profile.HasThresholds) {
    S.ThresholdMismatches +=
        (Profile.DecayFactor != Config.DecayFactor) +
        (Profile.HotMethodSamples != Config.ControllerCfg.HotMethodSamples) +
        (Profile.HotTraceThreshold != Config.Ai.HotTraceThreshold) +
        (Profile.MinRuleWeight != Config.Ai.MinRuleWeight);
  }

  // Provenance event for observability; charges nothing, like all trace
  // emission (see OBSERVABILITY.md).
  TraceSink *Sink = VM.traceSink();
  if (Sink && Sink->wants(TraceEventKind::ProfileLoad)) {
    TraceEvent &E = Sink->append(TraceEventKind::ProfileLoad,
                                 traceTrack(AosComponent::AiOrganizer),
                                 VM.cycles());
    E.A = static_cast<int64_t>(Profile.Version);
    E.B = static_cast<int64_t>(S.TracesApplied);
    E.C = static_cast<int64_t>(S.DecisionsApplied);
    E.D = static_cast<int64_t>(S.HotMethodsApplied);
    E.E = static_cast<int64_t>(S.RefusalsApplied);
    E.X = static_cast<double>(S.dropped());
  }
  return S;
}

ProfileData AdaptiveSystem::snapshotProfile(const std::string &Workload) const {
  ProfileData D;
  D.Workload = Workload;
  D.SavedAtCycle = VM.cycles();
  D.HasThresholds = true;
  D.DecayFactor = Config.DecayFactor;
  D.HotMethodSamples = Config.ControllerCfg.HotMethodSamples;
  D.HotTraceThreshold = Config.Ai.HotTraceThreshold;
  D.MinRuleWeight = Config.Ai.MinRuleWeight;

  const Program &P = VM.program();
  auto nameTrace = [&](const Trace &T, double Weight) {
    ProfileTraceLine L;
    L.Weight = Weight;
    for (const ContextPair &Pair : T.Context)
      L.Context.emplace_back(P.qualifiedName(Pair.Caller), Pair.Site);
    L.Callee = P.qualifiedName(T.Callee);
    return L;
  };

  Dcg.forEach([&](const Trace &T, double Weight) {
    D.DcgTraces.push_back(nameTrace(T, Weight));
  });
  Rules.forEach([&](const InliningRule &R) {
    D.Decisions.push_back(nameTrace(R.T, R.Weight));
  });
  Ctrl.forEachSample([&](MethodId M, double Samples) {
    // Persist only methods the controller actually chose to optimize
    // (an optimized variant is installed at snapshot time). Marginal
    // sample counts are noise: re-seeding them gives never-optimized
    // methods a head start toward the compile break-even point, so the
    // warm run compiles stragglers late in the run that a cold run
    // never would — *extending* time-to-steady-state instead of
    // shrinking it (the `warm.beats_cold` claim measures exactly this).
    if (Samples < Config.ControllerCfg.HotMethodSamples)
      return;
    const CodeVariant *Cur = VM.codeManager().current(M);
    if (!Cur || Cur->Level == OptLevel::Baseline)
      return;
    ProfileHotMethod H;
    H.Samples = Samples;
    H.Method = P.qualifiedName(M);
    D.HotMethods.push_back(std::move(H));
  });
  Db.forEachRefusal(
      [&](MethodId Compiled, const ContextPair &Edge, MethodId Callee) {
        ProfileRefusal R;
        R.Compiled = P.qualifiedName(Compiled);
        R.Caller = P.qualifiedName(Edge.Caller);
        R.Site = Edge.Site;
        R.Callee = P.qualifiedName(Callee);
        D.Refusals.push_back(std::move(R));
      });
  return D;
}

void AdaptiveSystem::onSample(VirtualMachine &SampledVm, ThreadState &Thread,
                              bool AtPrologue) {
  assert(&SampledVm == &VM && "system attached to a different VM");
  (void)SampledVm;
  ++Stats.SamplesSeen;
  TraceSink *Trace = VM.traceSink();
  const bool WantListener =
      Trace && Trace->wants(TraceEventKind::ListenerRecord);
  auto traceListenerRecord = [&](int64_t Listener, size_t Buffered) {
    TraceEvent &E = Trace->append(TraceEventKind::ListenerRecord,
                                  traceTrack(AosComponent::Listeners),
                                  VM.cycles());
    E.Method = Thread.Frames.back().Method;
    E.A = Listener;
    E.B = static_cast<int64_t>(Thread.Frames.size());
    E.C = static_cast<int64_t>(Buffered);
  };

  // Listeners record raw data into their buffers; a full buffer wakes the
  // owning organizer (Section 3.2).
  const bool MethodFull = MethodL.sample(VM, Thread);
  if (WantListener)
    traceListenerRecord(/*Listener=*/0, MethodL.size());
  if (MethodFull)
    methodOrganizerWakeup();
  if (AtPrologue) {
    const bool TraceFull = TraceL.sample(VM, Thread);
    if (WantListener)
      traceListenerRecord(/*Listener=*/1, TraceL.size());
    if (TraceFull)
      dcgOrganizerWakeup();
  }

  if (Config.DecayPeriodSamples &&
      Stats.SamplesSeen % Config.DecayPeriodSamples == 0)
    decayWakeup();
  if (Config.MissingEdgePeriodSamples &&
      Stats.SamplesSeen % Config.MissingEdgePeriodSamples == 0)
    missingEdgeWakeup();

  processCompilationQueue();
}

void AdaptiveSystem::methodOrganizerWakeup() {
  ++Stats.MethodOrganizerWakeups;
  TraceSink *Trace = VM.traceSink();
  std::vector<MethodId> Samples = MethodL.drain();
  VM.chargeAos(AosComponent::MethodOrganizer,
               Config.OrganizerWakeupCost +
                   Config.MethodOrganizerPerSampleCost * Samples.size());

  // The controller reads the organizer's event and applies the analytic
  // model.
  std::vector<CompilationRequest> Requests =
      Ctrl.onMethodSamples(Samples, VM.codeManager(), VM.cycles(), Trace);
  VM.chargeAos(AosComponent::Controller,
               Config.ControllerBatchCost +
                   Config.ControllerPerRequestCost * Requests.size());
  traceWakeup(Trace, AosComponent::MethodOrganizer, VM.cycles(), OrgMethod,
              static_cast<int64_t>(Stats.MethodOrganizerWakeups - 1),
              static_cast<int64_t>(Samples.size()),
              static_cast<int64_t>(Requests.size()));
  for (CompilationRequest &R : Requests) {
    ++Stats.ControllerRequests;
    CompileQueue.push_back(R);
    traceRequest(Trace, VM.cycles(), R, /*FromMissingEdge=*/false,
                 CompileQueue.size());
  }
}

void AdaptiveSystem::dcgOrganizerWakeup() {
  ++Stats.DcgOrganizerWakeups;
  std::vector<Trace> Traces = TraceL.drain();
  const size_t NumTraces = Traces.size();
  VM.chargeAos(AosComponent::AiOrganizer,
               Config.OrganizerWakeupCost +
                   Config.DcgPerTraceCost * Traces.size());
  for (const Trace &T : Traces) {
    Dcg.addSample(T);
    ++AuditTracesFed;
  }
  // Cross-layer auditor: the DCG can never hold more distinct traces than
  // the listener (and any seeded profile) ever fed it — decay only
  // removes entries. A violation means a layer is inventing profile data.
  if (audit::enabled())
    audit::check(Dcg.numTraces() <= AuditTracesFed, "core",
                 "DCG holds " + std::to_string(Dcg.numTraces()) +
                     " distinct traces but listeners only ever recorded " +
                     std::to_string(AuditTracesFed));

  // Adaptive-imprecision maintenance: ask for more context at sites whose
  // per-context receiver distributions are still unskewed.
  if (ImprecisionTable *Table = Policy.imprecisionTable()) {
    size_t Scanned = updateImprecisionTable(Dcg, *Table, Policy.maxDepth(),
                                            Config.Imprecision);
    VM.chargeAos(AosComponent::AiOrganizer,
                 Config.ImprecisionPerSiteCost * Scanned);
  }

  // The configured inlining organizer recodifies the rule set. Both
  // organizers charge the same per-scanned-trace cost so the Figure 6
  // overhead comparison across the `--organizer` axis stays apples to
  // apples.
  size_t Scanned = rebuildInlineRules(VM.cycles());
  VM.chargeAos(AosComponent::AiOrganizer, Config.AiPerScanCost * Scanned);
  traceWakeup(VM.traceSink(), AosComponent::AiOrganizer, VM.cycles(), OrgAi,
              static_cast<int64_t>(Stats.DcgOrganizerWakeups - 1),
              static_cast<int64_t>(NumTraces),
              static_cast<int64_t>(Rules.size()));
}

void AdaptiveSystem::decayWakeup() {
  ++Stats.DecayWakeups;
  const size_t Entries = Dcg.numTraces();
  const size_t Dropped = Dcg.decay(Config.DecayFactor);
  Ctrl.decaySamples();
  Stats.DecayEntriesScanned += Entries;
  Stats.DecayEntriesDropped += Dropped;
  VM.chargeAos(AosComponent::DecayOrganizer,
               Config.OrganizerWakeupCost +
                   Config.DecayPerEntryCost * Entries);
  traceWakeup(VM.traceSink(), AosComponent::DecayOrganizer, VM.cycles(),
              OrgDecay, static_cast<int64_t>(Stats.DecayWakeups - 1),
              static_cast<int64_t>(Entries),
              static_cast<int64_t>(Dropped));
}

void AdaptiveSystem::missingEdgeWakeup() {
  ++Stats.MissingEdgeWakeups;
  std::vector<MethodId> Hot = Ctrl.hotMethods();
  std::vector<MethodId> Missing =
      findMissingEdges(VM.program(), VM.codeManager(), Rules, Db, Hot,
                       Config.DeepMissingEdges);
  VM.chargeAos(AosComponent::AiOrganizer,
               Config.OrganizerWakeupCost +
                   Config.MissingEdgePerMethodCost * Hot.size());
  TraceSink *Sink = VM.traceSink();
  int64_t Requested = 0;
  for (MethodId M : Missing) {
    // Missing-edge candidates are optimized methods, but with a bounded
    // code cache the optimized code can be evicted between detection and
    // this wakeup (current() is then null or a re-entered baseline). Skip
    // those — the hotness path will re-request them if they stay warm.
    // Checked before tryMarkInFlight so a skip never leaves the method
    // marked pending.
    const CodeVariant *V = VM.codeManager().current(M);
    if (V == nullptr || V->Level == OptLevel::Baseline)
      continue;
    if (!Ctrl.tryMarkInFlight(M))
      continue;
    ++Stats.MissingEdgeRequests;
    ++Requested;
    CompileQueue.push_back(CompilationRequest{M, V->Level, true});
    traceRequest(Sink, VM.cycles(), CompileQueue.back(),
                 /*FromMissingEdge=*/true, CompileQueue.size());
  }
  traceWakeup(Sink, AosComponent::AiOrganizer, VM.cycles(), OrgMissingEdge,
              static_cast<int64_t>(Stats.MissingEdgeWakeups - 1),
              static_cast<int64_t>(Hot.size()), Requested);
}

void AdaptiveSystem::processCompilationQueue() {
  while (!CompileQueue.empty()) {
    CompilationRequest Request = CompileQueue.front();
    CompileQueue.pop_front();

    const CodeVariant *Current = VM.codeManager().current(Request.M);
    // Skip stale upgrade requests (already at or above the target level,
    // unless this is a same-level rule-refresh recompilation).
    if (Current && !Request.ForceSameLevel &&
        static_cast<unsigned>(Current->Level) >=
            static_cast<unsigned>(Request.Level)) {
      Ctrl.notifyInstalled(Request.M);
      continue;
    }

    InliningOracle Oracle(VM.program(), VM.hierarchy(), Rules,
                          Config.Inliner);
    std::unique_ptr<CodeVariant> Variant =
        Compiler.compile(Request.M, Request.Level, Oracle, &Db);
    // Shared code cache (serve mode): the compiler is host-side cheap
    // and simulated cycles are only charged below, so the session can
    // fingerprint the finished plan first and then decide what to pay.
    // A hit rewrites CompileCycles to the link cost before any ledger,
    // charge, or trace event sees the variant — every downstream
    // accounting reflects what this session actually spent, and the
    // saving is carried separately in Stats.ShareCyclesSaved.
    ShareOutcome Share;
    if (ShareClient != nullptr) {
      Share = ShareClient->onVariantCompiled(*Variant);
      if (Share.Hit) {
        Variant->SharedIn = true;
        Variant->CompileCycles = Share.ChargeCycles;
        ++Stats.ShareHits;
        Stats.ShareCyclesSaved += Share.CyclesSaved;
      } else {
        ++Stats.SharePublishes;
      }
    }
    // The compilation thread's cycles are wall-clock time on a
    // uniprocessor and AOS overhead in the Figure 6 breakdown.
    VM.chargeAos(AosComponent::Compilation, Variant->CompileCycles);
    Variant->CompiledAtCycle = VM.cycles();

    // Measured-size feedback: the ledger the budget organizer prices
    // from, and a calibration sample comparing the static estimator's
    // whole-body prediction against the real variant. Pure bookkeeping —
    // no cycles are charged, so threshold-organizer runs are bit-exact
    // with and without it.
    Db.recordMeasuredSize(Request.M, Variant->Level, Variant->MachineUnits,
                          Variant->CodeBytes, Variant->CompileCycles);
    Calib.observe(inlinedSizeEstimate(VM.program(), Request.M, 0),
                  Variant->MachineUnits);

    const CodeVariant *Installed =
        VM.codeManager().install(std::move(Variant));
    if (ShareClient != nullptr) {
      ShareClient->onVariantInstalled(*Installed, Share);
      if (Share.Hit) {
        TraceSink *Trace = VM.traceSink();
        if (Trace && Trace->wants(TraceEventKind::ShareHit)) {
          TraceEvent &E =
              Trace->append(TraceEventKind::ShareHit,
                            traceTrack(AosComponent::Compilation),
                            VM.cycles());
          E.Method = Installed->M;
          E.A = static_cast<int64_t>(Installed->Level);
          E.B = static_cast<int64_t>(Installed->CodeBytes);
          E.C = static_cast<int64_t>(Share.CyclesSaved);
          E.D = static_cast<int64_t>(Share.PublishSeq);
        }
      }
    }
    Ctrl.notifyInstalled(Request.M);
    ++Stats.OptCompilations;
  }
}
