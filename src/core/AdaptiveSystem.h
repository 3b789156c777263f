//===- core/AdaptiveSystem.h - The adaptive optimization system -*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level adaptive optimization system of Figure 3 — the paper's
/// primary contribution surface. It wires the listeners, organizers,
/// controller, compilation queue, and AOS database to a VirtualMachine,
/// receiving timer samples through the SampleSink interface and charging
/// every piece of work to the per-component overhead meters behind
/// Figure 6.
///
/// Context sensitivity is configured purely through the ContextPolicy the
/// system is constructed with: a depth-1 policy reproduces Jikes RVM's
/// pre-existing context-insensitive profile-directed inlining; any deeper
/// policy enables the paper's context-sensitive system.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_CORE_ADAPTIVESYSTEM_H
#define AOCI_CORE_ADAPTIVESYSTEM_H

#include "core/AosDatabase.h"
#include "core/BudgetOrganizer.h"
#include "core/Controller.h"
#include "core/Organizers.h"
#include "opt/Compiler.h"
#include "osr/OsrManager.h"
#include "profile/Listeners.h"
#include "profile/ProfileIo.h"
#include "vm/CodeShare.h"
#include "vm/VirtualMachine.h"

#include <deque>

namespace aoci {

/// Which organizer codifies inlining rules from the DCG: the paper's
/// 1.5%-threshold AI organizer (the default, and the fidelity baseline)
/// or the budget-driven organizer with measured-size feedback
/// (core/BudgetOrganizer.h, the `--organizer budget` axis).
enum class InlineOrganizerKind {
  Threshold,
  Budget,
};

/// All tunables of the adaptive system, including the per-piece overhead
/// cycle costs that determine the Figure 6 breakdown.
struct AosSystemConfig {
  /// Listener buffer sizes; organizers wake when a buffer fills.
  size_t MethodBufferCapacity = 8;
  size_t TraceBufferCapacity = 16;

  AiOrganizerConfig Ai;
  ImprecisionConfig Imprecision;
  ControllerConfig ControllerCfg;
  InlinerConfig Inliner;

  /// Rule-codification organizer. Threshold (the default) reproduces the
  /// paper and every pre-existing golden byte-for-byte; Budget swaps in
  /// the measured-size budget organizer.
  InlineOrganizerKind Organizer = InlineOrganizerKind::Threshold;
  BudgetOrganizerConfig Budget;

  /// Decay organizer period, in delivered samples.
  uint64_t DecayPeriodSamples = 120;
  double DecayFactor = 0.95;
  /// AI missing-edge organizer period, in delivered samples.
  uint64_t MissingEdgePeriodSamples = 48;
  /// Extension: let the missing-edge organizer proactively recompile the
  /// innermost exploitable *context* position of a deep rule, instead of
  /// only reacting to edges as the paper's (pre-existing) organizer does.
  /// Off by default for fidelity; the ablation bench measures it.
  bool DeepMissingEdges = false;

  /// Overhead cycle costs.
  uint64_t OrganizerWakeupCost = 400;
  uint64_t MethodOrganizerPerSampleCost = 25;
  uint64_t DcgPerTraceCost = 35;
  uint64_t AiPerScanCost = 6;
  uint64_t ImprecisionPerSiteCost = 12;
  uint64_t ControllerBatchCost = 120;
  uint64_t ControllerPerRequestCost = 250;
  uint64_t DecayPerEntryCost = 4;
  uint64_t MissingEdgePerMethodCost = 40;

  /// Section 3.3 stack walk: true = inline-aware source-level walk;
  /// false = the naive physical-frame walk (ablation only).
  bool InlineAwareWalk = true;

  /// On-stack replacement / deoptimization switches (src/osr/). Disabled
  /// by default: installs then affect future invocations only, as in the
  /// paper's Jikes RVM baseline.
  OsrConfig Osr;
};

/// Aggregate activity counters, for tests and experiment reports.
struct AosStats {
  uint64_t SamplesSeen = 0;
  uint64_t MethodOrganizerWakeups = 0;
  uint64_t DcgOrganizerWakeups = 0;
  uint64_t DecayWakeups = 0;
  /// Decay-organizer visibility: DCG entries scanned across all decay
  /// wakeups, and how many of those the decay dropped below the
  /// retention threshold. Under a workload phase flip the dropped count
  /// spikes as the old phase's traces age out — the scenario tests
  /// assert exactly that.
  uint64_t DecayEntriesScanned = 0;
  uint64_t DecayEntriesDropped = 0;
  uint64_t MissingEdgeWakeups = 0;
  uint64_t ControllerRequests = 0;
  uint64_t MissingEdgeRequests = 0;
  uint64_t OptCompilations = 0;
  /// Shared-code-cache activity (all zero without a CodeShareClient, i.e.
  /// outside serve mode). A hit charged ShareLink cycles instead of the
  /// full compile; a publish paid in full and offered the variant to the
  /// shared index (acceptance is decided at the serve barrier — a
  /// same-round duplicate publish still counts here).
  uint64_t ShareHits = 0;
  uint64_t SharePublishes = 0;
  /// Sum over hits of (full compile cycles - charged link cycles).
  uint64_t ShareCyclesSaved = 0;
  /// Budget-organizer activity (all zero under the threshold organizer):
  /// priced units of accepted candidates, and candidates rejected by the
  /// inflation or exploration budget, summed over all rebuilds.
  uint64_t BudgetUnitsSpent = 0;
  uint64_t BudgetCandidatesAccepted = 0;
  uint64_t BudgetCandidatesPruned = 0;
};

/// Counters returned by AdaptiveSystem::warmStart(): how much of a
/// persisted profile actually applied against the live program. Dropped
/// counts are entries naming methods the program lacks or that fail
/// re-validation — a stale profile degrades the warm start, it never
/// fails the run (the graceful-degradation half of the paper's
/// stale-profile argument; see docs/profile-format.md).
struct WarmStartStats {
  uint64_t TracesApplied = 0;
  uint64_t TracesDropped = 0;
  uint64_t DecisionsApplied = 0;
  uint64_t DecisionsDropped = 0;
  uint64_t HotMethodsApplied = 0;
  uint64_t HotMethodsDropped = 0;
  uint64_t RefusalsApplied = 0;
  uint64_t RefusalsDropped = 0;
  /// Saved organizer thresholds that differ from the consuming system's
  /// configuration. Informational: live configuration always wins.
  uint64_t ThresholdMismatches = 0;

  uint64_t applied() const {
    return TracesApplied + DecisionsApplied + HotMethodsApplied +
           RefusalsApplied;
  }
  uint64_t dropped() const {
    return TracesDropped + DecisionsDropped + HotMethodsDropped +
           RefusalsDropped;
  }
};

/// The adaptive optimization system. Construct it over a VM and a policy,
/// then call attach() (or pass it to VirtualMachine::setSampleSink
/// manually) and run the VM.
class AdaptiveSystem : public SampleSink {
public:
  /// \p Policy must outlive the system; its imprecisionTable(), when
  /// present, is updated online by the DCG organizer.
  AdaptiveSystem(VirtualMachine &VM, ContextPolicy &Policy,
                 AosSystemConfig Config = AosSystemConfig());

  /// Registers this system as the VM's sample sink and, when
  /// Config.Osr.Enabled, installs the OSR driver so live activations
  /// transfer onto replacement variants at their next loop backedge.
  /// Also hands the bounded code cache the controller's hotness estimate
  /// as its advisory eviction preference (hot methods evict last).
  void attach() {
    VM.setSampleSink(this);
    if (Config.Osr.Enabled)
      VM.setOsrDriver(&OsrMgr);
    VM.codeManager().setEvictPreference(
        [this](MethodId M) { return Ctrl.preferKeepInCache(M); });
  }

  /// Connects this session to a process-wide shared code cache (serve
  /// mode; null disconnects). Consulted once per optimizing compilation:
  /// a hit installs the just-built variant but charges only the link
  /// cost; a miss pays in full and publishes. Must be set before the VM
  /// runs and never changed mid-run — the share outcome alters charged
  /// cycles, so it is part of the simulated configuration.
  void setShareClient(CodeShareClient *C) { ShareClient = C; }

  /// Re-seeds the full AOS decision state from a v2 profile (the
  /// `--warm-start` path): DCG trace weights, controller sample counts,
  /// compiler refusals, and codified inlining decisions, resolving the
  /// profile's method names against the live program. Entries that fail
  /// to resolve are dropped and counted, never fatal. Seeded rules and
  /// decisions carry creation time 0 so they never look newer than
  /// installed code; seeded samples and weights decay exactly like
  /// organic ones, so a stale profile fades out through the decay
  /// organizer. Emits one uncharged `profile-load` trace event when a
  /// sink is attached. Call before run().
  WarmStartStats warmStart(const ProfileData &Profile);

  /// Snapshots the AOS decision state into a v2 profile (the
  /// `--profile-out` path). \p Workload is recorded as provenance in the
  /// [meta] section. The inverse of warmStart() up to name resolution.
  ProfileData snapshotProfile(const std::string &Workload) const;

  void onSample(VirtualMachine &SampledVm, ThreadState &Thread,
                bool AtPrologue) override;

  //===--------------------------------------------------------------------===//
  // Introspection for tests, examples, and the experiment harness.
  //===--------------------------------------------------------------------===//

  const DynamicCallGraph &dcg() const { return Dcg; }
  const InlineRuleSet &rules() const { return Rules; }
  const AosDatabase &database() const { return Db; }
  /// Estimator calibration state (fed on every install, consulted only
  /// by the budget organizer's pricing).
  const SizeCalibration &calibration() const { return Calib; }
  const Controller &controller() const { return Ctrl; }
  const AosStats &stats() const { return Stats; }
  const OsrManager &osr() const { return OsrMgr; }
  const OsrStats &osrStats() const { return OsrMgr.stats(); }
  ContextPolicy &policy() { return Policy; }
  TraceListener &traceListener() { return TraceL; }
  const TraceListener &traceListener() const { return TraceL; }
  const AosSystemConfig &config() const { return Config; }

private:
  void methodOrganizerWakeup();
  void dcgOrganizerWakeup();
  void decayWakeup();
  void missingEdgeWakeup();
  void processCompilationQueue();
  /// Dispatches rule codification to the configured organizer and folds
  /// budget stats / budget-decision trace events in. Returns the scanned
  /// work-item count for overhead accounting.
  size_t rebuildInlineRules(uint64_t NowCycle);

  VirtualMachine &VM;
  ContextPolicy &Policy;
  AosSystemConfig Config;

  MethodListener MethodL;
  TraceListener TraceL;
  DynamicCallGraph Dcg;
  InlineRuleSet Rules;
  AdaptiveInliningOrganizer AiOrg;
  BudgetInliningOrganizer BudgetOrg;
  SizeCalibration Calib;
  Controller Ctrl;
  AosDatabase Db;
  OptimizingCompiler Compiler;
  OsrManager OsrMgr;
  CodeShareClient *ShareClient = nullptr;
  std::deque<CompilationRequest> CompileQueue;
  AosStats Stats;
  /// Audit-only ledger: every trace ever handed to the DCG (listener
  /// drains plus seeded profiles). The invariant auditor cross-checks the
  /// DCG's distinct-trace count against it after each organizer wakeup.
  uint64_t AuditTracesFed = 0;
};

} // namespace aoci

#endif // AOCI_CORE_ADAPTIVESYSTEM_H
