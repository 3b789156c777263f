//===- tests/FingerprintTest.cpp - Simulated-clock regression fingerprint --===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Runs every registered workload briefly under every policy and compares
// the exact simulated clock and ExecutionCounters against a checked-in
// fixture. Host-side interpreter optimizations must never move a single
// simulated cycle (see DESIGN.md "Host fast path vs. simulated clock"),
// so any drift here is a bug in a hot-path refactor, not a formatting
// nit. To intentionally change the cost model or the adaptive system's
// behaviour, regenerate with AOCI_UPDATE_GOLDEN=1 and review the diff.
//
//===----------------------------------------------------------------------===//

#include "core/AdaptiveSystem.h"
#include "policy/ContextPolicy.h"
#include "vm/VirtualMachine.h"
#include "workload/Workload.h"

#include "GoldenFile.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace aoci;

namespace {

/// Cycle budget per run: enough timer samples (~100) for the adaptive
/// system to recompile, enter inlined code, and exercise guard-fallback
/// paths, small enough that the full workload x policy matrix stays fast.
constexpr uint64_t FingerprintCycleLimit = 20000000;

std::string fingerprintLine(const std::string &Workload, PolicyKind Policy,
                            const VirtualMachine &VM) {
  const ExecutionCounters &C = VM.counters();
  const CodeManager &Code = VM.codeManager();
  std::ostringstream Out;
  Out << Workload << ' ' << policyKindName(Policy)
      << " cycles=" << VM.cycles()
      << " instr=" << C.InstructionsExecuted
      << " calls=" << C.CallsExecuted
      << " inlined=" << C.InlinedCallsEntered
      << " guardTests=" << C.GuardTestsExecuted
      << " guardFalls=" << C.GuardFallbacks
      << " allocs=" << C.Allocations
      << " samples=" << C.SamplesTaken
      << " prologue=" << C.PrologueSamples
      << " compiles=" << Code.numCompiles(OptLevel::Baseline) << '/'
      << Code.numCompiles(OptLevel::Opt1) << '/'
      << Code.numCompiles(OptLevel::Opt2);
  return Out.str();
}

std::string fingerprintAll() {
  std::ostringstream Out;
  for (const std::string &Name : workloadNames()) {
    for (PolicyKind Policy : allPolicyKinds()) {
      WorkloadParams Params;
      Workload W = makeWorkload(Name, Params);
      VirtualMachine VM(W.Prog);
      std::unique_ptr<ContextPolicy> P = makePolicy(Policy, 3);
      AdaptiveSystem Aos(VM, *P);
      Aos.attach();
      for (MethodId Entry : W.Entries)
        VM.addThread(Entry);
      VM.run(FingerprintCycleLimit);
      Out << fingerprintLine(Name, Policy, VM) << '\n';
    }
  }
  return Out.str();
}

TEST(CycleFingerprintTest, AllWorkloadsAllPolicies) {
  expectMatchesGolden(goldenPath("cycle_fingerprint.golden"), fingerprintAll(),
                      "simulated cycles or counters changed. Host-side "
                      "optimizations must be clock-neutral; only an intended "
                      "cost-model or adaptive-behaviour change may "
                      "regenerate it");
}

} // namespace
