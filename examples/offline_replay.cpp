//===- examples/offline_replay.cpp - Online vs profile-seeded runs ---------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The paper's related work contrasts its online system with offline
// profile-directed inlining: "train" on one run, feed the profile into
// the next. This example runs that pipeline on the SPECjbb2000 stand-in,
// whose transaction mix flips halfway through, with the persisted AOS
// state of a training run (a v2 profile, see docs/profile-format.md)
// warm-starting each production run:
//
//  1. ONLINE      — the paper's system, profiling from scratch;
//  2. WARM-FULL   — seeded from a full training run (both phases);
//  3. WARM-PHASE1 — seeded from a training run cut short in the
//                   NewOrder-heavy phase 1, so the profile never saw the
//                   Payment-heavy phase 2.
//
// It prints each production run's cycles, optimizing compilations and
// guard fallbacks, and the speedup of each seeded run over the online
// one. A seeded run keeps adapting online: seeded weights decay like
// organic ones and phase 2 is profiled as it runs. So the phase-1
// profile is not the "variations in program behavior between the
// training and production runs" failure the paper attributes to frozen
// offline pipelines; it still saves the warm-up it covers, and here both
// seeded runs finish ahead of the online one.
//
//===----------------------------------------------------------------------===//

#include "core/AdaptiveSystem.h"
#include "profile/ProfileIo.h"
#include "support/Statistics.h"
#include "workload/Workload.h"

#include <cstdio>

using namespace aoci;

namespace {

/// Runs jbb under fixed(2) and returns its final AOS state as v2 profile
/// text. \p TrainScale < full truncates training to the NewOrder-heavy
/// phase.
std::string trainProfile(double TrainScale) {
  WorkloadParams Params;
  Params.Scale = TrainScale;
  Workload W = makeWorkload("SPECjbb2000", Params);
  VirtualMachine VM(W.Prog);
  auto Policy = makePolicy(PolicyKind::Fixed, 2);
  AdaptiveSystem Aos(VM, *Policy);
  Aos.attach();
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  VM.run();
  return serializeProfileData(Aos.snapshotProfile(W.Name));
}

/// Runs the full production workload, warm-started from \p Profile when
/// it is non-empty, and returns its wall cycles (0 on a parse error).
uint64_t runProduction(const std::string &Profile, const char *Label) {
  Workload W = makeWorkload("SPECjbb2000", WorkloadParams{});
  VirtualMachine VM(W.Prog);
  auto Policy = makePolicy(PolicyKind::Fixed, 2);
  AdaptiveSystem Aos(VM, *Policy);
  Aos.attach();
  if (!Profile.empty()) {
    ProfileData Data;
    std::string Error;
    if (!parseProfile(Profile, Data, Error)) {
      std::fprintf(stderr, "profile replay failed: %s\n", Error.c_str());
      return 0;
    }
    Aos.warmStart(Data);
  }
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  VM.run();
  std::printf("  %-12s %12llu cycles, %llu optimizing compilations, "
              "%llu guard fallbacks\n",
              Label, static_cast<unsigned long long>(VM.cycles()),
              static_cast<unsigned long long>(Aos.stats().OptCompilations),
              static_cast<unsigned long long>(
                  VM.counters().GuardFallbacks));
  return VM.cycles();
}

} // namespace

int main() {
  std::printf("SPECjbb2000 stand-in: online vs profile-seeded inlining\n\n");

  std::printf("training (full run, both phases)...\n");
  std::string FullProfile = trainProfile(1.0);
  std::printf("training (truncated: phase-1 behaviour only)...\n");
  // A short training run never reaches the Payment-heavy phase.
  std::string Phase1Profile = trainProfile(0.2);

  std::printf("\nproduction runs:\n");
  uint64_t Online = runProduction("", "online");
  uint64_t WarmFull = runProduction(FullProfile, "warm-full");
  uint64_t WarmPhase1 = runProduction(Phase1Profile, "warm-phase1");
  if (Online == 0 || WarmFull == 0 || WarmPhase1 == 0)
    return 1;

  std::printf("\nwarm-full vs online:   %+.2f%%\n",
              speedupPercent(static_cast<double>(Online),
                             static_cast<double>(WarmFull)));
  std::printf("warm-phase1 vs online: %+.2f%% (phase-1-only training)\n",
              speedupPercent(static_cast<double>(Online),
                             static_cast<double>(WarmPhase1)));
  return 0;
}
