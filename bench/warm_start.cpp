//===- bench/warm_start.cpp - Cold vs. warm vs. stale comparison ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The online -> PGO bridge, measured: for every Table 1 workload this
// runs three legs and compares time-to-steady-state with the harness's
// detector (harness/SteadyState.h):
//
//   cold   a fresh adaptive system, profile captured at completion
//   warm   the same run re-seeded from the cold leg's profile
//          (`--warm-start` on the CLI); same workload seed, so the
//          profile is exactly right for what is about to execute
//   stale  re-seeded from a profile trained on a *phase-shifted* input
//          (different workload seed), with OSR on and a bounded code
//          cache, so wrong warm-start decisions must be walked back
//          through the decay organizer, deoptimization, and eviction
//          paths rather than merely ignored. Runs at min(scale, 0.3):
//          its verdict is counters and result equality, and the
//          eviction churn is host-expensive at larger scales
//
// Gates (exit nonzero on failure):
//   - the warm leg reaches steady state in fewer simulated cycles than
//     the cold leg on at least 6 of the 8 workloads. A cold leg that
//     never settles within the run is a censored observation (its
//     time-to-steady-state exceeds the wall); the warm leg wins it by
//     settling below that wall. compress is the known exception: its
//     profile replays a run that was already optimal from the first
//     compile, so warm is bit-identical to cold — an exact tie;
//   - every stale leg completes with the same program result as cold
//     and, whenever its profile seeded any DCG traces, a nonzero
//     decay-drop counter (the stale state visibly fades out instead of
//     wedging the system);
//   - across all stale legs, the deopt counter is nonzero (wrong
//     speculation actually exercised the walk-back machinery).
//
// Honors AOCI_SCALE like the figure sweeps. With --json FILE it also
// writes the per-leg warmup cycles in google-benchmark JSON shape so
// tools/check_bench_regression.py can gate run-over-run drift
// (BENCH_warm_start.json in CI).
//
//===----------------------------------------------------------------------===//

#include "BenchScale.h"
#include "harness/Experiment.h"
#include "harness/SteadyState.h"
#include "profile/ProfileIo.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace aoci;

namespace {

/// The workload seed the stale legs train on. Any value other than the
/// production seed (WorkloadParams default, 1) phase-shifts the
/// procedural input streams, which is what makes the profile stale.
constexpr uint64_t StaleTrainingSeed = 99;

struct Leg {
  bool Completed = false;
  int64_t ProgramResult = 0;
  uint64_t WallCycles = 0;
  uint64_t WarmupCycles = 0;
  bool SteadyReached = false;
  uint64_t OptCompileCycles = 0;
  uint64_t WarmApplied = 0;
  uint64_t WarmDropped = 0;
  uint64_t DecayDropped = 0;
  uint64_t Deopts = 0;
};

RunConfig baseConfig(const std::string &Workload, double Scale) {
  RunConfig Config;
  Config.WorkloadName = Workload;
  Config.Params.Scale = Scale;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  return Config;
}

Leg runLeg(RunConfig Config) {
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  Config.Trace = &Sink;
  const RunResult R = runExperiment(Config);
  const SteadyStateResult V = detectSteadyState(Sink, R.WallCycles);
  Leg L;
  L.Completed = true;
  L.ProgramResult = R.ProgramResult;
  L.WallCycles = R.WallCycles;
  L.WarmupCycles = V.WarmupCycles;
  L.SteadyReached = V.Reached;
  L.OptCompileCycles = R.OptCompileCycles;
  L.WarmApplied = R.WarmStartApplied;
  L.WarmDropped = R.WarmStartDropped;
  L.DecayDropped = R.DecayEntriesDropped;
  L.Deopts = R.Deopts;
  return L;
}

/// Trains a profile: runs \p Config untraced with capture on and parses
/// the snapshot. Returns null (and reports) if the snapshot fails to
/// round-trip, which would be a ProfileIo bug.
std::shared_ptr<const ProfileData> trainProfile(RunConfig Config) {
  Config.CaptureProfile = true;
  const RunResult R = runExperiment(Config);
  auto Profile = std::make_shared<ProfileData>();
  std::string Error;
  if (!parseProfile(R.CapturedProfile, *Profile, Error)) {
    std::printf("FATAL: captured profile for %s failed to parse: %s\n",
                Config.WorkloadName.c_str(), Error.c_str());
    return nullptr;
  }
  return Profile;
}

} // namespace

int main(int argc, char **argv) {
  // Line-buffer stdout so CI's tee shows per-workload progress live.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::string JsonPath;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
    } else {
      std::fprintf(stderr, "usage: warm_start [--json FILE]\n");
      return 2;
    }
  }

  const double Scale = benchScale();

  const std::vector<std::string> &Workloads = workloadNames();
  unsigned WarmFaster = 0;
  bool StaleOk = true;
  uint64_t TotalStaleDeopts = 0;
  std::string Json;

  std::printf("%-14s %14s %14s %14s %12s %10s  %s\n", "workload",
              "cold warmup", "warm warmup", "stale warmup", "cy saved",
              "compile cy", "stale verdict");
  for (const std::string &W : Workloads) {
    // Cold leg doubles as the warm leg's trainer: capture its profile.
    RunConfig Cold = baseConfig(W, Scale);
    Cold.CaptureProfile = true;
    TraceSink ColdSink;
    ColdSink.enable(steadyStateKindMask());
    Cold.Trace = &ColdSink;
    const RunResult ColdR = runExperiment(Cold);
    const SteadyStateResult ColdV = detectSteadyState(ColdSink, ColdR.WallCycles);

    auto Profile = std::make_shared<ProfileData>();
    std::string Error;
    if (!parseProfile(ColdR.CapturedProfile, *Profile, Error)) {
      std::printf("FATAL: captured profile for %s failed to parse: %s\n",
                  W.c_str(), Error.c_str());
      return 1;
    }

    RunConfig WarmCfg = baseConfig(W, Scale);
    WarmCfg.WarmStart = Profile;
    const Leg Warm = runLeg(WarmCfg);

    // Stale leg: train at a phase-shifted seed, then run the production
    // seed warm-started from it with OSR and a bounded code cache on so
    // wrong decisions get deoptimized and evicted, not just decayed.
    //
    // These robustness legs run at a capped scale: their verdict is
    // counters and result equality, not timing, and the bounded cache's
    // evict -> recompile -> re-interpret churn makes them one to two
    // orders of magnitude more host-expensive per simulated cycle than
    // the cold/warm legs — at full scale they cost the better part of
    // an hour for no additional signal.
    const double StaleScale = std::min(Scale, 0.3);
    RunConfig Train = baseConfig(W, StaleScale);
    Train.Params.Seed = StaleTrainingSeed;
    std::shared_ptr<const ProfileData> StaleProfile = trainProfile(Train);
    if (!StaleProfile)
      return 1;
    RunConfig StaleCfg = baseConfig(W, StaleScale);
    StaleCfg.WarmStart = StaleProfile;
    StaleCfg.Aos.Osr.Enabled = true;
    StaleCfg.Model.CodeCache.CapacityBytes = 6000;
    // The stock decay (every 120 samples, factor 0.95) needs ~10k
    // samples to push a seeded weight below the retention threshold —
    // far more than one run delivers. Tighten it so the stale state's
    // fade-out is observable within the run, the same move the
    // phase-flip scenario test makes (the counters are under test
    // here, not the default decay schedule).
    StaleCfg.Aos.DecayPeriodSamples = 16;
    StaleCfg.Aos.DecayFactor = 0.5;
    const Leg Stale = runLeg(StaleCfg);

    // Reference for the stale correctness check: a default-config cold
    // run at the stale legs' scale. The simulated program result is
    // configuration-invariant (OSR, cache bounds, and profiles never
    // change what the program computes — pinned by the OSR and
    // code-cache differential tests), so the cheap unbounded run is the
    // same oracle as an OSR + thrashing-cache cold leg would be.
    RunConfig StaleRefCfg = baseConfig(W, StaleScale);
    const RunResult StaleRef = runExperiment(StaleRefCfg);

    // A warm win: the warm leg settles and either does so in strictly
    // fewer cycles than cold, or the cold leg never settles within the
    // run at all — a censored observation whose time-to-steady-state
    // exceeds the wall, which the warm warmup is already below.
    const bool ColdCensored =
        !ColdV.Reached && Warm.WarmupCycles < ColdR.WallCycles;
    if (Warm.SteadyReached &&
        (ColdCensored ||
         (ColdV.Reached && Warm.WarmupCycles < ColdV.WarmupCycles)))
      ++WarmFaster;
    // The decay requirement only applies when there is seeded DCG state
    // to decay: compress's phase-shifted profile is hot-method-only
    // (its single hot loop's traces have decayed away by snapshot
    // time), so its [dcg] section is empty and nothing can drop.
    const bool ThisStaleOk =
        Stale.Completed && Stale.ProgramResult == StaleRef.ProgramResult &&
        (StaleProfile->DcgTraces.empty() || Stale.DecayDropped > 0);
    StaleOk &= ThisStaleOk;
    TotalStaleDeopts += Stale.Deopts;

    const int64_t Saved = static_cast<int64_t>(ColdV.WarmupCycles) -
                          static_cast<int64_t>(Warm.WarmupCycles);
    const int64_t CompileSaved = static_cast<int64_t>(ColdR.OptCompileCycles) -
                                 static_cast<int64_t>(Warm.OptCompileCycles);
    std::printf("%-14s %13llu%s %13llu%s %14llu %12lld %10lld  %s (%llu "
                "dropped, %llu decayed, %llu deopts)\n",
                W.c_str(),
                static_cast<unsigned long long>(ColdV.WarmupCycles),
                ColdV.Reached ? " " : "*",
                static_cast<unsigned long long>(Warm.WarmupCycles),
                Warm.SteadyReached ? " " : "*",
                static_cast<unsigned long long>(Stale.WarmupCycles),
                static_cast<long long>(Saved),
                static_cast<long long>(CompileSaved),
                ThisStaleOk ? "ok" : "FAILED",
                static_cast<unsigned long long>(Stale.WarmDropped),
                static_cast<unsigned long long>(Stale.DecayDropped),
                static_cast<unsigned long long>(Stale.Deopts));

    // One google-benchmark row per leg; "real_time" carries simulated
    // warmup cycles so the regression gate tracks time-to-steady-state.
    for (const auto &[LegName, Warmup] :
         {std::pair<const char *, uint64_t>{"cold", ColdV.WarmupCycles},
          {"warm", Warm.WarmupCycles},
          {"stale", Stale.WarmupCycles}}) {
      if (!Json.empty())
        Json += ",\n";
      Json += formatString("    {\"name\": \"warm_start/%s/%s\", "
                           "\"run_type\": \"iteration\", \"iterations\": 1, "
                           "\"real_time\": %llu, \"cpu_time\": %llu, "
                           "\"time_unit\": \"ns\"}",
                           W.c_str(), LegName,
                           static_cast<unsigned long long>(Warmup),
                           static_cast<unsigned long long>(Warmup));
    }
  }

  bool Pass = true;
  std::printf("\n(* = leg never settled within the run; its warmup is the "
              "last compile-activity cycle)\n");
  std::printf("warm start beat cold start on %u of %zu workloads "
              "(gate: at least 6 of 8)\n",
              WarmFaster, Workloads.size());
  if (WarmFaster < 6) {
    std::printf("warm-start gate FAILED: warm start must reach steady state "
                "sooner than cold on at least 6 workloads\n");
    Pass = false;
  }
  if (!StaleOk) {
    std::printf("stale-profile gate FAILED: a stale leg diverged or never "
                "exercised decay\n");
    Pass = false;
  }
  if (TotalStaleDeopts == 0) {
    std::printf("stale-profile gate FAILED: no stale leg deoptimized — the "
                "walk-back path was never exercised\n");
    Pass = false;
  }
  if (Pass)
    std::printf("warm-start gate passed (stale legs: %llu deopts total)\n",
                static_cast<unsigned long long>(TotalStaleDeopts));

  if (!JsonPath.empty()) {
    std::FILE *F = std::fopen(JsonPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::fprintf(F,
                 "{\n  \"context\": {\"scale\": %g},\n  \"benchmarks\": [\n%s"
                 "\n  ]\n}\n",
                 Scale, Json.c_str());
    std::fclose(F);
  }
  return Pass ? 0 : 1;
}
