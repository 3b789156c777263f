//===- bench/budget_inline.cpp - Budget vs. threshold organizer -------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The budget organizer's head-to-head against the paper's 1.5%-threshold
// organizer: for every Table 1 workload this runs one leg under each
// organizer (same policy, depth, and jitter seed — deriveRunSeed ignores
// the organizer kind, so the timer streams are comparable) and compares
// time-to-steady-state with the harness's detector. Two adversarial
// scenarios ride along ungated: scn-phase-flip never settles by design,
// and scn-megamorphic-storm floods the DCG with candidates, which is
// exactly the profile the budgets exist to contain — their rows document
// behaviour under stress rather than gate it.
//
// Gate (exit nonzero on failure): the budget leg reaches steady state no
// later than the threshold leg on at least 4 of the 8 Table 1 workloads.
// A threshold leg that never settles is a censored observation; the
// budget leg wins it by settling at all.
//
// Honors AOCI_SCALE like the figure sweeps. With --json FILE it writes
// per-leg warmup cycles in google-benchmark JSON shape so
// tools/check_bench_regression.py can gate run-over-run drift
// (BENCH_budget.json in CI).
//
//===----------------------------------------------------------------------===//

#include "BenchScale.h"
#include "harness/Experiment.h"
#include "harness/SteadyState.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace aoci;

namespace {

struct Leg {
  uint64_t WallCycles = 0;
  uint64_t WarmupCycles = 0;
  bool SteadyReached = false;
  uint64_t OptBytesGenerated = 0;
  uint64_t BudgetUnitsSpent = 0;
  uint64_t BudgetCandidatesPruned = 0;
  double EstimateErrorPct = 0.0;
};

Leg runLeg(const std::string &Workload, double Scale,
           InlineOrganizerKind Organizer) {
  RunConfig Config;
  Config.WorkloadName = Workload;
  Config.Params.Scale = Scale;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Aos.Organizer = Organizer;
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  Config.Trace = &Sink;
  const RunResult R = runExperiment(Config);
  const SteadyStateResult V = detectSteadyState(Sink, R.WallCycles);
  Leg L;
  L.WallCycles = R.WallCycles;
  L.WarmupCycles = V.WarmupCycles;
  L.SteadyReached = V.Reached;
  L.OptBytesGenerated = R.OptBytesGenerated;
  L.BudgetUnitsSpent = R.BudgetUnitsSpent;
  L.BudgetCandidatesPruned = R.BudgetCandidatesPruned;
  L.EstimateErrorPct = R.EstimateErrorPct;
  return L;
}

struct Entry {
  const char *Workload;
  bool Gated; // Table 1 rows gate; scenario adversaries only report.
};

const Entry Adversaries[] = {{"scn-phase-flip", false},
                             {"scn-megamorphic-storm", false}};

} // namespace

int main(int argc, char **argv) {
  // Line-buffer stdout so CI's tee shows per-workload progress live.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::string JsonPath;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
    } else {
      std::fprintf(stderr, "usage: budget_inline [--json FILE]\n");
      return 2;
    }
  }

  const double Scale = benchScale();

  std::vector<Entry> Benchmarks;
  for (const std::string &W : workloadNames())
    Benchmarks.push_back({W.c_str(), true});
  for (const Entry &A : Adversaries)
    Benchmarks.push_back(A);

  unsigned BudgetWins = 0, Gated = 0;
  std::string Json;
  std::printf("%-22s %14s %14s %12s %10s %8s  %s\n", "workload",
              "thresh warmup", "budget warmup", "units spent", "pruned",
              "est err", "verdict");
  for (const Entry &B : Benchmarks) {
    const Leg Thresh = runLeg(B.Workload, Scale, InlineOrganizerKind::Threshold);
    const Leg Budget = runLeg(B.Workload, Scale, InlineOrganizerKind::Budget);

    // A budget win/tie: the budget leg settles no later than threshold,
    // or threshold never settles at all (censored — its time-to-steady-
    // state exceeds the wall the budget leg's warmup is already below).
    const bool ThreshCensored =
        !Thresh.SteadyReached && Budget.WarmupCycles < Thresh.WallCycles;
    const bool Win =
        Budget.SteadyReached &&
        (ThreshCensored ||
         (Thresh.SteadyReached &&
          Budget.WarmupCycles <= Thresh.WarmupCycles));
    if (B.Gated) {
      ++Gated;
      BudgetWins += Win ? 1 : 0;
    }
    std::printf("%-22s %13llu%s %13llu%s %12llu %10llu %7.1f%%  %s%s\n",
                B.Workload,
                static_cast<unsigned long long>(Thresh.WarmupCycles),
                Thresh.SteadyReached ? " " : "*",
                static_cast<unsigned long long>(Budget.WarmupCycles),
                Budget.SteadyReached ? " " : "*",
                static_cast<unsigned long long>(Budget.BudgetUnitsSpent),
                static_cast<unsigned long long>(Budget.BudgetCandidatesPruned),
                Budget.EstimateErrorPct,
                Win ? "budget" : "threshold",
                B.Gated ? "" : " [ungated]");

    // One google-benchmark row per leg; "real_time" carries simulated
    // warmup cycles so the regression gate tracks time-to-steady-state.
    for (const auto &[LegName, Warmup] :
         {std::pair<const char *, uint64_t>{"threshold", Thresh.WarmupCycles},
          {"budget", Budget.WarmupCycles}}) {
      if (!Json.empty())
        Json += ",\n";
      Json += formatString("    {\"name\": \"budget_inline/%s/%s\", "
                           "\"run_type\": \"iteration\", \"iterations\": 1, "
                           "\"real_time\": %llu, \"cpu_time\": %llu, "
                           "\"time_unit\": \"ns\"}",
                           B.Workload, LegName,
                           static_cast<unsigned long long>(Warmup),
                           static_cast<unsigned long long>(Warmup));
    }
  }

  std::printf("\n(* = leg never settled within the run; its warmup is the "
              "last compile-activity cycle)\n");
  std::printf("budget organizer beat or tied threshold on %u of %u Table 1 "
              "workloads (gate: at least 4 of %u)\n",
              BudgetWins, Gated, Gated);
  const bool Pass = BudgetWins >= 4;
  if (!Pass)
    std::printf("budget-organizer gate FAILED: the budget organizer must "
                "reach steady state no later than the threshold organizer "
                "on at least 4 workloads\n");
  else
    std::printf("budget-organizer gate passed\n");

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
