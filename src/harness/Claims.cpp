//===- harness/Claims.cpp - The reproduction's claims, checked ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/Claims.h"

#include "harness/Experiment.h"
#include "harness/Reporters.h"
#include "harness/Serve.h"
#include "harness/SteadyState.h"
#include "profile/ProfileIo.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "trace/TraceJson.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

using namespace aoci;

const std::vector<Claim> &aoci::claimsTable() {
  constexpr Comparator Ge = Comparator::AtLeast, Gt = Comparator::Above,
                       Le = Comparator::AtMost, Lt = Comparator::Below,
                       In = Comparator::Within, Pin = Comparator::Pinned;
  constexpr ClaimStatus Rep = ClaimStatus::Reproduced,
                        Dev = ClaimStatus::KnownDeviation;
  static const std::vector<Claim> Table = {
      // The abstract, over the 192 cells of the scale-1 Figure 4-6 grid.
      {"abstract.mean_speedup", "paper abstract",
       "mean speedup over cins, all grid cells", Pin, 3.4, 1.0,
       "within +-1%", Dev, "%", 1},
      {"abstract.min_speedup", "paper abstract", "lowest speedup of a cell",
       Pin, -8.7, 1.0, "-4.2%", Dev, "%", 1},
      {"abstract.max_speedup", "paper abstract", "highest speedup of a cell",
       Pin, 15.1, 1.0, "+5.3%", Dev, "%", 1},
      {"abstract.mean_code", "paper abstract",
       "mean optimized code size change", Pin, -0.3, 1.0, "~-10%", Dev, "%",
       1},
      {"abstract.max_code_cut", "paper abstract",
       "largest code size reduction of a cell", Pin, -28.5, 2.0, "-56.7%",
       Dev, "%", 1},
      {"abstract.mean_compile", "paper abstract",
       "mean optimizing compile time change", Pin, -5.4, 1.0, "~-10%", Dev,
       "%", 1},
      {"abstract.max_compile_cut", "paper abstract",
       "largest compile time reduction of a cell", Le, -33.0, 0, "-33.0%",
       Rep, "%", 1},
      // The grid's cins baselines against the paper's Table 1.
      {"table1.max_gap", "paper Table 1",
       "largest gap of a count from the paper's", Lt, 30, 0, "-", Rep, "%",
       1},
      // Figure 6, over cins and the 24 policy x depth bars.
      {"fig6.max_total", "paper Fig. 6", "largest total AOS share of a bar",
       Pin, 2.45, 0.25, "<= 1.8%", Dev, "%", 2},
      {"fig6.max_listeners", "paper Fig. 6",
       "largest AOS-listener share of a bar", Lt, 0.06, 0, "< 0.06%", Rep,
       "%", 3},
      {"fig6.best_compile_cut", "paper Fig. 6",
       "largest change of the compile-thread share vs cins", In, -33, -8,
       "-8..-33%", Rep, "%", 1},
      {"fig6.least_compile_cut", "paper Fig. 6",
       "smallest change of the compile-thread share vs cins", Pin, -1.0, 0.5,
       "-8..-33%", Dev, "%", 1},
      // Section 4: suite means of the trace listener's chain statistics
      // at fixed depth 5, scale 1.
      {"sec4.callee_paramless", "paper Sec. 4",
       "sampled callees taking no parameters", Pin, 14.8, 3, "~20%", Dev,
       "%", 1},
      {"sec4.paramless_within_5", "paper Sec. 4",
       "traces with a parameterless call within 5 levels", Pin, 99.1, 2,
       "50-80%", Dev, "%", 1},
      {"sec4.class_within_2", "paper Sec. 4",
       "traces with a class method within 2 edges", In, 50, 80, "50-80%",
       Rep, "%", 1},
      {"sec4.large_at_4", "paper Sec. 4",
       "traces needing 4+ edges to reach a large method", Pin, 41.0, 3,
       "~50%", Dev, "%", 1},
      // Design ablations on fixed depth 3: the choices at scale 1 (each
      // against its grid cell), OSR at scale 0.3.
      {"ablation.threshold_5pct", "paper fn. 4",
       "jess speedup with a 5% hot-trace threshold", Lt, 0, 0, "1.5% chosen",
       Rep, "%", 1},
      {"ablation.threshold_5pct_fallbacks", "paper fn. 4",
       "guard fallbacks a 5% threshold adds to jess", Gt, 0, 0, "-", Rep, "",
       0},
      {"ablation.threshold_0_5pct", "paper fn. 4",
       "jess speedup with a 0.5% hot-trace threshold", In, -0.5, 0.5,
       "1.5% chosen", Rep, "%", 1},
      {"ablation.no_decay", "paper Sec. 3",
       "SPECjbb2000 speedup without the decay organizer", Pin, 3.4, 1.0, "-",
       Dev, "%", 1},
      {"ablation.naive_walk", "paper Sec. 3.3",
       "jess speedup with the naive stack walk", Lt, 0, 0, "-", Rep, "%", 1},
      {"ablation.naive_walk_fallbacks", "paper Sec. 3.3",
       "guard fallbacks the naive walk adds to jess", Gt, 0, 0, "-", Rep, "",
       0},
      {"ablation.deep_edges_jess", "ext. deep edges",
       "jess speedup with the deep missing-edge organizer", Gt, 0, 0, "-",
       Rep, "%", 1},
      {"ablation.deep_edges_db", "ext. deep edges",
       "db speedup with the deep missing-edge organizer", Gt, 0, 0, "-", Rep,
       "%", 1},
      {"ablation.osr_compress", "ext. OSR", "compress speedup with OSR", Gt,
       0, 0, "-", Rep, "%", 1},
      {"ablation.osr_mpegaudio", "ext. OSR", "mpegaudio speedup with OSR", Gt,
       0, 0, "-", Rep, "%", 1},
      {"ablation.osr_mpegaudio_entries", "ext. OSR",
       "OSR entries behind mpegaudio's speedup", In, 1, 1, "-", Rep, "", 0},
      // The steady-state gates: perf numbers count only from runs that
      // settle (scale 1).
      {"steady.cins_settled", "ext. steady state",
       "cins baselines that settle", Ge, 8, 0, "-", Rep, "", 0},
      {"steady.fixed3_settled", "ext. steady state",
       "compress, jess, db, mpegaudio at fixed depth 3 that settle", Ge, 4,
       0, "-", Rep, "", 0},
      // Warm start at scale 0.6; the stale legs at scale 0.3.
      {"warm.beats_cold", "ext. warm start",
       "workloads where warm settles sooner than cold", Ge, 6, 0, "-", Rep,
       "", 0},
      {"warm.stale_result", "ext. warm start",
       "stale legs computing cold's program result", Ge, 8, 0, "-", Rep, "",
       0},
      {"warm.stale_decay", "ext. warm start",
       "stale legs whose seeded traces decay (or had none)", Ge, 8, 0, "-",
       Rep, "", 0},
      {"warm.stale_deopts", "ext. warm start", "deopts over the stale legs",
       Gt, 0, 0, "-", Rep, "", 0},
      // The budget organizer against the paper's threshold, scale 0.6.
      {"budget.ties_or_beats", "ext. budget organizer",
       "workloads where budget settles no later than threshold", Ge, 6, 0,
       "-", Rep, "", 0},
      // Four serve sessions of each workload against one solo run, scale
      // 0.6; the mixed serve at scale 0.3.
      {"share.hit_rate", "ext. serve", "shared-index hit rate", Gt, 50, 0,
       "-", Rep, "%", 1},
      {"share.paid", "ext. serve",
       "compile cycles serve pays, of 4x the solo bill", Lt, 60, 0, "-", Rep,
       "%", 1},
      {"share.worst_paid", "ext. serve",
       "the same, for the workload that pays the most", Lt, 80, 0, "-", Rep,
       "%", 1},
      {"share.results_match", "ext. serve",
       "workloads whose sessions all compute the solo result", Ge, 8, 0, "-",
       Rep, "", 0},
      {"share.jobs_identical", "ext. serve",
       "mixed-serve csv and trace identical at --jobs 1 and 4", Ge, 2, 0, "-",
       Rep, "", 0},
  };
  return Table;
}

ClaimVerdict aoci::checkClaim(const Claim &C, std::optional<double> Value) {
  if (!Value)
    return {};
  const double V = *Value;
  switch (C.Cmp) {
  case Comparator::AtLeast:
    return {V >= C.Bound, V - C.Bound};
  case Comparator::Above:
    return {V > C.Bound, V - C.Bound};
  case Comparator::AtMost:
    return {V <= C.Bound, C.Bound - V};
  case Comparator::Below:
    return {V < C.Bound, C.Bound - V};
  case Comparator::Within: {
    const double Margin = std::min(V - C.Bound, C.Bound2 - V);
    return {Margin >= 0, Margin};
  }
  case Comparator::Pinned: {
    const double Margin = C.Bound2 - std::abs(V - C.Bound);
    return {Margin >= 0, Margin};
  }
  }
  return {};
}

bool aoci::settlesSooner(const SteadyLeg &Challenger,
                         const SteadyLeg &Incumbent, bool TiesWin) {
  if (!Challenger.Reached)
    return false;
  if (!Incumbent.Reached)
    return Challenger.WarmupCycles < Incumbent.WallCycles;
  return Challenger.WarmupCycles < Incumbent.WarmupCycles ||
         (TiesWin && Challenger.WarmupCycles == Incumbent.WarmupCycles);
}

namespace {

std::string formatValue(const Claim &C, double V) {
  return formatString("%.*f%s", C.Decimals, V, C.Unit);
}

std::string formatBound(const Claim &C) {
  switch (C.Cmp) {
  case Comparator::AtLeast:
    return ">= " + formatValue(C, C.Bound);
  case Comparator::Above:
    return "> " + formatValue(C, C.Bound);
  case Comparator::AtMost:
    return "<= " + formatValue(C, C.Bound);
  case Comparator::Below:
    return "< " + formatValue(C, C.Bound);
  case Comparator::Within:
    return formatString("%.*f..", C.Decimals, C.Bound) +
           formatValue(C, C.Bound2);
  case Comparator::Pinned:
    return formatString("%.*f+-", C.Decimals, C.Bound) +
           formatValue(C, C.Bound2);
  }
  return "";
}

/// A JSON number, or null for a value JSON cannot hold.
std::string jsonNumber(double V) {
  return std::isfinite(V) ? formatString("%.10g", V) : "null";
}

/// Left-aligned columns, two spaces apart; the last is not padded.
std::string renderColumns(const std::vector<std::vector<std::string>> &Rows) {
  std::vector<size_t> Widths(Rows.front().size(), 0);
  for (const auto &Row : Rows)
    for (size_t C = 0; C != Row.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());
  std::string Out;
  for (const auto &Row : Rows) {
    for (size_t C = 0; C != Row.size(); ++C) {
      Out += Row[C];
      if (C + 1 != Row.size())
        Out.append(Widths[C] - Row[C].size() + 2, ' ');
    }
    Out += '\n';
  }
  return Out;
}

} // namespace

ClaimsReport aoci::reportClaims(const std::vector<Claim> &Claims,
                                const Measurements &Measured,
                                const std::vector<DriftRow> &Drift) {
  ClaimsReport Report;
  std::vector<std::vector<std::string>> Rows = {
      {"id", "source", "measured", "bound", "paper", "margin", "status",
       "quantity"}};
  std::string ClaimsJson;
  unsigned Failed = 0;
  for (const Claim &C : Claims) {
    const auto It = Measured.find(C.Id);
    const Measurement *M = It == Measured.end() ? nullptr : &It->second;
    const ClaimVerdict V =
        checkClaim(C, M ? std::optional<double>(M->Value) : std::nullopt);
    const std::string Status = C.Status == ClaimStatus::Reproduced
                                   ? "reproduced"
                                   : "known deviation";
    Failed += !V.Pass;
    const std::string Note = M ? M->Note : "";
    Rows.push_back(
        {C.Id, C.Source, M ? formatValue(C, M->Value) : "-", formatBound(C),
         C.Paper, M ? formatString("%+.*f", C.Decimals, V.Margin) : "-",
         V.Pass ? Status
                : "FAIL (" + (M ? Status : std::string("unmeasured")) + ")",
         Note.empty() ? C.Quantity
                      : std::string(C.Quantity) + " (" + Note + ")"});
    ClaimsJson += formatString(
        "%s    {\"id\": \"%s\", \"source\": \"%s\", \"quantity\": \"%s\", "
        "\"measured\": %s, \"bound\": \"%s\", \"paper\": \"%s\", "
        "\"margin\": %s, \"status\": \"%s\", \"pass\": %s, \"note\": "
        "\"%s\"}",
        ClaimsJson.empty() ? "" : ",\n", C.Id, jsonEscape(C.Source).c_str(),
        jsonEscape(C.Quantity).c_str(),
        M ? jsonNumber(M->Value).c_str() : "null",
        jsonEscape(formatBound(C)).c_str(), jsonEscape(C.Paper).c_str(),
        M ? jsonNumber(V.Margin).c_str() : "null", Status.c_str(),
        V.Pass ? "true" : "false", jsonEscape(Note).c_str());
  }
  Report.Pass = Failed == 0;
  Report.Text = "Claims: each row's measured value against its bound. The "
                "margin is the slack to the bound: a row passes when it is "
                "positive, or zero on an inclusive bound\n\n" +
                renderColumns(Rows) +
                formatString("\n%zu claims: %zu pass, %u FAILED\n",
                             Claims.size(), Claims.size() - Failed, Failed);

  // google-benchmark's row shape. A higher-is-better value also goes in
  // items_per_second, which the checker prefers and reads that way.
  std::string Benchmarks;
  for (const DriftRow &R : Drift) {
    const unsigned long long V = R.Value;
    Benchmarks += formatString(
        "%s    {\"name\": \"%s\", \"run_type\": \"iteration\", "
        "\"iterations\": 1, \"real_time\": %llu, \"cpu_time\": %llu, "
        "\"time_unit\": \"ns\"%s}",
        Benchmarks.empty() ? "" : ",\n", jsonEscape(R.Name).c_str(), V, V,
        R.HigherIsBetter
            ? formatString(", \"items_per_second\": %llu", V).c_str()
            : "");
  }
  Report.Json = "{\n  \"benchmarks\": [\n" + Benchmarks +
                "\n  ],\n  \"claims\": [\n" + ClaimsJson + "\n  ]\n}\n";
  return Report;
}

namespace {

/// The state the studies share: the pool their legs run on (one executor
/// per hardware thread, the calling thread included), and what they
/// measured.
struct Studies {
  void record(const char *Id, double Value, std::string Note = "") {
    Measured[Id] = {Value, std::move(Note)};
  }

  ThreadPool Pool{ThreadPool::workersFor(0)};
  Measurements Measured;
  std::vector<DriftRow> Drift;
};

/// "not: a, b" over the names in \p Names, or "" when there are none.
std::string notList(const std::vector<std::string> &Names) {
  std::string Out;
  for (const std::string &N : Names)
    Out += (Out.empty() ? "not: " : ", ") + N;
  return Out;
}

RunConfig fixedConfig(const std::string &Workload, double Scale,
                      unsigned Depth) {
  RunConfig Config;
  Config.WorkloadName = Workload;
  Config.Params.Scale = Scale;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = Depth;
  return Config;
}

/// Runs \p Config traced for the steady-state detector.
SteadyLeg runSteady(RunConfig Config, RunResult *Result = nullptr) {
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  Config.Trace = &Sink;
  RunResult R = runExperiment(Config);
  const SteadyStateResult V = detectSteadyState(Sink, R.WallCycles);
  const SteadyLeg Leg{V.Reached, V.WarmupCycles, R.WallCycles};
  if (Result)
    *Result = std::move(R);
  return Leg;
}

/// The Figure 4-6 grid at scale 1, traced for the steady-state detector.
/// Returns the fixed-depth-3 cells, the ablations' defaults.
std::map<std::string, RunResult> gridStudy(Studies &S) {
  GridConfig Config;
  Config.Trace = true;
  Config.TraceKindMask = steadyStateKindMask();
  const GridResults Grid = runGrid(Config, nullptr, /*Jobs=*/0);

  const GridSummary Sum = summarizeGrid(Grid);
  S.record("abstract.mean_speedup", Sum.MeanSpeedup);
  S.record("abstract.min_speedup", Sum.MinSpeedup);
  S.record("abstract.max_speedup", Sum.MaxSpeedup);
  S.record("abstract.mean_code", Sum.MeanCodeChange);
  S.record("abstract.max_code_cut", Sum.LargestCodeReduction);
  S.record("abstract.mean_compile", Sum.MeanCompileChange);
  S.record("abstract.max_compile_cut", Sum.LargestCompileReduction);

  double Gap = 0;
  std::string GapAt;
  for (const PaperTable1Row &P : paperTable1()) {
    const RunResult &R = Grid.baseline(P.Benchmark);
    auto compare = [&](const char *What, double Ours, double Paper) {
      const double G = std::abs(percentChange(Paper, Ours));
      if (G > Gap) {
        Gap = G;
        GapAt = formatString("%s %s, %.0f vs %.0f", P.Benchmark, What, Ours,
                             Paper);
      }
    };
    compare("classes", R.ClassesLoaded, P.Classes);
    compare("methods", R.MethodsCompiled, P.Methods);
    compare("bytecodes", static_cast<double>(R.BytecodesCompiled),
            static_cast<double>(P.Bytecodes));
  }
  S.record("table1.max_gap", Gap, GapAt);

  // Bars[0] is cins; the compile-share changes are the cells'.
  const std::vector<Figure6Bar> Bars = figure6Bars(Grid);
  const unsigned Listeners = static_cast<unsigned>(AosComponent::Listeners);
  const Figure6Bar &MaxTotal = *std::max_element(
      Bars.begin(), Bars.end(),
      [](const Figure6Bar &A, const Figure6Bar &B) {
        return A.Total < B.Total;
      });
  const Figure6Bar &MaxListeners = *std::max_element(
      Bars.begin(), Bars.end(), [&](const Figure6Bar &A, const Figure6Bar &B) {
        return A.Share[Listeners] < B.Share[Listeners];
      });
  const auto [Best, Least] = std::minmax_element(
      Bars.begin() + 1, Bars.end(),
      [](const Figure6Bar &A, const Figure6Bar &B) {
        return A.CompileShareChangePct < B.CompileShareChangePct;
      });
  S.record("fig6.max_total", MaxTotal.Total * 100, MaxTotal.Label);
  S.record("fig6.max_listeners", MaxListeners.Share[Listeners] * 100,
           MaxListeners.Label);
  S.record("fig6.best_compile_cut", Best->CompileShareChangePct, Best->Label);
  S.record("fig6.least_compile_cut", Least->CompileShareChangePct,
           Least->Label);

  // The steady-state gate covers every cins baseline, and fixed depth 3
  // on these four.
  const std::vector<std::string> SteadyGated = {"compress", "jess", "db",
                                                "mpegaudio"};
  std::vector<std::string> CinsNot, FixedNot;
  unsigned CinsSettled = 0, FixedSettled = 0;
  for (const RunMetrics &M : Grid.metrics()) {
    if (M.IsBaseline) {
      CinsSettled += M.SteadyReached;
      if (!M.SteadyReached)
        CinsNot.push_back(M.WorkloadName);
    } else if (M.Policy == PolicyKind::Fixed && M.MaxDepth == 3 &&
               std::count(SteadyGated.begin(), SteadyGated.end(),
                          M.WorkloadName)) {
      FixedSettled += M.SteadyReached;
      if (!M.SteadyReached)
        FixedNot.push_back(M.WorkloadName);
    }
  }
  S.record("steady.cins_settled", CinsSettled, notList(CinsNot));
  S.record("steady.fixed3_settled", FixedSettled, notList(FixedNot));

  std::map<std::string, RunResult> Defaults;
  for (const std::string &W : Grid.workloads())
    Defaults[W] = Grid.cell(W, PolicyKind::Fixed, 3);
  return Defaults;
}

/// The seed the stale legs train on. Any seed but the production one (1)
/// phase-shifts the workload's inputs, which makes the profile stale.
constexpr uint64_t StaleTrainingSeed = 99;

std::shared_ptr<const ProfileData> parseCaptured(const RunResult &R) {
  auto Profile = std::make_shared<ProfileData>();
  std::string Error;
  if (!parseProfile(R.CapturedProfile, *Profile, Error))
    throw std::runtime_error("the profile captured from " + R.WorkloadName +
                             " does not parse: " + Error);
  return Profile;
}

/// One workload's legs in the warm-start and budget study.
struct WarmLegs {
  /// Fixed depth 3 at scale 0.6 under the threshold organizer: the warm
  /// start's cold leg and the budget organizer's rival at once (the cold
  /// leg's profile capture happens after the run).
  SteadyLeg Cold;
  SteadyLeg Budget;
  /// Table 1 workloads only: cold's profile re-seeding the same run, and
  /// a phase-shifted profile re-seeding a scale-0.3 run with OSR, a
  /// 6000-byte code cache and a decay tight enough to fade the stale
  /// state within the run.
  SteadyLeg Warm, Stale;
  bool StaleResultOk = false, StaleDecayOk = false;
  uint64_t StaleDeopts = 0;
};

WarmLegs runWarmLegs(const std::string &W, bool Table1) {
  WarmLegs L;
  RunConfig Cold = fixedConfig(W, 0.6, 3);
  Cold.CaptureProfile = Table1;
  RunResult ColdR;
  L.Cold = runSteady(Cold, &ColdR);
  RunConfig Budget = fixedConfig(W, 0.6, 3);
  Budget.Aos.Organizer = InlineOrganizerKind::Budget;
  L.Budget = runSteady(Budget);
  if (!Table1)
    return L;

  RunConfig Warm = fixedConfig(W, 0.6, 3);
  Warm.WarmStart = parseCaptured(ColdR);
  L.Warm = runSteady(Warm);

  RunConfig Train = fixedConfig(W, 0.3, 3);
  Train.Params.Seed = StaleTrainingSeed;
  Train.CaptureProfile = true;
  const std::shared_ptr<const ProfileData> StaleProfile =
      parseCaptured(runExperiment(Train));
  RunConfig Stale = fixedConfig(W, 0.3, 3);
  Stale.WarmStart = StaleProfile;
  Stale.Aos.Osr.Enabled = true;
  Stale.Model.CodeCache.CapacityBytes = 6000;
  // The stock decay (every 120 samples, factor 0.95) needs ~10k samples
  // to push a seeded weight below the retention threshold, far more than
  // one run takes.
  Stale.Aos.DecayPeriodSamples = 16;
  Stale.Aos.DecayFactor = 0.5;
  RunResult StaleR;
  L.Stale = runSteady(Stale, &StaleR);
  // OSR, cache bounds and profiles never change what a program computes,
  // so a plain run at the same scale is the stale leg's oracle.
  L.StaleResultOk = StaleR.ProgramResult ==
                    runExperiment(fixedConfig(W, 0.3, 3)).ProgramResult;
  // Only seeded traces can decay: a hot-method-only profile has none.
  L.StaleDecayOk =
      StaleProfile->DcgTraces.empty() || StaleR.DecayEntriesDropped > 0;
  L.StaleDeopts = StaleR.Deopts;
  return L;
}

/// Warm start against cold, and the budget organizer against the
/// threshold one, on the Table 1 workloads plus two adversaries that
/// only feed the drift rows.
void warmBudgetStudy(Studies &S) {
  std::vector<std::string> Workloads = workloadNames();
  const size_t NumTable1 = Workloads.size();
  Workloads.push_back("scn-phase-flip");
  Workloads.push_back("scn-megamorphic-storm");
  const std::vector<WarmLegs> Legs = S.Pool.runIndexed(
      Workloads.size(),
      [&](size_t I) { return runWarmLegs(Workloads[I], I < NumTable1); });

  unsigned WarmWins = 0, BudgetWins = 0, StaleResults = 0, StaleDecays = 0;
  uint64_t StaleDeopts = 0;
  std::vector<std::string> WarmNot, BudgetNot, ResultNot, DecayNot;
  for (size_t I = 0; I != NumTable1; ++I) {
    const WarmLegs &L = Legs[I];
    const std::string &W = Workloads[I];
    const bool WarmWin = settlesSooner(L.Warm, L.Cold, /*TiesWin=*/false);
    const bool BudgetWin = settlesSooner(L.Budget, L.Cold, /*TiesWin=*/true);
    WarmWins += WarmWin;
    BudgetWins += BudgetWin;
    StaleResults += L.StaleResultOk;
    StaleDecays += L.StaleDecayOk;
    StaleDeopts += L.StaleDeopts;
    for (const auto &[Ok, Not] :
         {std::pair{WarmWin, &WarmNot}, std::pair{BudgetWin, &BudgetNot},
          std::pair{L.StaleResultOk, &ResultNot},
          std::pair{L.StaleDecayOk, &DecayNot}})
      if (!Ok)
        Not->push_back(W);
    for (const auto &[Leg, Warmup] :
         {std::pair{"cold", L.Cold.WarmupCycles},
          std::pair{"warm", L.Warm.WarmupCycles},
          std::pair{"stale", L.Stale.WarmupCycles}})
      S.Drift.push_back({"warm_start/" + W + "/" + Leg, Warmup});
  }
  for (size_t I = 0; I != Workloads.size(); ++I) {
    const std::string Name = "budget_inline/" + Workloads[I];
    S.Drift.push_back({Name + "/threshold", Legs[I].Cold.WarmupCycles});
    S.Drift.push_back({Name + "/budget", Legs[I].Budget.WarmupCycles});
  }
  S.record("warm.beats_cold", WarmWins, notList(WarmNot));
  S.record("warm.stale_result", StaleResults, notList(ResultNot));
  S.record("warm.stale_decay", StaleDecays, notList(DecayNot));
  S.record("warm.stale_deopts", static_cast<double>(StaleDeopts));
  S.record("budget.ties_or_beats", BudgetWins, notList(BudgetNot));
}

/// Four serve sessions of each Table 1 workload against a solo run of
/// the serve configuration at scale 0.6, and a mixed serve's byte
/// identity across job counts at scale 0.3.
void shareStudy(Studies &S) {
  constexpr unsigned Sessions = 4;
  const std::vector<std::string> &Workloads = workloadNames();
  struct Bills {
    uint64_t Solo = 0, Paid = 0, Saved = 0, Hits = 0, Publishes = 0;
    bool ResultsMatch = false;
  };
  const auto All = S.Pool.runIndexed(Workloads.size(), [&](size_t I) {
    ServeConfig Serve;
    Serve.Tenants = {{Workloads[I], Sessions}};
    Serve.Params.Scale = 0.6;
    RunConfig Solo;
    Solo.WorkloadName = Workloads[I];
    Solo.Params = Serve.Params;
    Solo.Policy = Serve.Policy;
    Solo.MaxDepth = Serve.MaxDepth;
    Solo.Aos = Serve.Aos;
    Solo.Model = Serve.Model;
    const RunResult SoloR = runExperiment(Solo);
    const ServeResults R = runServe(Serve, /*Jobs=*/1);
    Bills B;
    B.Solo = SoloR.OptCompileCycles;
    B.Paid = R.totalCompileCyclesPaid();
    B.Saved = R.totalCompileCyclesSaved();
    B.ResultsMatch = R.Sessions.size() == Sessions;
    for (const ServeSessionResult &Session : R.Sessions) {
      B.ResultsMatch &= Session.ProgramResult == SoloR.ProgramResult;
      B.Hits += Session.ShareHits;
      B.Publishes += Session.SharePublishes;
    }
    return B;
  });

  uint64_t FourX = 0, Paid = 0, Hits = 0, Publishes = 0;
  double WorstPaid = 0;
  std::string Worst;
  unsigned Matching = 0;
  std::vector<std::string> Mismatched;
  for (size_t I = 0; I != Workloads.size(); ++I) {
    const Bills &B = All[I];
    const std::string &W = Workloads[I];
    FourX += B.Solo * Sessions;
    Paid += B.Paid;
    Hits += B.Hits;
    Publishes += B.Publishes;
    if (B.Solo != 0 &&
        100.0 * B.Paid / (B.Solo * Sessions) > WorstPaid) {
      WorstPaid = 100.0 * B.Paid / (B.Solo * Sessions);
      Worst = W;
    }
    Matching += B.ResultsMatch;
    if (!B.ResultsMatch)
      Mismatched.push_back(W);
    S.Drift.push_back({"share_serve/" + W + "/solo", B.Solo});
    S.Drift.push_back({"share_serve/" + W + "/serve_paid", B.Paid});
    S.Drift.push_back({"share_serve/" + W + "/serve_saved", B.Saved,
                       /*HigherIsBetter=*/true});
  }
  S.record("share.hit_rate",
           Hits + Publishes == 0 ? 0 : 100.0 * Hits / (Hits + Publishes));
  if (FourX != 0)
    S.record("share.paid", 100.0 * Paid / FourX);
  S.record("share.worst_paid", WorstPaid, Worst);
  S.record("share.results_match", Matching, notList(Mismatched));

  ServeConfig Mix;
  Mix.Tenants = {{"compress", 2}, {"scn-phase-flip", 1}, {"db", 1}};
  Mix.Params.Scale = 0.3;
  Mix.Trace = true;
  const ServeResults Serial = runServe(Mix, /*Jobs=*/1);
  const ServeResults Parallel = runServe(Mix, /*Jobs=*/4);
  std::ostringstream SerialTrace, ParallelTrace;
  exportServeTrace(SerialTrace, Serial);
  exportServeTrace(ParallelTrace, Parallel);
  std::vector<std::string> Diverged;
  if (exportServeCsv(Serial) != exportServeCsv(Parallel))
    Diverged.push_back("csv");
  if (SerialTrace.str() != ParallelTrace.str())
    Diverged.push_back("trace");
  S.record("share.jobs_identical", 2 - Diverged.size(), notList(Diverged));
}

/// The Section 4 chain statistics: every workload at fixed depth 5,
/// which records full chains, with the instrumented trace listener.
void section4Study(Studies &S) {
  const std::vector<std::string> &Workloads = workloadNames();
  const std::vector<TraceStatistics> Stats =
      S.Pool.runIndexed(Workloads.size(), [&](size_t I) {
        RunConfig Config = fixedConfig(Workloads[I], 1.0, 5);
        Config.CollectTraceStats = true;
        return runExperiment(Config).TraceStats;
      });
  double CalleeParamless = 0, ParamWithin5 = 0, ClassWithin2 = 0,
         LargeAt4 = 0;
  for (const TraceStatistics &T : Stats) {
    CalleeParamless += T.calleeParameterlessFraction();
    ParamWithin5 += T.stopWithin(ChainStop::Parameterless, 5);
    ClassWithin2 += T.stopWithin(ChainStop::ClassMethod, 2);
    LargeAt4 += T.stopAtOrBeyond(ChainStop::Large, 4);
  }
  const double Percent = 100.0 / static_cast<double>(Stats.size());
  S.record("sec4.callee_paramless", CalleeParamless * Percent);
  S.record("sec4.paramless_within_5", ParamWithin5 * Percent);
  S.record("sec4.class_within_2", ClassWithin2 * Percent);
  S.record("sec4.large_at_4", LargeAt4 * Percent);
}

/// The design ablations at fixed depth 3: each design choice at scale 1
/// against the grid cell it changes, and OSR at scale 0.3.
void ablationStudy(Studies &S, const std::map<std::string, RunResult> &Grid) {
  struct Variant {
    const char *Workload;
    double Scale;
    void (*Change)(RunConfig &);
  };
  const Variant Variants[] = {
      {"jess", 1.0, [](RunConfig &C) { C.Aos.Ai.HotTraceThreshold = 0.05; }},
      {"jess", 1.0, [](RunConfig &C) { C.Aos.Ai.HotTraceThreshold = 0.005; }},
      {"SPECjbb2000", 1.0, [](RunConfig &C) { C.Aos.DecayPeriodSamples = 0; }},
      {"jess", 1.0, [](RunConfig &C) { C.Aos.InlineAwareWalk = false; }},
      {"jess", 1.0, [](RunConfig &C) { C.Aos.DeepMissingEdges = true; }},
      {"db", 1.0, [](RunConfig &C) { C.Aos.DeepMissingEdges = true; }},
      {"compress", 0.3, [](RunConfig &) {}},
      {"compress", 0.3, [](RunConfig &C) { C.Aos.Osr.Enabled = true; }},
      {"mpegaudio", 0.3, [](RunConfig &) {}},
      {"mpegaudio", 0.3, [](RunConfig &C) { C.Aos.Osr.Enabled = true; }},
  };
  const std::vector<RunResult> R =
      S.Pool.runIndexed(std::size(Variants), [&](size_t I) {
        RunConfig Config =
            fixedConfig(Variants[I].Workload, Variants[I].Scale, 3);
        Variants[I].Change(Config);
        return runExperiment(Config);
      });
  auto speedup = [](const RunResult &Default, const RunResult &Changed) {
    return speedupPercent(static_cast<double>(Default.WallCycles),
                          static_cast<double>(Changed.WallCycles));
  };
  auto fallbacksAdded = [](const RunResult &Default, const RunResult &Changed) {
    return static_cast<double>(Changed.GuardFallbacks) -
           static_cast<double>(Default.GuardFallbacks);
  };
  const RunResult &Jess = Grid.at("jess");
  S.record("ablation.threshold_5pct", speedup(Jess, R[0]));
  S.record("ablation.threshold_5pct_fallbacks", fallbacksAdded(Jess, R[0]));
  S.record("ablation.threshold_0_5pct", speedup(Jess, R[1]));
  S.record("ablation.no_decay", speedup(Grid.at("SPECjbb2000"), R[2]));
  S.record("ablation.naive_walk", speedup(Jess, R[3]));
  S.record("ablation.naive_walk_fallbacks", fallbacksAdded(Jess, R[3]));
  S.record("ablation.deep_edges_jess", speedup(Jess, R[4]));
  S.record("ablation.deep_edges_db", speedup(Grid.at("db"), R[5]));
  S.record("ablation.osr_compress", speedup(R[6], R[7]));
  S.record("ablation.osr_mpegaudio", speedup(R[8], R[9]));
  S.record("ablation.osr_mpegaudio_entries",
           static_cast<double>(R[9].OsrEntries));
}

} // namespace

ClaimsReport
aoci::runClaims(const std::function<void(const std::string &)> &Progress) {
  Studies S;
  auto done = [&](const char *Study) {
    if (Progress)
      Progress(formatString("claims: %s study done", Study));
  };
  const std::map<std::string, RunResult> Defaults = gridStudy(S);
  done("grid");
  warmBudgetStudy(S);
  done("warm start and budget");
  shareStudy(S);
  done("share");
  section4Study(S);
  done("Section 4");
  ablationStudy(S, Defaults);
  done("ablation");
  return reportClaims(claimsTable(), S.Measured, S.Drift);
}
