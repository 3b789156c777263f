//===- tools/aoci.cpp - The AOCI command-line driver ------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// A single driver over the whole library:
//
//   aoci list
//   aoci table1
//   aoci run <workload> [--policy P] [--depth N] [--scale X] [--seed N]
//            [--plans] [--trace-stats] [--profile-out F] [--warm-start F]
//   aoci grid [--workloads a,b] [--policies p,q] [--depths 2,3]
//             [--scale X] [--trials N] [--jobs N] [--csv FILE]
//             [--metrics-csv FILE] [--metrics]
//             [--trace-out FILE] [--trace-filter kinds]
//             [--report fig4|fig5|fig6|compile|summary|all]
//   aoci trace <workload> [--trace-out FILE] [--trace-filter kinds]
//              [--policy P] [--depth N] [--scale X] [--seed N]
//              [--trials N] [--max-events N]
//   aoci disasm <workload> [method-qualified-name]
//
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"
#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "harness/Fuzzer.h"
#include "harness/Reporters.h"
#include "harness/Serve.h"
#include "harness/SteadyState.h"
#include "opt/PlanPrinter.h"
#include "profile/ProfileIo.h"
#include "support/StringUtils.h"
#include "trace/TraceJson.h"
#include "workload/scenario/ScenarioSpec.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

using namespace aoci;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  aoci list\n"
      "  aoci table1\n"
      "  aoci run <workload> [--policy P] [--depth N] [--scale X]\n"
      "           [--seed N] [--osr on|off] [--code-cache BYTES]\n"
      "           [--plans] [--trace-stats]\n"
      "           [--organizer threshold|budget] [budget knobs]\n"
      "           [--profile-out FILE] [--warm-start FILE]\n"
      "  aoci grid [--workloads a,b] [--policies p,q] [--depths 2,3]\n"
      "            [--scale X] [--trials N] [--jobs N] [--osr on|off]\n"
      "            [--code-cache BYTES]\n"
      "            [--organizer threshold|budget] [budget knobs]\n"
      "            [--csv FILE] [--metrics-csv FILE] [--metrics]\n"
      "            [--trace-out FILE] [--trace-filter kinds]\n"
      "            [--profile-out DIR] [--warm-start FILE]\n"
      "            [--report fig4|fig5|fig6|compile|summary|all]\n"
      "  aoci trace <workload> [--trace-out FILE] [--trace-filter kinds]\n"
      "             [--policy P] [--depth N] [--scale X] [--seed N]\n"
      "             [--trials N] [--max-events N] [--osr on|off]\n"
      "             [--code-cache BYTES]\n"
      "             [--organizer threshold|budget] [budget knobs]\n"
      "             [--profile-out FILE] [--warm-start FILE]\n"
      "  aoci disasm <workload> [method]\n"
      "  aoci fuzz [--seed N] [--budget N] [--policy-a P] [--depth-a N]\n"
      "            [--policy-b P] [--depth-b N] [--threshold PCT]\n"
      "            [--scale X] [--workload-seed N] [--code-cache BYTES]\n"
      "            [--osr on|off] [--max-diffs N]\n"
      "            [--out DIR] [--known DIR]\n"
      "  aoci replay <file.scn>\n"
      "  aoci steady [--workloads a,b] [--policy P] [--depth N]\n"
      "              [--scale X] [--seed N] [--trials N] [--osr on|off]\n"
      "              [--code-cache BYTES] [--json FILE]\n"
      "  aoci serve --tenants a[:N],b[:N] [--policy P] [--depth N]\n"
      "             [--scale X] [--seed N] [--slice CYCLES] [--stagger N]\n"
      "             [--share-cache BYTES|off] [--code-cache BYTES]\n"
      "             [--osr on|off] [--jobs N]\n"
      "             [--organizer threshold|budget] [budget knobs]\n"
      "             [--csv FILE] [--trace-out FILE] [--trace-filter kinds]\n"
      "             [--warm-start FILE]\n"
      "policies: cins fixed paramLess class large hybrid1 hybrid2 "
      "imprecision\n"
      "workloads: Table 1 names plus the built-in adversarial scenarios\n"
      "  (scn-megamorphic-storm, scn-phase-flip, scn-alloc-burst,\n"
      "  scn-cache-churn)\n"
      "fuzz: searches seeded scenario mutations for runs where policy A\n"
      "  beats policy B by more than the threshold; shrinks each finding\n"
      "  and writes replayable .scn reproducers (--out). With --known DIR\n"
      "  the exit status is 1 iff a differential not in DIR was found.\n"
      "steady: runs each workload traced and reports the warmup/steady\n"
      "  split; exit status is 1 unless every run reached steady state.\n"
      "serve: runs the tenant sessions concurrently against one\n"
      "  process-wide shared code cache (variants keyed by method +\n"
      "  inline-plan fingerprint + opt level); a hit charges only the\n"
      "  link cost. Deterministic for any --jobs. --share-cache bounds\n"
      "  the shared index (off disables sharing entirely); --stagger\n"
      "  offsets session start rounds; --slice sets the per-round cycle\n"
      "  slice. OSR defaults ON in serve so shared evictions can deopt\n"
      "  live sessions.\n"
      "--osr: transfer live activations onto replacement code at loop\n"
      "  backedges (on-stack replacement + deoptimization); default off\n"
      "--organizer: how inlining rules are codified from the DCG.\n"
      "  'threshold' (default) is the paper's 1.5%% hot-trace organizer;\n"
      "  'budget' prices candidates with measured compiled sizes (falling\n"
      "  back to a self-calibrating estimate for never-compiled callees)\n"
      "  under per-caller inflation and global exploration budgets.\n"
      "  Budget knobs: --budget-inflation F (per-caller budget = caller\n"
      "  units x F + slack; default 2.5), --budget-slack U (default 80),\n"
      "  --budget-explore U (per-wakeup pool for estimate-priced\n"
      "  candidates; default 600), --budget-min-weight W (candidate noise\n"
      "  floor; default 1.5). Emits uncharged budget-decision trace events.\n"
      "--code-cache: bound total installed code bytes; victims are chosen\n"
      "  deterministically (least-recently-invoked by simulated cycle) and\n"
      "  live activations deoptimize first; 0 (default) = unbounded\n"
      "--profile-out: save the run's full AOS decision state (DCG trace\n"
      "  weights, hot-method samples, inline decisions and refusals) as a\n"
      "  versioned v2 profile; see docs/profile-format.md. On grid, DIR\n"
      "  receives one .prof per run\n"
      "--warm-start: re-seed the adaptive system from a v2 profile before\n"
      "  the run; stale entries are dropped and counted, never fatal.\n"
      "trace kinds: comma-separated event names (see OBSERVABILITY.md), "
      "e.g.\n"
      "  --trace-filter sample,controller-decision,compile-complete\n");
  return 1;
}

bool parsePolicy(const std::string &Name, PolicyKind &Kind) {
  return parsePolicyKind(Name, Kind);
}

/// True when \p Name is runnable: a Table 1 workload or a built-in
/// adversarial scenario.
bool knownWorkload(const std::string &Name) {
  for (const std::string &W : workloadNames())
    if (W == Name)
      return true;
  return findBuiltinScenario(Name) != nullptr;
}

/// Checked unsigned decimal parse for flag values. std::atoi silently
/// turned garbage into 0, negatives into huge unsigneds after the cast,
/// and overflow into undefined behavior; this rejects all three with an
/// error naming the flag. Requires the whole value to be digits (no
/// sign, no whitespace, no trailing junk) and at most \p Max.
bool parseUnsigned(const char *Flag, const std::string &Value, uint64_t Max,
                   uint64_t &Out) {
  bool Valid = !Value.empty();
  for (char C : Value)
    Valid &= std::isdigit(static_cast<unsigned char>(C)) != 0;
  errno = 0;
  char *End = nullptr;
  const unsigned long long V =
      Valid ? std::strtoull(Value.c_str(), &End, 10) : 0;
  if (!Valid || errno == ERANGE || V > Max) {
    std::fprintf(stderr,
                 "%s expects an unsigned integer no larger than %llu, "
                 "got '%s'\n",
                 Flag, static_cast<unsigned long long>(Max), Value.c_str());
    return false;
  }
  Out = V;
  return true;
}

/// parseUnsigned into an `unsigned`-typed destination.
bool parseUnsigned32(const char *Flag, const std::string &Value,
                     unsigned &Out) {
  uint64_t V = 0;
  if (!parseUnsigned(Flag, Value, std::numeric_limits<unsigned>::max(), V))
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// Checked decimal parse for floating-point flag values, the counterpart
/// of parseUnsigned. The whole value must be one finite number: an empty
/// value, leading whitespace, trailing junk (as in "0.05abc"), NaN,
/// infinity and out-of-range exponents are rejected with an error naming
/// the flag, as is any value below \p Min, or equal to it unless
/// \p MinAllowed.
bool parseDouble(const char *Flag, const std::string &Value, double Min,
                 bool MinAllowed, double &Out) {
  errno = 0;
  char *End = nullptr;
  const double V = Value.empty() ? 0 : std::strtod(Value.c_str(), &End);
  const bool Valid =
      !Value.empty() && !std::isspace(static_cast<unsigned char>(Value[0])) &&
      End == Value.c_str() + Value.size() && errno != ERANGE &&
      std::isfinite(V) && (V > Min || (MinAllowed && V == Min));
  if (!Valid) {
    std::fprintf(stderr, "%s expects a finite number %s %g, got '%s'\n",
                 Flag, MinAllowed ? "of at least" : "above", Min,
                 Value.c_str());
    return false;
  }
  Out = V;
  return true;
}

/// The `--scale` flag: a workload size multiplier, which must be above 0
/// (a negative count would start the workloads' countdown loops below
/// zero).
bool parseScale(const std::string &Value, double &Scale) {
  return parseDouble("--scale", Value, 0, /*MinAllowed=*/false, Scale);
}

/// Parses an `--osr on|off` value.
bool parseOsr(const std::string &Value, bool &Enabled) {
  if (Value == "on")
    Enabled = true;
  else if (Value == "off")
    Enabled = false;
  else {
    std::fprintf(stderr, "--osr takes 'on' or 'off', not '%s'\n",
                 Value.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> splitList(const std::string &Text) {
  std::vector<std::string> Out;
  std::stringstream In(Text);
  std::string Item;
  while (std::getline(In, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

/// Simple flag cursor over argv.
struct Args {
  int Argc;
  char **Argv;
  int Pos = 2;

  /// Returns the value of --Flag when present at the cursor.
  bool flag(const char *Flag, std::string &Value) {
    if (Pos + 1 < Argc && std::strcmp(Argv[Pos], Flag) == 0) {
      Value = Argv[Pos + 1];
      Pos += 2;
      return true;
    }
    return false;
  }

  bool boolFlag(const char *Flag) {
    if (Pos < Argc && std::strcmp(Argv[Pos], Flag) == 0) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool done() const { return Pos >= Argc; }
};

/// Parses an `--organizer threshold|budget` value.
bool parseOrganizer(const std::string &Value, InlineOrganizerKind &Kind) {
  if (Value == "threshold") {
    Kind = InlineOrganizerKind::Threshold;
    return true;
  }
  if (Value == "budget") {
    Kind = InlineOrganizerKind::Budget;
    return true;
  }
  std::fprintf(stderr, "--organizer takes 'threshold' or 'budget', not '%s'\n",
               Value.c_str());
  return false;
}

/// Handles the organizer/budget flags shared by run, grid, trace, and
/// serve. Returns 0 when the cursor is not at one of them, 1 when one
/// parsed, -1 on a parse error (already reported to stderr).
int tryOrganizerFlags(Args &A, AosSystemConfig &Aos) {
  std::string Value;
  if (A.flag("--organizer", Value))
    return parseOrganizer(Value, Aos.Organizer) ? 1 : -1;
  if (A.flag("--budget-inflation", Value))
    return parseDouble("--budget-inflation", Value, 0, /*MinAllowed=*/false,
                       Aos.Budget.InflationFactor)
               ? 1
               : -1;
  if (A.flag("--budget-slack", Value))
    return parseUnsigned("--budget-slack", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Aos.Budget.SlackUnits)
               ? 1
               : -1;
  if (A.flag("--budget-explore", Value))
    return parseUnsigned("--budget-explore", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Aos.Budget.ExplorationUnits)
               ? 1
               : -1;
  if (A.flag("--budget-min-weight", Value))
    return parseDouble("--budget-min-weight", Value, 0, /*MinAllowed=*/true,
                       Aos.Budget.MinCandidateWeight)
               ? 1
               : -1;
  return 0;
}

/// Reads and parses a `--warm-start` v2 profile file. Parse warnings
/// (unknown sections/keys under the forward-compat rules) go to stderr;
/// errors carry the line/section/token diagnostic from parseProfile().
std::shared_ptr<const ProfileData>
loadWarmStartProfile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot read '%s'\n", Path.c_str());
    return nullptr;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  auto Profile = std::make_shared<ProfileData>();
  std::string Error;
  if (!parseProfile(Buffer.str(), *Profile, Error)) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Error.c_str());
    return nullptr;
  }
  for (const std::string &W : Profile->Warnings)
    std::fprintf(stderr, "%s: warning: %s\n", Path.c_str(), W.c_str());
  return Profile;
}

/// Writes serialized profile bytes, reporting failures to stderr.
bool writeProfileFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
    return false;
  }
  Out << Bytes;
  return true;
}

int cmdList() {
  for (const std::string &Name : workloadNames()) {
    Workload W = makeWorkload(Name, WorkloadParams{1, 0.01});
    std::printf("%-12s %s\n", Name.c_str(), W.Description.c_str());
  }
  std::printf("adversarial scenarios:\n");
  for (const std::string &Name : scenarioNames()) {
    Workload W = makeWorkload(Name, WorkloadParams{1, 0.01});
    std::printf("%-22s %s\n", Name.c_str(), W.Description.c_str());
  }
  return 0;
}

int cmdTable1() {
  std::vector<RunResult> Runs;
  for (const std::string &Name : workloadNames()) {
    RunConfig Config;
    Config.WorkloadName = Name;
    Runs.push_back(runExperiment(Config));
  }
  std::printf("%s", reportTable1(Runs).c_str());
  return 0;
}

int cmdRun(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string WorkloadName = Argv[2];
  if (!knownWorkload(WorkloadName)) {
    std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return 1;
  }

  PolicyKind Kind = PolicyKind::ContextInsensitive;
  unsigned Depth = 1;
  WorkloadParams Params;
  AosSystemConfig AosConfig;
  CostModel Model;
  bool ShowPlans = false, TraceStats = false;
  std::string ProfileOut, WarmStartPath;

  Args A{Argc, Argv};
  A.Pos = 3;
  while (!A.done()) {
    std::string Value;
    if (A.flag("--policy", Value)) {
      if (!parsePolicy(Value, Kind)) {
        std::fprintf(stderr, "unknown policy '%s'\n", Value.c_str());
        return 1;
      }
      if (Depth == 1 && Kind != PolicyKind::ContextInsensitive)
        Depth = 4;
    } else if (A.flag("--depth", Value)) {
      if (!parseUnsigned32("--depth", Value, Depth))
        return 1;
    } else if (A.flag("--scale", Value)) {
      if (!parseScale(Value, Params.Scale))
        return 1;
    } else if (A.flag("--seed", Value)) {
      if (!parseUnsigned("--seed", Value,
                         std::numeric_limits<uint64_t>::max(), Params.Seed))
        return 1;
    } else if (A.flag("--code-cache", Value)) {
      if (!parseUnsigned("--code-cache", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Model.CodeCache.CapacityBytes))
        return 1;
    } else if (A.flag("--profile-out", Value)) {
      ProfileOut = Value;
    } else if (A.flag("--warm-start", Value)) {
      WarmStartPath = Value;
    } else if (A.flag("--osr", Value)) {
      if (!parseOsr(Value, AosConfig.Osr.Enabled))
        return 1;
    } else if (int R = tryOrganizerFlags(A, AosConfig)) {
      if (R < 0)
        return 1;
    } else if (A.boolFlag("--plans")) {
      ShowPlans = true;
    } else if (A.boolFlag("--trace-stats")) {
      TraceStats = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Argv[A.Pos]);
      return usage();
    }
  }

  Workload W = makeWorkload(WorkloadName, Params);
  VirtualMachine VM(W.Prog, Model);
  std::unique_ptr<ContextPolicy> Policy = makePolicy(Kind, Depth);
  AdaptiveSystem Aos(VM, *Policy, AosConfig);
  if (TraceStats)
    Aos.traceListener().enableStatistics();
  Aos.attach();
  if (!WarmStartPath.empty()) {
    std::shared_ptr<const ProfileData> Profile =
        loadWarmStartProfile(WarmStartPath);
    if (!Profile)
      return 1;
    const WarmStartStats S = Aos.warmStart(*Profile);
    std::printf("warm start     %llu entries applied, %llu dropped "
                "(%llu traces, %llu decisions, %llu hot methods, "
                "%llu refusals)\n",
                static_cast<unsigned long long>(S.applied()),
                static_cast<unsigned long long>(S.dropped()),
                static_cast<unsigned long long>(S.TracesApplied),
                static_cast<unsigned long long>(S.DecisionsApplied),
                static_cast<unsigned long long>(S.HotMethodsApplied),
                static_cast<unsigned long long>(S.RefusalsApplied));
    if (S.ThresholdMismatches != 0)
      std::fprintf(stderr,
                   "warning: %llu saved threshold(s) differ from this "
                   "run's configuration (live values win)\n",
                   static_cast<unsigned long long>(S.ThresholdMismatches));
  }
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  VM.run();

  std::printf("workload       %s (policy %s)\n", W.Name.c_str(),
              Policy->name().c_str());
  std::printf("wall cycles    %llu\n",
              static_cast<unsigned long long>(VM.cycles()));
  std::printf("result         %lld\n",
              static_cast<long long>(
                  VM.threads().front()->Result.asInt()));
  std::printf("samples        %llu\n",
              static_cast<unsigned long long>(
                  VM.counters().SamplesTaken));
  std::printf("opt compiles   %llu (%llu cycles)\n",
              static_cast<unsigned long long>(Aos.stats().OptCompilations),
              static_cast<unsigned long long>(
                  VM.codeManager().optCompileCycles()));
  std::printf("opt code bytes %llu resident / %llu generated\n",
              static_cast<unsigned long long>(
                  VM.codeManager().optimizedBytesResident()),
              static_cast<unsigned long long>(
                  VM.codeManager().optimizedBytesGenerated()));
  std::printf("inlined calls  %llu (guard fallbacks %llu)\n",
              static_cast<unsigned long long>(
                  VM.counters().InlinedCallsEntered),
              static_cast<unsigned long long>(
                  VM.counters().GuardFallbacks));
  if (AosConfig.Organizer == InlineOrganizerKind::Budget) {
    const AosStats &S = Aos.stats();
    std::printf("budget         %llu candidate units accepted "
                "(%llu candidates), %llu pruned; estimator error %.1f%%\n",
                static_cast<unsigned long long>(S.BudgetUnitsSpent),
                static_cast<unsigned long long>(S.BudgetCandidatesAccepted),
                static_cast<unsigned long long>(S.BudgetCandidatesPruned),
                Aos.calibration().meanAbsErrorPct());
  }
  if (AosConfig.Osr.Enabled) {
    const OsrStats &S = Aos.osrStats();
    std::printf("osr            %llu entries, %llu deopts (%llu frames); "
                "%llu cycles charged, ~%llu recovered\n",
                static_cast<unsigned long long>(S.OsrEntries),
                static_cast<unsigned long long>(S.Deopts),
                static_cast<unsigned long long>(S.DeoptFramesRemapped),
                static_cast<unsigned long long>(S.TransitionCyclesCharged),
                static_cast<unsigned long long>(S.CyclesRecoveredEstimate));
  }
  if (Model.CodeCache.enabled()) {
    const CodeManager &Code = VM.codeManager();
    std::printf("code cache     %llu live / %llu peak bytes (cap %llu); "
                "%llu evictions, %llu recompiles after evict\n",
                static_cast<unsigned long long>(Code.liveCodeBytes()),
                static_cast<unsigned long long>(Code.peakCodeBytes()),
                static_cast<unsigned long long>(
                    Model.CodeCache.CapacityBytes),
                static_cast<unsigned long long>(Code.numEvictions()),
                static_cast<unsigned long long>(
                    Code.recompilesAfterEvict()));
  }
  for (unsigned C = 0; C != NumAosComponents; ++C)
    std::printf("aos %-21s %8.4f%%\n",
                aosComponentName(static_cast<AosComponent>(C)),
                100.0 *
                    static_cast<double>(VM.overheadMeter().cycles(
                        static_cast<AosComponent>(C))) /
                    static_cast<double>(VM.cycles()));

  if (TraceStats) {
    const TraceStatistics &S = Aos.traceListener().statistics();
    std::printf("trace stats    %llu samples, %.0f%% parameterless "
                "callees, mean depth %.2f\n",
                static_cast<unsigned long long>(S.numSamples()),
                S.calleeParameterlessFraction() * 100,
                S.meanRecordedDepth());
  }

  if (ShowPlans) {
    std::printf("\ninstalled optimized code:\n");
    for (const auto &V : VM.codeManager().allVariants())
      if (V->Level != OptLevel::Baseline &&
          VM.codeManager().current(V->M) == V.get())
        std::printf("%s", describeVariant(W.Prog, *V).c_str());
  }

  if (!ProfileOut.empty()) {
    if (!writeProfileFile(
            ProfileOut, serializeProfileData(Aos.snapshotProfile(W.Name))))
      return 1;
    std::printf("v2 profile saved to %s\n", ProfileOut.c_str());
  }
  return 0;
}

int cmdTrace(int Argc, char **Argv) {
  RunConfig Config;
  Config.WorkloadName.clear();
  std::string TraceOut, Filter;
  std::string ProfileOut, WarmStartPath;
  unsigned Trials = 1;
  uint64_t MaxEvents = 0;

  // Flags and the workload operand may come in any order:
  //   aoci trace --trace-out t.json compress
  //   aoci trace compress --trace-filter sample
  Args A{Argc, Argv};
  while (!A.done()) {
    std::string Value;
    if (A.flag("--trace-out", Value)) {
      TraceOut = Value;
    } else if (A.flag("--trace-filter", Value)) {
      Filter = Value;
    } else if (A.flag("--policy", Value)) {
      if (!parsePolicy(Value, Config.Policy)) {
        std::fprintf(stderr, "unknown policy '%s'\n", Value.c_str());
        return 1;
      }
      if (Config.MaxDepth == 1 &&
          Config.Policy != PolicyKind::ContextInsensitive)
        Config.MaxDepth = 4;
    } else if (A.flag("--depth", Value)) {
      if (!parseUnsigned32("--depth", Value, Config.MaxDepth))
        return 1;
    } else if (A.flag("--scale", Value)) {
      if (!parseScale(Value, Config.Params.Scale))
        return 1;
    } else if (A.flag("--seed", Value)) {
      if (!parseUnsigned("--seed", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Config.Params.Seed))
        return 1;
    } else if (A.flag("--trials", Value)) {
      if (!parseUnsigned32("--trials", Value, Trials))
        return 1;
    } else if (A.flag("--max-events", Value)) {
      if (!parseUnsigned("--max-events", Value,
                         std::numeric_limits<uint64_t>::max(), MaxEvents))
        return 1;
    } else if (A.flag("--code-cache", Value)) {
      if (!parseUnsigned("--code-cache", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Config.Model.CodeCache.CapacityBytes))
        return 1;
    } else if (A.flag("--osr", Value)) {
      if (!parseOsr(Value, Config.Aos.Osr.Enabled))
        return 1;
    } else if (int R = tryOrganizerFlags(A, Config.Aos)) {
      if (R < 0)
        return 1;
    } else if (A.flag("--profile-out", Value)) {
      ProfileOut = Value;
    } else if (A.flag("--warm-start", Value)) {
      WarmStartPath = Value;
    } else if (Argv[A.Pos][0] != '-' && Config.WorkloadName.empty()) {
      Config.WorkloadName = Argv[A.Pos++];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Argv[A.Pos]);
      return usage();
    }
  }
  if (Config.WorkloadName.empty()) {
    std::fprintf(stderr, "trace: missing workload operand\n");
    return usage();
  }
  if (!knownWorkload(Config.WorkloadName)) {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 Config.WorkloadName.c_str());
    return 1;
  }

  uint32_t Mask = TraceAllKinds;
  std::string Error;
  if (!parseTraceFilter(Filter, Mask, Error)) {
    std::fprintf(stderr, "trace: %s\n", Error.c_str());
    return 1;
  }

  if (!WarmStartPath.empty()) {
    Config.WarmStart = loadWarmStartProfile(WarmStartPath);
    if (!Config.WarmStart)
      return 1;
  }
  Config.CaptureProfile = !ProfileOut.empty();

  TraceSink Sink;
  Sink.enable(Mask);
  Sink.setCapacity(MaxEvents);
  Config.Trace = &Sink;
  RunResult R = runBestOf(Config, Trials < 1 ? 1 : Trials);
  if (!ProfileOut.empty()) {
    if (!writeProfileFile(ProfileOut, R.CapturedProfile))
      return 1;
    std::fprintf(stderr, "v2 profile saved to %s\n", ProfileOut.c_str());
  }

  const std::string ProcessName =
      Config.Policy == PolicyKind::ContextInsensitive
          ? Config.WorkloadName + "/cins"
          : Config.WorkloadName + "/" + policyKindName(Config.Policy) +
                ".d" + std::to_string(Config.MaxDepth);
  std::fprintf(stderr,
               "%s: %llu cycles, %llu events recorded (%llu dropped)\n",
               ProcessName.c_str(),
               static_cast<unsigned long long>(R.WallCycles),
               static_cast<unsigned long long>(Sink.numEvents()),
               static_cast<unsigned long long>(Sink.droppedEvents()));

  if (TraceOut.empty()) {
    writeChromeTrace(std::cout, Sink, ProcessName);
    return 0;
  }
  std::ofstream Out(TraceOut, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "cannot write '%s'\n", TraceOut.c_str());
    return 1;
  }
  writeChromeTrace(Out, Sink, ProcessName);
  std::fprintf(stderr, "trace written to %s (load it at ui.perfetto.dev)\n",
               TraceOut.c_str());
  return 0;
}

int cmdGrid(int Argc, char **Argv) {
  GridConfig Config;
  std::string Report = "all";
  std::string Csv, MetricsCsv, TraceOut, TraceFilter;
  std::string ProfileOutDir, WarmStartPath;
  // 0 lets runGridParallel pick hardware_concurrency. Results are
  // byte-identical for every job count; see DESIGN.md.
  unsigned Jobs = 0;
  bool ShowMetrics = false;

  Args A{Argc, Argv};
  while (!A.done()) {
    std::string Value;
    if (A.flag("--workloads", Value)) {
      Config.Workloads = splitList(Value);
    } else if (A.flag("--policies", Value)) {
      Config.Policies.clear();
      for (const std::string &Name : splitList(Value)) {
        PolicyKind Kind;
        if (!parsePolicy(Name, Kind)) {
          std::fprintf(stderr, "unknown policy '%s'\n", Name.c_str());
          return 1;
        }
        Config.Policies.push_back(Kind);
      }
    } else if (A.flag("--depths", Value)) {
      Config.Depths.clear();
      for (const std::string &D : splitList(Value)) {
        unsigned Depth = 0;
        if (!parseUnsigned32("--depths", D, Depth))
          return 1;
        Config.Depths.push_back(Depth);
      }
    } else if (A.flag("--scale", Value)) {
      if (!parseScale(Value, Config.Params.Scale))
        return 1;
    } else if (A.flag("--trials", Value)) {
      if (!parseUnsigned32("--trials", Value, Config.Trials))
        return 1;
    } else if (A.flag("--jobs", Value)) {
      if (!parseUnsigned32("--jobs", Value, Jobs))
        return 1;
    } else if (A.flag("--code-cache", Value)) {
      if (!parseUnsigned("--code-cache", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Config.Model.CodeCache.CapacityBytes))
        return 1;
    } else if (A.flag("--osr", Value)) {
      if (!parseOsr(Value, Config.Aos.Osr.Enabled))
        return 1;
    } else if (int R = tryOrganizerFlags(A, Config.Aos)) {
      if (R < 0)
        return 1;
    } else if (A.flag("--csv", Value)) {
      Csv = Value;
    } else if (A.flag("--metrics-csv", Value)) {
      MetricsCsv = Value;
    } else if (A.boolFlag("--metrics")) {
      ShowMetrics = true;
    } else if (A.flag("--trace-out", Value)) {
      TraceOut = Value;
    } else if (A.flag("--trace-filter", Value)) {
      TraceFilter = Value;
    } else if (A.flag("--profile-out", Value)) {
      ProfileOutDir = Value;
    } else if (A.flag("--warm-start", Value)) {
      WarmStartPath = Value;
    } else if (A.flag("--report", Value)) {
      Report = Value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Argv[A.Pos]);
      return usage();
    }
  }

  for (const std::string &W : Config.Workloads)
    if (!knownWorkload(W)) {
      std::fprintf(stderr, "unknown workload '%s'\n", W.c_str());
      return 1;
    }
  if (!TraceOut.empty() || !TraceFilter.empty()) {
    Config.Trace = true;
    std::string Error;
    if (!parseTraceFilter(TraceFilter, Config.TraceKindMask, Error)) {
      std::fprintf(stderr, "grid: %s\n", Error.c_str());
      return 1;
    }
  }
  if (!WarmStartPath.empty()) {
    Config.WarmStart = loadWarmStartProfile(WarmStartPath);
    if (!Config.WarmStart)
      return 1;
  }
  Config.CaptureProfile = !ProfileOutDir.empty();

  GridResults Results =
      runGridParallel(Config, Jobs, [](const std::string &Line) {
        std::fprintf(stderr, "%s\n", Line.c_str());
      });
  if (Report == "fig4" || Report == "all")
    std::printf("%s\n",
                reportFigure4(Results, Config.Policies, Config.Depths)
                    .c_str());
  if (Report == "fig5" || Report == "all")
    std::printf("%s\n",
                reportFigure5(Results, Config.Policies, Config.Depths)
                    .c_str());
  if (Report == "compile" || Report == "all")
    std::printf("%s\n",
                reportCompileTime(Results, Config.Policies, Config.Depths)
                    .c_str());
  if (Report == "fig6" || Report == "all")
    std::printf("%s\n",
                reportFigure6(Results, Config.Policies, Config.Depths)
                    .c_str());
  if (Report == "summary" || Report == "all")
    std::printf("%s\n",
                reportSummary(Results, Config.Policies, Config.Depths)
                    .c_str());
  if (ShowMetrics)
    std::printf("%s\n", reportRunMetrics(Results).c_str());
  if (!Csv.empty()) {
    std::ofstream Out(Csv);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", Csv.c_str());
      return 1;
    }
    Out << exportCsv(Results, Config.Policies, Config.Depths);
    std::fprintf(stderr, "csv written to %s\n", Csv.c_str());
  }
  if (!MetricsCsv.empty()) {
    std::ofstream Out(MetricsCsv);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", MetricsCsv.c_str());
      return 1;
    }
    Out << exportMetricsCsv(Results);
    std::fprintf(stderr, "metrics csv written to %s\n",
                 MetricsCsv.c_str());
  }
  if (!TraceOut.empty()) {
    std::ofstream Out(TraceOut, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", TraceOut.c_str());
      return 1;
    }
    exportGridTrace(Out, Results);
    std::fprintf(stderr, "trace written to %s (load it at ui.perfetto.dev)\n",
                 TraceOut.c_str());
  }
  if (!ProfileOutDir.empty()) {
    std::filesystem::create_directories(ProfileOutDir);
    size_t Written = 0;
    auto save = [&](const RunResult &R, const std::string &Stem) {
      const std::filesystem::path Path =
          std::filesystem::path(ProfileOutDir) / (Stem + ".prof");
      if (!writeProfileFile(Path.string(), R.CapturedProfile))
        return false;
      ++Written;
      return true;
    };
    for (const std::string &W : Results.workloads()) {
      if (!save(Results.baseline(W), W + "-cins"))
        return 1;
      for (PolicyKind Policy : Config.Policies)
        for (unsigned D : Config.Depths)
          if (!save(Results.cell(W, Policy, D),
                    W + "-" + policyKindName(Policy) + "-d" +
                        std::to_string(D)))
            return 1;
    }
    std::fprintf(stderr, "%zu v2 profile(s) written to %s\n", Written,
                 ProfileOutDir.c_str());
  }
  return 0;
}

/// Reads and parses one `.scn` file; reports errors to stderr.
bool loadScenarioFile(const std::filesystem::path &Path, ScenarioSpec &Spec) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot read '%s'\n", Path.string().c_str());
    return false;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Error;
  if (!parseScenario(Buffer.str(), Spec, Error)) {
    std::fprintf(stderr, "%s: %s\n", Path.string().c_str(), Error.c_str());
    return false;
  }
  return true;
}

/// Parses every `*.scn` under \p Dir (sorted by filename, so results are
/// stable across filesystems). Returns false on any parse error.
bool loadScenarioDir(const std::string &Dir,
                     std::vector<ScenarioSpec> &Specs) {
  std::error_code Ec;
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec))
    if (Entry.path().extension() == ".scn")
      Files.push_back(Entry.path());
  if (Ec) {
    std::fprintf(stderr, "cannot list '%s': %s\n", Dir.c_str(),
                 Ec.message().c_str());
    return false;
  }
  std::sort(Files.begin(), Files.end());
  for (const auto &Path : Files) {
    ScenarioSpec Spec;
    if (!loadScenarioFile(Path, Spec))
      return false;
    Specs.push_back(std::move(Spec));
  }
  return true;
}

int cmdFuzz(int Argc, char **Argv) {
  FuzzConfig Config;
  std::string OutDir, KnownDir;
  Args A{Argc, Argv};
  while (!A.done()) {
    std::string Value;
    if (A.flag("--seed", Value)) {
      if (!parseUnsigned("--seed", Value,
                         std::numeric_limits<uint64_t>::max(), Config.Seed))
        return 1;
    } else if (A.flag("--budget", Value)) {
      if (!parseUnsigned32("--budget", Value, Config.Budget))
        return 1;
    } else if (A.flag("--policy-a", Value)) {
      if (!parsePolicy(Value, Config.PolicyA)) {
        std::fprintf(stderr, "unknown policy '%s'\n", Value.c_str());
        return 1;
      }
    } else if (A.flag("--depth-a", Value)) {
      if (!parseUnsigned32("--depth-a", Value, Config.DepthA))
        return 1;
    } else if (A.flag("--policy-b", Value)) {
      if (!parsePolicy(Value, Config.PolicyB)) {
        std::fprintf(stderr, "unknown policy '%s'\n", Value.c_str());
        return 1;
      }
    } else if (A.flag("--depth-b", Value)) {
      if (!parseUnsigned32("--depth-b", Value, Config.DepthB))
        return 1;
    } else if (A.flag("--threshold", Value)) {
      if (!parseDouble("--threshold", Value, 0, /*MinAllowed=*/true,
                       Config.ThresholdPct))
        return 1;
    } else if (A.flag("--scale", Value)) {
      if (!parseScale(Value, Config.Params.Scale))
        return 1;
    } else if (A.flag("--workload-seed", Value)) {
      if (!parseUnsigned("--workload-seed", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Config.Params.Seed))
        return 1;
    } else if (A.flag("--code-cache", Value)) {
      if (!parseUnsigned("--code-cache", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Config.Model.CodeCache.CapacityBytes))
        return 1;
    } else if (A.flag("--osr", Value)) {
      if (!parseOsr(Value, Config.Aos.Osr.Enabled))
        return 1;
    } else if (A.flag("--max-diffs", Value)) {
      if (!parseUnsigned32("--max-diffs", Value, Config.MaxDifferentials))
        return 1;
    } else if (A.flag("--out", Value)) {
      OutDir = Value;
    } else if (A.flag("--known", Value)) {
      KnownDir = Value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Argv[A.Pos]);
      return usage();
    }
  }

  // The corpus of already-known findings, keyed on the canonical spec
  // (name and expect block stripped), so a rename is not "new".
  std::vector<std::string> KnownKeys;
  if (!KnownDir.empty()) {
    std::vector<ScenarioSpec> Corpus;
    if (!loadScenarioDir(KnownDir, Corpus))
      return 1;
    for (const ScenarioSpec &S : Corpus)
      KnownKeys.push_back(scenarioSearchKey(S));
    std::fprintf(stderr, "loaded %zu known reproducer(s) from %s\n",
                 KnownKeys.size(), KnownDir.c_str());
  }

  FuzzResults Results = runFuzz(Config, [](const std::string &Line) {
    std::fprintf(stderr, "%s\n", Line.c_str());
  });
  std::fprintf(stderr,
               "fuzz: %u candidate(s), %llu run(s), %zu differential(s)\n",
               Results.CandidatesTried,
               static_cast<unsigned long long>(Results.TotalRuns),
               Results.Differentials.size());

  bool FoundNew = false;
  for (const FuzzDifferential &D : Results.Differentials) {
    const std::string Text = printScenario(D.Spec);
    const bool Known =
        std::find(KnownKeys.begin(), KnownKeys.end(),
                  scenarioSearchKey(D.Spec)) != KnownKeys.end();
    if (!KnownDir.empty() && !Known)
      FoundNew = true;
    std::printf("# %s: %s %+.2f%% over %s (shrunk from %+.2f%%)%s\n%s\n",
                D.Spec.Name.c_str(), D.Spec.Expect.PolicyA.c_str(),
                D.DeltaPct, D.Spec.Expect.PolicyB.c_str(),
                D.OriginalDeltaPct,
                Known ? " [known]" : "", Text.c_str());
    if (!OutDir.empty()) {
      std::filesystem::create_directories(OutDir);
      const std::filesystem::path Path =
          std::filesystem::path(OutDir) / (D.Spec.Name + ".scn");
      std::ofstream Out(Path, std::ios::binary);
      if (!Out) {
        std::fprintf(stderr, "cannot write '%s'\n", Path.string().c_str());
        return 1;
      }
      Out << Text;
      std::fprintf(stderr, "reproducer written to %s\n",
                   Path.string().c_str());
    }
  }
  if (FoundNew) {
    std::fprintf(stderr, "fuzz: NEW differential(s) not in %s\n",
                 KnownDir.c_str());
    return 1;
  }
  return 0;
}

int cmdReplay(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  ScenarioSpec Spec;
  if (!loadScenarioFile(Argv[2], Spec))
    return 1;
  if (!Spec.HasExpectation) {
    std::fprintf(stderr, "%s has no expect block; nothing to replay\n",
                 Argv[2]);
    return 1;
  }
  PolicyKind Check;
  if (!parsePolicyKind(Spec.Expect.PolicyA, Check) ||
      !parsePolicyKind(Spec.Expect.PolicyB, Check)) {
    std::fprintf(stderr, "%s: unknown policy in expect block\n", Argv[2]);
    return 1;
  }
  const double Delta = replayScenario(Spec);
  const bool SameSign =
      (Delta > 0) == (Spec.Expect.MinDeltaPct > 0) ||
      Spec.Expect.MinDeltaPct == 0;
  std::printf("%s: %s vs %s delta %+.2f%% (recorded %+.2f%%) -> %s\n",
              Spec.Name.c_str(), Spec.Expect.PolicyA.c_str(),
              Spec.Expect.PolicyB.c_str(), Delta, Spec.Expect.MinDeltaPct,
              SameSign ? "reproduced" : "NOT reproduced");
  return SameSign ? 0 : 1;
}

int cmdSteady(int Argc, char **Argv) {
  std::vector<std::string> Workloads = workloadNames();
  RunConfig Base;
  unsigned Trials = 1;
  std::string JsonOut;
  Args A{Argc, Argv};
  while (!A.done()) {
    std::string Value;
    if (A.flag("--workloads", Value)) {
      Workloads = splitList(Value);
    } else if (A.flag("--policy", Value)) {
      if (!parsePolicy(Value, Base.Policy)) {
        std::fprintf(stderr, "unknown policy '%s'\n", Value.c_str());
        return 1;
      }
      if (Base.MaxDepth == 1 && Base.Policy != PolicyKind::ContextInsensitive)
        Base.MaxDepth = 4;
    } else if (A.flag("--depth", Value)) {
      if (!parseUnsigned32("--depth", Value, Base.MaxDepth))
        return 1;
    } else if (A.flag("--scale", Value)) {
      if (!parseScale(Value, Base.Params.Scale))
        return 1;
    } else if (A.flag("--seed", Value)) {
      if (!parseUnsigned("--seed", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Base.Params.Seed))
        return 1;
    } else if (A.flag("--trials", Value)) {
      if (!parseUnsigned32("--trials", Value, Trials))
        return 1;
    } else if (A.flag("--code-cache", Value)) {
      if (!parseUnsigned("--code-cache", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Base.Model.CodeCache.CapacityBytes))
        return 1;
    } else if (A.flag("--osr", Value)) {
      if (!parseOsr(Value, Base.Aos.Osr.Enabled))
        return 1;
    } else if (A.flag("--json", Value)) {
      JsonOut = Value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Argv[A.Pos]);
      return usage();
    }
  }
  for (const std::string &W : Workloads)
    if (!knownWorkload(W)) {
      std::fprintf(stderr, "unknown workload '%s'\n", W.c_str());
      return 1;
    }

  bool AllReached = true;
  std::string Json = "{\"workloads\":[";
  std::printf("%-22s %12s %12s %12s  %s\n", "workload", "wall Mcy",
              "warmup Mcy", "steady Mcy", "verdict");
  for (size_t I = 0; I != Workloads.size(); ++I) {
    RunConfig Config = Base;
    Config.WorkloadName = Workloads[I];
    TraceSink Sink;
    Sink.enable(steadyStateKindMask());
    Config.Trace = &Sink;
    const RunResult R = runBestOf(Config, Trials < 1 ? 1 : Trials);
    const SteadyStateResult S = detectSteadyState(Sink, R.WallCycles);
    AllReached &= S.Reached;
    std::printf("%-22s %12.2f %12.2f %12.2f  %s (%s)\n",
                Workloads[I].c_str(),
                static_cast<double>(R.WallCycles) / 1e6,
                static_cast<double>(S.WarmupCycles) / 1e6,
                static_cast<double>(S.SteadyCycles) / 1e6,
                S.Reached ? "steady" : "NOT steady", S.Why.c_str());
    Json += formatString(
        "%s{\"name\":\"%s\",\"reached\":%s,\"wallCycles\":%llu,"
        "\"warmupCycles\":%llu,\"steadyCycles\":%llu,\"why\":\"%s\"}",
        I == 0 ? "" : ",", jsonEscape(Workloads[I]).c_str(),
        S.Reached ? "true" : "false",
        static_cast<unsigned long long>(R.WallCycles),
        static_cast<unsigned long long>(S.WarmupCycles),
        static_cast<unsigned long long>(S.SteadyCycles),
        jsonEscape(S.Why).c_str());
  }
  Json += formatString("],\"allReached\":%s}\n",
                       AllReached ? "true" : "false");
  if (!JsonOut.empty()) {
    std::ofstream Out(JsonOut, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", JsonOut.c_str());
      return 1;
    }
    Out << Json;
    std::fprintf(stderr, "verdict written to %s\n", JsonOut.c_str());
  }
  return AllReached ? 0 : 1;
}

int cmdServe(int Argc, char **Argv) {
  ServeConfig Config;
  std::string TenantList, Csv, TraceOut, TraceFilter, WarmStartPath;
  unsigned Jobs = 1;

  Args A{Argc, Argv};
  while (!A.done()) {
    std::string Value;
    if (A.flag("--tenants", Value)) {
      TenantList = Value;
    } else if (A.flag("--policy", Value)) {
      if (!parsePolicy(Value, Config.Policy)) {
        std::fprintf(stderr, "unknown policy '%s'\n", Value.c_str());
        return 1;
      }
    } else if (A.flag("--depth", Value)) {
      if (!parseUnsigned32("--depth", Value, Config.MaxDepth))
        return 1;
    } else if (A.flag("--scale", Value)) {
      if (!parseScale(Value, Config.Params.Scale))
        return 1;
    } else if (A.flag("--seed", Value)) {
      if (!parseUnsigned("--seed", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Config.Params.Seed))
        return 1;
    } else if (A.flag("--slice", Value)) {
      if (!parseUnsigned("--slice", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Config.SliceCycles))
        return 1;
      if (Config.SliceCycles == 0) {
        std::fprintf(stderr, "--slice must be at least 1 cycle\n");
        return 1;
      }
    } else if (A.flag("--stagger", Value)) {
      if (!parseUnsigned32("--stagger", Value, Config.StaggerRounds))
        return 1;
    } else if (A.flag("--share-cache", Value)) {
      if (Value == "off") {
        Config.ShareEnabled = false;
        Config.ShareCapacityBytes = 0;
      } else if (!parseUnsigned("--share-cache", Value,
                                std::numeric_limits<uint64_t>::max(),
                                Config.ShareCapacityBytes))
        return 1;
    } else if (A.flag("--code-cache", Value)) {
      if (!parseUnsigned("--code-cache", Value,
                         std::numeric_limits<uint64_t>::max(),
                         Config.Model.CodeCache.CapacityBytes))
        return 1;
    } else if (A.flag("--osr", Value)) {
      if (!parseOsr(Value, Config.Aos.Osr.Enabled))
        return 1;
    } else if (int R = tryOrganizerFlags(A, Config.Aos)) {
      if (R < 0)
        return 1;
    } else if (A.flag("--jobs", Value)) {
      if (!parseUnsigned32("--jobs", Value, Jobs))
        return 1;
    } else if (A.flag("--csv", Value)) {
      Csv = Value;
    } else if (A.flag("--trace-out", Value)) {
      TraceOut = Value;
    } else if (A.flag("--trace-filter", Value)) {
      TraceFilter = Value;
    } else if (A.flag("--warm-start", Value)) {
      WarmStartPath = Value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Argv[A.Pos]);
      return usage();
    }
  }
  if (TenantList.empty()) {
    std::fprintf(stderr, "serve: --tenants is required\n");
    return usage();
  }
  std::string Error;
  if (!parseTenantList(TenantList, Config.Tenants, Error)) {
    std::fprintf(stderr, "serve: %s\n", Error.c_str());
    return 1;
  }
  uint32_t Mask = TraceAllKinds;
  if (!parseTraceFilter(TraceFilter, Mask, Error)) {
    std::fprintf(stderr, "serve: %s\n", Error.c_str());
    return 1;
  }
  Config.Trace = !TraceOut.empty();
  Config.TraceKindMask = Mask;
  if (!WarmStartPath.empty()) {
    Config.WarmStart = loadWarmStartProfile(WarmStartPath);
    if (!Config.WarmStart)
      return 1;
  }

  const ServeResults Results = runServe(
      Config, Jobs, [](const std::string &Line) {
        std::fprintf(stderr, "%s\n", Line.c_str());
      });

  std::printf("%s", reportServe(Results).c_str());
  if (!Csv.empty()) {
    std::ofstream Out(Csv, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", Csv.c_str());
      return 1;
    }
    Out << exportServeCsv(Results);
    std::fprintf(stderr, "serve csv written to %s\n", Csv.c_str());
  }
  if (!TraceOut.empty()) {
    std::ofstream Out(TraceOut, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", TraceOut.c_str());
      return 1;
    }
    exportServeTrace(Out, Results);
    std::fprintf(stderr,
                 "trace written to %s (load it at ui.perfetto.dev)\n",
                 TraceOut.c_str());
  }
  return 0;
}

int cmdDisasm(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  if (!knownWorkload(Argv[2])) {
    std::fprintf(stderr, "unknown workload '%s'\n", Argv[2]);
    return 1;
  }
  Workload W = makeWorkload(Argv[2], WorkloadParams{1, 0.01});
  if (Argc >= 4) {
    MethodId M = W.Prog.findMethod(Argv[3]);
    if (M == InvalidMethodId) {
      std::fprintf(stderr, "no method '%s' in %s\n", Argv[3], Argv[2]);
      return 1;
    }
    std::printf("%s", disassembleMethod(W.Prog, M).c_str());
    return 0;
  }
  std::printf("%s", disassembleProgram(W.Prog).c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Command = Argv[1];
  if (Command == "list")
    return cmdList();
  if (Command == "table1")
    return cmdTable1();
  if (Command == "run")
    return cmdRun(Argc, Argv);
  if (Command == "grid")
    return cmdGrid(Argc, Argv);
  if (Command == "trace")
    return cmdTrace(Argc, Argv);
  if (Command == "disasm")
    return cmdDisasm(Argc, Argv);
  if (Command == "fuzz")
    return cmdFuzz(Argc, Argv);
  if (Command == "replay")
    return cmdReplay(Argc, Argv);
  if (Command == "steady")
    return cmdSteady(Argc, Argv);
  if (Command == "serve")
    return cmdServe(Argc, Argv);
  return usage();
}
