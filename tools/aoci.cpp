//===- tools/aoci.cpp - The AOCI command-line driver ------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// A single driver over the whole library. Every subcommand and every flag
// is declared once, in the Commands and Flags tables below; one parser
// reads argv against them and `aoci` with no arguments prints them.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"
#include "harness/Claims.h"
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
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>
#include <variant>

using namespace aoci;

namespace {

/// The configs a subcommand runs under.
enum class Target { None, Run, Grid, Fuzz, Serve };

/// Where a subcommand's flags land. The subcommand configs live here; the
/// shared knob groups write through pointers that bind() aims at the
/// running subcommand's config, so its defaults stand until a flag
/// overrides them.
struct Options {
  RunConfig Run; ///< run, trace, steady
  GridConfig Grid;
  FuzzConfig Fuzz;
  ServeConfig Serve;

  WorkloadParams *Params = nullptr;
  uint64_t *Seed = nullptr;
  CostModel *Model = nullptr;
  AosSystemConfig *Aos = nullptr;
  PolicyKind *Policy = nullptr;
  unsigned *MaxDepth = nullptr;
  /// The depth flag's value; 0 until given (its minimum is 1). See
  /// parseArgs().
  unsigned Depth = 0;

  std::vector<std::string> Operands;
  std::vector<std::string> Workloads = workloadNames();
  unsigned Trials = 1;
  /// 0 lets runGridParallel pick hardware_concurrency; results are
  /// byte-identical for every job count (see DESIGN.md).
  unsigned Jobs = 0;
  uint64_t MaxEvents = 0;
  /// The shared index's capacity (0 = unbounded), or empty for `off`.
  std::optional<uint64_t> ShareCache = 0;
  bool Plans = false, TraceStats = false, Metrics = false;
  std::string WarmStart, ProfileOut, TraceOut, TraceFilter, Csv, MetricsCsv;
  std::string Report = "all", Json, OutDir, KnownDir, Tenants;

  Options() = default;
  // The knob pointers point into this object.
  Options(const Options &) = delete;
  Options &operator=(const Options &) = delete;

  void bind(Target T) {
    switch (T) {
    case Target::None:
      break;
    case Target::Run:
      bindKnobs(Run);
      Policy = &Run.Policy;
      MaxDepth = &Run.MaxDepth;
      break;
    case Target::Grid:
      bindKnobs(Grid);
      break;
    case Target::Fuzz:
      bindKnobs(Fuzz);
      Seed = &Fuzz.Seed; // fuzz's seed flag seeds the search
      break;
    case Target::Serve:
      bindKnobs(Serve);
      Policy = &Serve.Policy;
      MaxDepth = &Serve.MaxDepth;
      Jobs = 1; // serve runs its sessions serially unless asked
      break;
    }
  }

private:
  template <typename ConfigT> void bindKnobs(ConfigT &Config) {
    Params = &Config.Params;
    Seed = &Config.Params.Seed;
    Model = &Config.Model;
    Aos = &Config.Aos;
  }
};

/// Flag groups; each subcommand takes the union of its groups.
enum Group : unsigned {
  VmKnobs = 1u << 0,        ///< workload scale, code cache bound, OSR
  PolicyKnobs = 1u << 1,    ///< context policy and depth
  SeedKnob = 1u << 2,
  OrganizerKnobs = 1u << 3, ///< the inlining organizer and its budgets
  WarmStartFlag = 1u << 4,
  ProfileOutFlag = 1u << 5,
  TraceOutFlags = 1u << 6, ///< trace file and kind filter
  JobsFlag = 1u << 7,
  TrialsFlag = 1u << 8,
  CsvFlag = 1u << 9,
  WorkloadsFlag = 1u << 10,
  RunFlags = 1u << 11,
  TraceFlags = 1u << 12,
  GridFlags = 1u << 13,
  FuzzFlags = 1u << 14,
  JsonFlag = 1u << 15,
  ServeFlags = 1u << 16,
};

/// The field a flag sets; its type decides how the value parses.
template <typename T> using Field = T &(*)(Options &);
using AnyField =
    std::variant<Field<bool>, Field<unsigned>, Field<uint64_t>,
                 Field<std::optional<uint64_t>>, Field<double>,
                 Field<std::string>, Field<PolicyKind>,
                 Field<InlineOrganizerKind>, Field<std::vector<std::string>>,
                 Field<std::vector<PolicyKind>>, Field<std::vector<unsigned>>>;

struct Flag {
  const char *Name;
  /// The value's placeholder in the usage text; null for a switch.
  const char *Value;
  unsigned Groups;
  const char *Help;
  AnyField Set;
  /// Lower bound of a number (of each item of a list), inclusive unless
  /// !MinAllowed.
  double Min = 0;
  bool MinAllowed = true;
};

const Flag Flags[] = {
    {"--scale", "X", VmKnobs, "workload size multiplier",
     [](Options &O) -> double & { return O.Params->Scale; }, 0, false},
    {"--code-cache", "BYTES", VmKnobs,
     "bound installed code bytes; victims are least recently invoked and "
     "live activations deoptimize first (0 = unbounded)",
     [](Options &O) -> uint64_t & {
       return O.Model->CodeCache.CapacityBytes;
     }},
    {"--osr", "on|off", VmKnobs,
     "transfer live activations onto replacement code at loop backedges "
     "(on-stack replacement + deoptimization)",
     [](Options &O) -> bool & { return O.Aos->Osr.Enabled; }},
    {"--policy", "P", PolicyKnobs,
     "cins fixed paramLess class large hybrid1 hybrid2 imprecision",
     [](Options &O) -> PolicyKind & { return *O.Policy; }},
    {"--depth", "N", PolicyKnobs,
     "maximum context depth (default 4 for a policy other than cins)",
     [](Options &O) -> unsigned & { return O.Depth; }, 1},
    {"--seed", "N", SeedKnob, "workload seed (fuzz: the search seed)",
     [](Options &O) -> uint64_t & { return *O.Seed; }},
    {"--organizer", "threshold|budget", OrganizerKnobs,
     "how inlining rules are codified: the paper's 1.5% hot-trace "
     "threshold, or candidates priced by measured sizes under budgets",
     [](Options &O) -> InlineOrganizerKind & { return O.Aos->Organizer; }},
    {"--budget-inflation", "F", OrganizerKnobs,
     "per-caller budget = caller units x F + slack",
     [](Options &O) -> double & { return O.Aos->Budget.InflationFactor; }, 0,
     false},
    {"--budget-slack", "U", OrganizerKnobs, "per-caller budget slack units",
     [](Options &O) -> uint64_t & { return O.Aos->Budget.SlackUnits; }},
    {"--budget-explore", "U", OrganizerKnobs,
     "per-wakeup pool for estimate-priced candidates",
     [](Options &O) -> uint64_t & { return O.Aos->Budget.ExplorationUnits; }},
    {"--budget-min-weight", "W", OrganizerKnobs, "candidate noise floor",
     [](Options &O) -> double & {
       return O.Aos->Budget.MinCandidateWeight;
     }},
    {"--warm-start", "FILE", WarmStartFlag,
     "re-seed the adaptive system from a v2 profile; stale entries are "
     "dropped and counted",
     [](Options &O) -> std::string & { return O.WarmStart; }},
    {"--profile-out", "FILE", ProfileOutFlag,
     "save the AOS decision state as a v2 profile (grid: a directory, one "
     ".prof per run); see docs/profile-format.md",
     [](Options &O) -> std::string & { return O.ProfileOut; }},
    {"--trace-out", "FILE", TraceOutFlags,
     "write the event stream as Chrome trace JSON (ui.perfetto.dev)",
     [](Options &O) -> std::string & { return O.TraceOut; }},
    {"--trace-filter", "KINDS", TraceOutFlags,
     "comma-separated event kinds to record (see OBSERVABILITY.md)",
     [](Options &O) -> std::string & { return O.TraceFilter; }},
    {"--jobs", "N", JobsFlag, "worker threads (0 = all hardware threads)",
     [](Options &O) -> unsigned & { return O.Jobs; }},
    {"--trials", "N", TrialsFlag, "runs per configuration, keeping the fastest",
     [](Options &O) -> unsigned & { return O.Trials; }, 1},
    {"--csv", "FILE", CsvFlag, "write the results as CSV",
     [](Options &O) -> std::string & { return O.Csv; }},
    {"--workloads", "a,b", WorkloadsFlag,
     "Table 1 workloads or built-in scenarios (default: all of Table 1)",
     [](Options &O) -> std::vector<std::string> & { return O.Workloads; }},
    {"--plans", nullptr, RunFlags, "print the installed optimized code",
     [](Options &O) -> bool & { return O.Plans; }},
    {"--trace-stats", nullptr, RunFlags,
     "print the Section 4 trace statistics",
     [](Options &O) -> bool & { return O.TraceStats; }},
    {"--max-events", "N", TraceFlags, "cap on recorded events (0 = no cap)",
     [](Options &O) -> uint64_t & { return O.MaxEvents; }},
    {"--policies", "p,q", GridFlags, "policies of the sweep",
     [](Options &O) -> std::vector<PolicyKind> & { return O.Grid.Policies; }},
    {"--depths", "2,3", GridFlags, "maximum depths of the sweep",
     [](Options &O) -> std::vector<unsigned> & { return O.Grid.Depths; }, 1},
    {"--metrics-csv", "FILE", GridFlags, "write host-side run metrics as CSV",
     [](Options &O) -> std::string & { return O.MetricsCsv; }},
    {"--metrics", nullptr, GridFlags, "print host-side run metrics",
     [](Options &O) -> bool & { return O.Metrics; }},
    {"--report", "fig4|fig5|fig6|compile|summary|all", GridFlags,
     "which reports to print",
     [](Options &O) -> std::string & { return O.Report; }},
    {"--budget", "N", FuzzFlags, "scenario executions to spend",
     [](Options &O) -> unsigned & { return O.Fuzz.Budget; }},
    {"--policy-a", "P", FuzzFlags, "policy A of the differential",
     [](Options &O) -> PolicyKind & { return O.Fuzz.PolicyA; }},
    {"--depth-a", "N", FuzzFlags, "policy A's maximum depth",
     [](Options &O) -> unsigned & { return O.Fuzz.DepthA; }, 1},
    {"--policy-b", "P", FuzzFlags, "policy B, the baseline",
     [](Options &O) -> PolicyKind & { return O.Fuzz.PolicyB; }},
    {"--depth-b", "N", FuzzFlags, "policy B's maximum depth",
     [](Options &O) -> unsigned & { return O.Fuzz.DepthB; }, 1},
    {"--threshold", "PCT", FuzzFlags,
     "minimum |speedup %| of A over B that counts as a differential",
     [](Options &O) -> double & { return O.Fuzz.ThresholdPct; }},
    {"--workload-seed", "N", FuzzFlags, "seed of every candidate's workload",
     [](Options &O) -> uint64_t & { return O.Fuzz.Params.Seed; }},
    {"--max-diffs", "N", FuzzFlags, "stop after this many differentials",
     [](Options &O) -> unsigned & { return O.Fuzz.MaxDifferentials; }},
    {"--out", "DIR", FuzzFlags, "write each shrunk reproducer as DIR/NAME.scn",
     [](Options &O) -> std::string & { return O.OutDir; }},
    {"--known", "DIR", FuzzFlags,
     "exit 1 iff a differential not among DIR's .scn files is found",
     [](Options &O) -> std::string & { return O.KnownDir; }},
    {"--json", "FILE", JsonFlag, "write the verdicts as JSON",
     [](Options &O) -> std::string & { return O.Json; }},
    {"--tenants", "a[:N],b[:N]", ServeFlags,
     "the sessions: N of each workload or scenario (required)",
     [](Options &O) -> std::string & { return O.Tenants; }},
    {"--slice", "CYCLES", ServeFlags, "simulated cycles per session per round",
     [](Options &O) -> uint64_t & { return O.Serve.SliceCycles; }, 1},
    {"--stagger", "N", ServeFlags, "rounds between session starts",
     [](Options &O) -> unsigned & { return O.Serve.StaggerRounds; }},
    {"--share-cache", "BYTES|off", ServeFlags,
     "bound the shared index (0 = unbounded), or turn sharing off",
     [](Options &O) -> std::optional<uint64_t> & { return O.ShareCache; }},
};

int cmdList(Options &O);
int cmdTable1(Options &O);
int cmdRun(Options &O);
int cmdGrid(Options &O);
int cmdTrace(Options &O);
int cmdDisasm(Options &O);
int cmdFuzz(Options &O);
int cmdReplay(Options &O);
int cmdSteady(Options &O);
int cmdServe(Options &O);
int cmdClaims(Options &O);

struct Command {
  const char *Name;
  /// The operands' placeholder in the usage text.
  const char *Operands;
  unsigned MinOperands, MaxOperands;
  Target Configs;
  unsigned Groups;
  int (*Main)(Options &);
  const char *Help;
};

const Command Commands[] = {
    {"list", "", 0, 0, Target::None, 0, cmdList,
     "the workloads and built-in adversarial scenarios"},
    {"table1", "", 0, 0, Target::None, 0, cmdTable1,
     "Table 1: benchmark characteristics"},
    {"run", "<workload>", 1, 1, Target::Run,
     VmKnobs | PolicyKnobs | SeedKnob | OrganizerKnobs | WarmStartFlag |
         ProfileOutFlag | RunFlags,
     cmdRun, "one run and its report"},
    {"grid", "", 0, 0, Target::Grid,
     VmKnobs | OrganizerKnobs | WarmStartFlag | ProfileOutFlag | TraceOutFlags |
         JobsFlag | TrialsFlag | CsvFlag | WorkloadsFlag | GridFlags,
     cmdGrid,
     "the workload x policy x depth sweep behind Figures 4-6"},
    {"trace", "<workload>", 1, 1, Target::Run,
     VmKnobs | PolicyKnobs | SeedKnob | OrganizerKnobs | WarmStartFlag |
         ProfileOutFlag | TraceOutFlags | TrialsFlag | TraceFlags,
     cmdTrace, "one run's event stream as Chrome trace JSON (default stdout)"},
    {"disasm", "<workload> [method]", 1, 2, Target::None, 0, cmdDisasm,
     "a workload's bytecode"},
    {"fuzz", "", 0, 0, Target::Fuzz, VmKnobs | SeedKnob | FuzzFlags, cmdFuzz,
     "search scenario mutations for runs where policy A beats policy B by "
     "more than the threshold; shrink each finding to a reproducer"},
    {"replay", "<file.scn>", 1, 1, Target::None, 0, cmdReplay,
     "re-run a reproducer's expect block"},
    {"steady", "", 0, 0, Target::Run,
     VmKnobs | PolicyKnobs | SeedKnob | TrialsFlag | WorkloadsFlag | JsonFlag,
     cmdSteady,
     "each workload's warmup/steady split; exit 1 unless every run settled"},
    {"serve", "", 0, 0, Target::Serve,
     VmKnobs | PolicyKnobs | SeedKnob | OrganizerKnobs | WarmStartFlag |
         TraceOutFlags | JobsFlag | CsvFlag | ServeFlags,
     cmdServe,
     "tenant sessions against one shared code cache; by default policy "
     "fixed at depth 4, with OSR on so shared evictions can deoptimize"},
    {"claims", "", 0, 0, Target::None, JsonFlag, cmdClaims,
     "check every claim (the paper's numbers, the design ablations, the "
     "extensions' gates) against fresh runs; exit 1 if one fails"},
};

std::string describe(const Flag &F) {
  return F.Value ? std::string(F.Name) + " " + F.Value : F.Name;
}

int usage() {
  std::string Out = "usage: aoci <command> [operands] [flags]\n";
  for (const Command &C : Commands) {
    Out += std::string("\n  aoci ") + C.Name + (*C.Operands ? " " : "") +
           C.Operands + "\n      " + C.Help + "\n";
    size_t Column = 0;
    for (const Flag &F : Flags) {
      if (!(F.Groups & C.Groups))
        continue;
      const std::string Item = "[" + describe(F) + "]";
      if (Column == 0 || Column + 1 + Item.size() > 78) {
        Out += Column == 0 ? "     " : "\n     ";
        Column = 5;
      }
      Out += " " + Item;
      Column += 1 + Item.size();
    }
    if (Column != 0)
      Out += "\n";
  }
  Out += "\nflags:\n";
  for (const Flag &F : Flags) {
    std::string Bound;
    if (F.Min != 0 || !F.MinAllowed)
      Bound = formatString(" (%s %g)", F.MinAllowed ? "at least" : "above",
                           F.Min);
    Out += formatString("  %s\n      %s%s\n", describe(F).c_str(), F.Help,
                        Bound.c_str());
  }
  std::fprintf(stderr, "%s", Out.c_str());
  return 1;
}

// One parse per field type. Each reports its own diagnostic, naming the
// flag, and leaves the field untouched on failure.

bool parseCount(const Flag &F, const std::string &V, uint64_t Max,
                uint64_t &Out) {
  uint64_t N = 0;
  if (parseUnsigned(V, Max, N) && static_cast<double>(N) >= F.Min) {
    Out = N;
    return true;
  }
  if (F.Min == 0)
    std::fprintf(stderr,
                 "%s expects an unsigned integer no larger than %llu, got "
                 "'%s'\n",
                 F.Name, static_cast<unsigned long long>(Max), V.c_str());
  else
    std::fprintf(stderr,
                 "%s expects an unsigned integer from %g to %llu, got '%s'\n",
                 F.Name, F.Min, static_cast<unsigned long long>(Max),
                 V.c_str());
  return false;
}

bool parseInto(const Flag &F, const std::string &V, uint64_t &Out) {
  return parseCount(F, V, UINT64_MAX, Out);
}

bool parseInto(const Flag &F, const std::string &V, unsigned &Out) {
  uint64_t N = 0;
  if (!parseCount(F, V, UINT_MAX, N))
    return false;
  Out = static_cast<unsigned>(N);
  return true;
}

bool parseInto(const Flag &F, const std::string &V,
               std::optional<uint64_t> &Out) {
  if (V == "off") {
    Out.reset();
    return true;
  }
  uint64_t N = 0;
  if (!parseInto(F, V, N))
    return false;
  Out = N;
  return true;
}

bool parseInto(const Flag &F, const std::string &V, double &Out) {
  double D = 0;
  if (parseFinite(V, D) && (D > F.Min || (F.MinAllowed && D == F.Min))) {
    Out = D;
    return true;
  }
  std::fprintf(stderr, "%s expects a finite number %s %g, got '%s'\n", F.Name,
               F.MinAllowed ? "of at least" : "above", F.Min, V.c_str());
  return false;
}

bool parseInto(const Flag &F, const std::string &V, bool &Out) {
  if (V != "on" && V != "off") {
    std::fprintf(stderr, "%s takes 'on' or 'off', not '%s'\n", F.Name,
                 V.c_str());
    return false;
  }
  Out = V == "on";
  return true;
}

bool parseInto(const Flag &, const std::string &V, std::string &Out) {
  Out = V;
  return true;
}

bool parseInto(const Flag &, const std::string &V, PolicyKind &Out) {
  if (parsePolicyKind(V, Out))
    return true;
  std::fprintf(stderr, "unknown policy '%s'\n", V.c_str());
  return false;
}

bool parseInto(const Flag &F, const std::string &V,
               InlineOrganizerKind &Out) {
  if (V == "threshold" || V == "budget") {
    Out = V == "budget" ? InlineOrganizerKind::Budget
                        : InlineOrganizerKind::Threshold;
    return true;
  }
  std::fprintf(stderr, "%s takes 'threshold' or 'budget', not '%s'\n", F.Name,
               V.c_str());
  return false;
}

/// A comma-separated list; each item parses as a T. An empty item, and
/// so an empty list, is an error.
template <typename T>
bool parseInto(const Flag &F, const std::string &V, std::vector<T> &Out) {
  std::vector<T> Items;
  for (size_t Begin = 0; Begin <= V.size();) {
    const size_t End = std::min(V.find(',', Begin), V.size());
    if (End == Begin) {
      std::fprintf(stderr,
                   "%s expects a comma-separated list without empty items, "
                   "got '%s'\n",
                   F.Name, V.c_str());
      return false;
    }
    Items.emplace_back();
    if (!parseInto(F, V.substr(Begin, End - Begin), Items.back()))
      return false;
    Begin = End + 1;
  }
  Out = std::move(Items);
  return true;
}

const Flag *findFlag(std::string_view Name, unsigned Groups) {
  for (const Flag &F : Flags)
    if ((F.Groups & Groups) && Name == F.Name)
      return &F;
  return nullptr;
}

/// Reads argv[2...] into \p O against \p C's flags and operand count,
/// reporting the first error to stderr.
bool parseArgs(int Argc, char **Argv, const Command &C, Options &O) {
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const Flag *F = findFlag(Arg, C.Groups);
    if (!F) {
      if (Arg[0] != '-' && O.Operands.size() < C.MaxOperands) {
        O.Operands.push_back(Arg);
        continue;
      }
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      usage();
      return false;
    }
    if (!F->Value) {
      std::get<Field<bool>>(F->Set)(O) = true;
      continue;
    }
    if (I + 1 == Argc) {
      std::fprintf(stderr, "%s expects a value (%s)\n", F->Name, F->Value);
      return false;
    }
    const std::string Value = Argv[++I];
    if (!std::visit([&](auto Set) { return parseInto(*F, Value, Set(O)); },
                    F->Set))
      return false;
  }
  if (O.Operands.size() < C.MinOperands) {
    std::fprintf(stderr, "%s: missing operand %s\n", C.Name, C.Operands);
    usage();
    return false;
  }
  // A policy other than cins defaults to depth 4. Applied once, here, so
  // the order of the policy and depth flags cannot matter.
  if (O.Policy) {
    if (O.Depth != 0)
      *O.MaxDepth = O.Depth;
    else if (*O.Policy != PolicyKind::ContextInsensitive)
      *O.MaxDepth = 4;
  }
  return true;
}

/// True when \p Name is runnable: a Table 1 workload or a built-in
/// adversarial scenario. Reports the unknown name otherwise.
bool knownWorkload(const std::string &Name) {
  bool Known = findBuiltinScenario(Name) != nullptr;
  for (const std::string &W : workloadNames())
    Known |= W == Name;
  if (!Known)
    std::fprintf(stderr, "unknown workload '%s'\n", Name.c_str());
  return Known;
}

/// Reads and parses the warm-start v2 profile at \p Path into \p Out
/// (nothing to do when \p Path is empty). Parse warnings (unknown
/// sections/keys under the forward-compat rules) go to stderr; errors
/// carry the line/section/token diagnostic from parseProfile().
bool loadWarmStart(const std::string &Path,
                   std::shared_ptr<const ProfileData> &Out) {
  if (Path.empty())
    return true;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "cannot read '%s'\n", Path.c_str());
    return false;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  auto Profile = std::make_shared<ProfileData>();
  std::string Error;
  if (!parseProfile(Buffer.str(), *Profile, Error)) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Error.c_str());
    return false;
  }
  for (const std::string &W : Profile->Warnings)
    std::fprintf(stderr, "%s: warning: %s\n", Path.c_str(), W.c_str());
  Out = std::move(Profile);
  return true;
}

/// Streams what \p Render writes into \p Path. A failed open, write or
/// close is reported on stderr, naming the path, and returns false.
bool writeStream(const std::string &Path,
                 const std::function<void(std::ostream &)> &Render) {
  std::ofstream Out(Path, std::ios::binary);
  if (Out) {
    Render(Out);
    Out.close();
  }
  if (Out)
    return true;
  std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
  return false;
}

/// Writes \p Bytes to \p Path, as writeStream does; once the file is
/// closed, says "<What> written to <Path>" unless \p What is null.
bool writeFile(const std::string &Path, const std::string &Bytes,
               const char *What = nullptr) {
  if (!writeStream(Path, [&](std::ostream &OS) { OS << Bytes; }))
    return false;
  if (What)
    std::fprintf(stderr, "%s written to %s\n", What, Path.c_str());
  return true;
}

/// Streams the Chrome trace JSON \p Render writes into \p Path (a grid's
/// merged trace can be large, so it is never held as one string), and
/// says so once the file is closed.
bool writeTrace(const std::string &Path,
                const std::function<void(std::ostream &)> &Render) {
  if (!writeStream(Path, Render))
    return false;
  std::fprintf(stderr, "trace written to %s (load it at ui.perfetto.dev)\n",
               Path.c_str());
  return true;
}

void printLine(const std::string &Line) {
  std::fprintf(stderr, "%s\n", Line.c_str());
}

int cmdList(Options &) {
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

int cmdTable1(Options &) {
  std::vector<RunResult> Runs;
  for (const std::string &Name : workloadNames()) {
    RunConfig Config;
    Config.WorkloadName = Name;
    Runs.push_back(runExperiment(Config));
  }
  std::printf("%s", reportTable1(Runs).c_str());
  return 0;
}

int cmdRun(Options &O) {
  RunConfig &Config = O.Run;
  Config.WorkloadName = O.Operands[0];
  Config.CollectTraceStats = O.TraceStats;
  Config.CaptureProfile = !O.ProfileOut.empty();
  if (!knownWorkload(Config.WorkloadName) ||
      !loadWarmStart(O.WarmStart, Config.WarmStart))
    return 1;

  Session S(Config);
  if (Config.WarmStart) {
    const WarmStartStats &W = S.warmStart();
    std::printf("warm start     %llu entries applied, %llu dropped "
                "(%llu traces, %llu decisions, %llu hot methods, "
                "%llu refusals)\n",
                static_cast<unsigned long long>(W.applied()),
                static_cast<unsigned long long>(W.dropped()),
                static_cast<unsigned long long>(W.TracesApplied),
                static_cast<unsigned long long>(W.DecisionsApplied),
                static_cast<unsigned long long>(W.HotMethodsApplied),
                static_cast<unsigned long long>(W.RefusalsApplied));
    if (W.ThresholdMismatches != 0)
      std::fprintf(stderr,
                   "warning: %llu saved threshold(s) differ from this "
                   "run's configuration (live values win)\n",
                   static_cast<unsigned long long>(W.ThresholdMismatches));
  }
  S.run();
  const RunResult R = S.result();

  std::printf("workload       %s (policy %s)\n", R.WorkloadName.c_str(),
              S.aos().policy().name().c_str());
  std::printf("wall cycles    %llu\n",
              static_cast<unsigned long long>(R.WallCycles));
  std::printf("result         %lld\n",
              static_cast<long long>(R.ProgramResult));
  std::printf("samples        %llu\n",
              static_cast<unsigned long long>(R.SamplesTaken));
  std::printf("opt compiles   %llu (%llu cycles)\n",
              static_cast<unsigned long long>(R.OptCompilations),
              static_cast<unsigned long long>(R.OptCompileCycles));
  std::printf("opt code bytes %llu resident / %llu generated\n",
              static_cast<unsigned long long>(R.OptBytesResident),
              static_cast<unsigned long long>(R.OptBytesGenerated));
  std::printf("inlined calls  %llu (guard fallbacks %llu)\n",
              static_cast<unsigned long long>(R.InlinedCalls),
              static_cast<unsigned long long>(R.GuardFallbacks));
  if (Config.Aos.Organizer == InlineOrganizerKind::Budget)
    std::printf("budget         %llu candidate units accepted "
                "(%llu candidates), %llu pruned; estimator error %.1f%%\n",
                static_cast<unsigned long long>(R.BudgetUnitsSpent),
                static_cast<unsigned long long>(R.BudgetCandidatesAccepted),
                static_cast<unsigned long long>(R.BudgetCandidatesPruned),
                R.EstimateErrorPct);
  if (Config.Aos.Osr.Enabled)
    std::printf("osr            %llu entries, %llu deopts (%llu frames); "
                "%llu cycles charged, ~%llu recovered\n",
                static_cast<unsigned long long>(R.OsrEntries),
                static_cast<unsigned long long>(R.Deopts),
                static_cast<unsigned long long>(
                    S.aos().osrStats().DeoptFramesRemapped),
                static_cast<unsigned long long>(R.OsrTransitionCycles),
                static_cast<unsigned long long>(R.OsrCyclesRecovered));
  if (Config.Model.CodeCache.enabled())
    std::printf("code cache     %llu live / %llu peak bytes (cap %llu); "
                "%llu evictions, %llu recompiles after evict\n",
                static_cast<unsigned long long>(R.LiveCodeBytes),
                static_cast<unsigned long long>(R.PeakCodeBytes),
                static_cast<unsigned long long>(
                    Config.Model.CodeCache.CapacityBytes),
                static_cast<unsigned long long>(R.Evictions),
                static_cast<unsigned long long>(R.RecompilesAfterEvict));
  for (unsigned C = 0; C != NumAosComponents; ++C)
    std::printf("aos %-21s %8.4f%%\n",
                aosComponentName(static_cast<AosComponent>(C)),
                100.0 * static_cast<double>(R.ComponentCycles[C]) /
                    static_cast<double>(R.WallCycles));

  if (O.TraceStats)
    std::printf("trace stats    %llu samples, %.0f%% parameterless "
                "callees, mean depth %.2f\n",
                static_cast<unsigned long long>(R.TraceStats.numSamples()),
                R.TraceStats.calleeParameterlessFraction() * 100,
                R.TraceStats.meanRecordedDepth());

  if (O.Plans) {
    const CodeManager &Code = S.vm().codeManager();
    std::printf("\ninstalled optimized code:\n");
    for (const auto &V : Code.allVariants())
      if (V->Level != OptLevel::Baseline && Code.current(V->M) == V.get())
        std::printf("%s", describeVariant(S.workload().Prog, *V).c_str());
  }

  if (!O.ProfileOut.empty()) {
    if (!writeFile(O.ProfileOut, R.CapturedProfile))
      return 1;
    std::printf("v2 profile saved to %s\n", O.ProfileOut.c_str());
  }
  return 0;
}

int cmdTrace(Options &O) {
  RunConfig &Config = O.Run;
  Config.WorkloadName = O.Operands[0];
  if (!knownWorkload(Config.WorkloadName))
    return 1;
  uint32_t Mask = TraceAllKinds;
  std::string Error;
  if (!parseTraceFilter(O.TraceFilter, Mask, Error)) {
    std::fprintf(stderr, "trace: %s\n", Error.c_str());
    return 1;
  }
  if (!loadWarmStart(O.WarmStart, Config.WarmStart))
    return 1;
  Config.CaptureProfile = !O.ProfileOut.empty();

  TraceSink Sink;
  Sink.enable(Mask);
  Sink.setCapacity(O.MaxEvents);
  Config.Trace = &Sink;
  RunResult R = runBestOf(Config, O.Trials);
  if (!O.ProfileOut.empty()) {
    if (!writeFile(O.ProfileOut, R.CapturedProfile))
      return 1;
    std::fprintf(stderr, "v2 profile saved to %s\n", O.ProfileOut.c_str());
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

  auto Render = [&](std::ostream &OS) {
    writeChromeTrace(OS, Sink, ProcessName);
  };
  if (O.TraceOut.empty()) {
    Render(std::cout);
    return 0;
  }
  return writeTrace(O.TraceOut, Render) ? 0 : 1;
}

int cmdGrid(Options &O) {
  GridConfig &Config = O.Grid;
  Config.Workloads = O.Workloads;
  Config.Trials = O.Trials;
  for (const std::string &W : Config.Workloads)
    if (!knownWorkload(W))
      return 1;
  if (!O.TraceOut.empty() || !O.TraceFilter.empty()) {
    Config.Trace = true;
    std::string Error;
    if (!parseTraceFilter(O.TraceFilter, Config.TraceKindMask, Error)) {
      std::fprintf(stderr, "grid: %s\n", Error.c_str());
      return 1;
    }
  }
  if (!loadWarmStart(O.WarmStart, Config.WarmStart))
    return 1;
  Config.CaptureProfile = !O.ProfileOut.empty();

  GridResults Results = runGridParallel(Config, O.Jobs, printLine);
  using GridReport = std::string (*)(const GridResults &,
                                     const std::vector<PolicyKind> &,
                                     const std::vector<unsigned> &);
  const std::pair<const char *, GridReport> Reports[] = {
      {"fig4", reportFigure4},     {"fig5", reportFigure5},
      {"compile", reportCompileTime}, {"fig6", reportFigure6},
      {"summary", reportSummary}};
  for (const auto &[Name, Report] : Reports)
    if (O.Report == Name || O.Report == "all")
      std::printf("%s\n",
                  Report(Results, Config.Policies, Config.Depths).c_str());
  if (O.Metrics)
    std::printf("%s\n", reportRunMetrics(Results).c_str());
  if (!O.Csv.empty() &&
      !writeFile(O.Csv, exportCsv(Results, Config.Policies, Config.Depths),
                 "csv"))
    return 1;
  if (!O.MetricsCsv.empty() &&
      !writeFile(O.MetricsCsv, exportMetricsCsv(Results), "metrics csv"))
    return 1;
  if (!O.TraceOut.empty() &&
      !writeTrace(O.TraceOut, [&](std::ostream &OS) {
        exportGridTrace(OS, Results);
      }))
    return 1;
  if (!O.ProfileOut.empty()) {
    std::filesystem::create_directories(O.ProfileOut);
    size_t Written = 0;
    auto save = [&](const RunResult &R, const std::string &Stem) {
      const std::filesystem::path Path =
          std::filesystem::path(O.ProfileOut) / (Stem + ".prof");
      if (!writeFile(Path.string(), R.CapturedProfile))
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
                 O.ProfileOut.c_str());
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

int cmdFuzz(Options &O) {
  // The corpus of already-known findings, keyed on the canonical spec
  // (name and expect block stripped), so a rename is not "new".
  std::vector<std::string> KnownKeys;
  if (!O.KnownDir.empty()) {
    std::vector<ScenarioSpec> Corpus;
    if (!loadScenarioDir(O.KnownDir, Corpus))
      return 1;
    for (const ScenarioSpec &S : Corpus)
      KnownKeys.push_back(scenarioSearchKey(S));
    std::fprintf(stderr, "loaded %zu known reproducer(s) from %s\n",
                 KnownKeys.size(), O.KnownDir.c_str());
  }

  FuzzResults Results = runFuzz(O.Fuzz, printLine);
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
    if (!O.KnownDir.empty() && !Known)
      FoundNew = true;
    std::printf("# %s: %s %+.2f%% over %s (shrunk from %+.2f%%)%s\n%s\n",
                D.Spec.Name.c_str(), D.Spec.Expect.PolicyA.c_str(),
                D.DeltaPct, D.Spec.Expect.PolicyB.c_str(),
                D.OriginalDeltaPct, Known ? " [known]" : "", Text.c_str());
    if (!O.OutDir.empty()) {
      std::filesystem::create_directories(O.OutDir);
      const std::filesystem::path Path =
          std::filesystem::path(O.OutDir) / (D.Spec.Name + ".scn");
      if (!writeFile(Path.string(), Text, "reproducer"))
        return 1;
    }
  }
  if (FoundNew) {
    std::fprintf(stderr, "fuzz: NEW differential(s) not in %s\n",
                 O.KnownDir.c_str());
    return 1;
  }
  return 0;
}

int cmdReplay(Options &O) {
  const char *File = O.Operands[0].c_str();
  ScenarioSpec Spec;
  if (!loadScenarioFile(File, Spec))
    return 1;
  if (!Spec.HasExpectation) {
    std::fprintf(stderr, "%s has no expect block; nothing to replay\n", File);
    return 1;
  }
  PolicyKind Check;
  if (!parsePolicyKind(Spec.Expect.PolicyA, Check) ||
      !parsePolicyKind(Spec.Expect.PolicyB, Check)) {
    std::fprintf(stderr, "%s: unknown policy in expect block\n", File);
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

int cmdSteady(Options &O) {
  for (const std::string &W : O.Workloads)
    if (!knownWorkload(W))
      return 1;

  bool AllReached = true;
  std::string Json = "{\"workloads\":[";
  std::printf("%-22s %12s %12s %12s  %s\n", "workload", "wall Mcy",
              "warmup Mcy", "steady Mcy", "verdict");
  for (size_t I = 0; I != O.Workloads.size(); ++I) {
    RunConfig Config = O.Run;
    Config.WorkloadName = O.Workloads[I];
    TraceSink Sink;
    Sink.enable(steadyStateKindMask());
    Config.Trace = &Sink;
    const RunResult R = runBestOf(Config, O.Trials);
    const SteadyStateResult S = detectSteadyState(Sink, R.WallCycles);
    AllReached &= S.Reached;
    std::printf("%-22s %12.2f %12.2f %12.2f  %s (%s)\n",
                O.Workloads[I].c_str(),
                static_cast<double>(R.WallCycles) / 1e6,
                static_cast<double>(S.WarmupCycles) / 1e6,
                static_cast<double>(S.SteadyCycles) / 1e6,
                S.Reached ? "steady" : "NOT steady", S.Why.c_str());
    Json += formatString(
        "%s{\"name\":\"%s\",\"reached\":%s,\"wallCycles\":%llu,"
        "\"warmupCycles\":%llu,\"steadyCycles\":%llu,\"why\":\"%s\"}",
        I == 0 ? "" : ",", jsonEscape(O.Workloads[I]).c_str(),
        S.Reached ? "true" : "false",
        static_cast<unsigned long long>(R.WallCycles),
        static_cast<unsigned long long>(S.WarmupCycles),
        static_cast<unsigned long long>(S.SteadyCycles),
        jsonEscape(S.Why).c_str());
  }
  Json += formatString("],\"allReached\":%s}\n",
                       AllReached ? "true" : "false");
  if (!O.Json.empty() && !writeFile(O.Json, Json, "verdict"))
    return 1;
  return AllReached ? 0 : 1;
}

int cmdServe(Options &O) {
  ServeConfig &Config = O.Serve;
  if (O.Tenants.empty()) {
    std::fprintf(stderr, "serve: the tenant list is required\n");
    return usage();
  }
  std::string Error;
  if (!parseTenantList(O.Tenants, Config.Tenants, Error) ||
      !parseTraceFilter(O.TraceFilter, Config.TraceKindMask, Error)) {
    std::fprintf(stderr, "serve: %s\n", Error.c_str());
    return 1;
  }
  Config.Trace = !O.TraceOut.empty();
  Config.ShareEnabled = O.ShareCache.has_value();
  Config.ShareCapacityBytes = O.ShareCache.value_or(0);
  if (!loadWarmStart(O.WarmStart, Config.WarmStart))
    return 1;

  const ServeResults Results = runServe(Config, O.Jobs, printLine);
  std::printf("%s", reportServe(Results).c_str());
  if (!O.Csv.empty() &&
      !writeFile(O.Csv, exportServeCsv(Results), "serve csv"))
    return 1;
  if (!O.TraceOut.empty() &&
      !writeTrace(O.TraceOut, [&](std::ostream &OS) {
        exportServeTrace(OS, Results);
      }))
    return 1;
  return 0;
}

int cmdClaims(Options &O) {
  const ClaimsReport Report = runClaims(printLine);
  std::printf("%s", Report.Text.c_str());
  if (!O.Json.empty() && !writeFile(O.Json, Report.Json, "claims"))
    return 1;
  return Report.Pass ? 0 : 1;
}

int cmdDisasm(Options &O) {
  const std::string &Name = O.Operands[0];
  if (!knownWorkload(Name))
    return 1;
  Workload W = makeWorkload(Name, WorkloadParams{1, 0.01});
  if (O.Operands.size() == 2) {
    const std::string &Method = O.Operands[1];
    MethodId M = W.Prog.findMethod(Method);
    if (M == InvalidMethodId) {
      std::fprintf(stderr, "no method '%s' in %s\n", Method.c_str(),
                   Name.c_str());
      return 1;
    }
    std::printf("%s", disassembleMethod(W.Prog, M).c_str());
    return 0;
  }
  std::printf("%s", disassembleProgram(W.Prog).c_str());
  return 0;
}

/// Flushes standard output: a command whose output could not be written
/// (to a full disk, say) fails, whatever \p Status it returned.
int flushStdout(int Status) {
  if (std::cout.flush() && std::fflush(stdout) == 0 && !std::ferror(stdout))
    return Status;
  std::fprintf(stderr, "cannot write standard output\n");
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  for (const Command &C : Commands) {
    if (Argc < 2 || std::string_view(Argv[1]) != C.Name)
      continue;
    Options O;
    O.bind(C.Configs);
    if (!parseArgs(Argc, Argv, C, O))
      return 1;
    return flushStdout(C.Main(O));
  }
  return usage();
}
