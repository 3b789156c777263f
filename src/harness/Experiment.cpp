//===- harness/Experiment.cpp - Experiment runner ---------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "harness/SteadyState.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "trace/TraceJson.h"
#include "workload/scenario/ScenarioWorkload.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>

using namespace aoci;

std::shared_ptr<const Workload> aoci::buildWorkload(const RunConfig &Config) {
  return std::make_shared<const Workload>(
      Config.Scenario ? makeScenarioWorkload(*Config.Scenario, Config.Params)
                      : makeWorkload(Config.WorkloadName, Config.Params));
}

Session::Session(const RunConfig &Config,
                 std::shared_ptr<const Workload> Program,
                 SharedCodeCache *Share, unsigned SessionId)
    : Config(Config),
      W(Program ? std::move(Program) : buildWorkload(Config)),
      VM(W->Prog, Config.Model),
      Policy(makePolicy(Config.Policy, Config.MaxDepth)),
      Aos(VM, *Policy, Config.Aos) {
  if (Config.Trace)
    VM.setTraceSink(Config.Trace);
  if (Config.CollectTraceStats)
    Aos.traceListener().enableStatistics();
  if (Share) {
    Bridge = std::make_unique<ShareSession>(*Share, SessionId, VM);
    Aos.setShareClient(Bridge.get());
  }
  Aos.attach();
  if (Config.WarmStart)
    Warm = Aos.warmStart(*Config.WarmStart);
  for (MethodId Entry : W->Entries)
    VM.addThread(Entry);
}

bool Session::finished() const {
  for (const auto &T : VM.threads())
    if (!T->Finished)
      return false;
  return true;
}

RunResult Session::result() const {
  RunResult R;
  R.WorkloadName = W->Name;
  R.Policy = Config.Policy;
  R.MaxDepth = Config.MaxDepth;
#define RUN_COUNTER(Field, Column, Unit, Read) R.Field = Read;
#include "harness/RunCounters.def"
  for (unsigned C = 0; C != NumAosComponents; ++C)
    R.ComponentCycles[C] =
        VM.overheadMeter().cycles(static_cast<AosComponent>(C));
  R.ProgramResult = VM.threads().front()->Result.asInt();
  R.EstimateErrorPct = Aos.calibration().meanAbsErrorPct();
  R.WarmStarted = Config.WarmStart != nullptr;
  if (Config.CaptureProfile)
    R.CapturedProfile =
        serializeProfileData(Aos.snapshotProfile(W->Name));

  R.ClassesLoaded = W->Prog.numClasses();
  for (MethodId M = 0; M != W->Prog.numMethods(); ++M) {
    if (!VM.codeManager().current(M))
      continue;
    ++R.MethodsCompiled;
    R.BytecodesCompiled += W->Prog.method(M).bytecodeCount();
  }
  if (Config.CollectTraceStats)
    R.TraceStats = Aos.traceListener().statistics();
  return R;
}

std::span<const RunCounter> aoci::runCounters() {
  static constexpr RunCounter Table[] = {
#define RUN_COUNTER(Field, Column, Unit, Read)                                 \
  {Column, Unit, &RunResult::Field},
#include "harness/RunCounters.def"
  };
  return Table;
}

const RunCounter &aoci::runCounter(std::string_view Column) {
  for (const RunCounter &C : runCounters())
    if (Column == C.Column)
      return C;
  throw std::invalid_argument("no run counter has the column '" +
                              std::string(Column) + "'");
}

RunResult aoci::runExperiment(const RunConfig &Config) {
  Session S(Config);
  S.run();
  return S.result();
}

std::string aoci::runTraceName(const RunConfig &Config) {
  std::string Name = Config.WorkloadName + "/" + policyKindName(Config.Policy);
  if (Config.Policy != PolicyKind::ContextInsensitive)
    Name.append(".d").append(std::to_string(Config.MaxDepth));
  return Name;
}

uint64_t aoci::deriveRunSeed(const RunConfig &Config, unsigned Trial) {
  // Trial 0 keeps the configured seed so a single-trial grid cell is
  // exactly the configured run.
  if (Trial == 0)
    return Config.Model.SampleJitterSeed;
  // FNV-1a over every configuration field that identifies the run,
  // finished with a SplitMix64 avalanche. Nothing here depends on when
  // or where the run executes.
  uint64_t H = 0xcbf29ce484222325ull;
  auto MixByte = [&H](unsigned char B) {
    H ^= B;
    H *= 0x100000001b3ull;
  };
  auto Mix = [&MixByte](uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      MixByte(static_cast<unsigned char>(V >> (8 * I)));
  };
  for (char C : Config.WorkloadName)
    MixByte(static_cast<unsigned char>(C));
  if (Config.Scenario)
    for (char C : printScenario(*Config.Scenario))
      MixByte(static_cast<unsigned char>(C));
  Mix(static_cast<uint64_t>(Config.Policy));
  Mix(Config.MaxDepth);
  Mix(Config.Params.Seed);
  uint64_t ScaleBits = 0;
  static_assert(sizeof(Config.Params.Scale) == sizeof(ScaleBits));
  std::memcpy(&ScaleBits, &Config.Params.Scale, sizeof(ScaleBits));
  Mix(ScaleBits);
  Mix(Config.Model.SampleJitterSeed);
  Mix(Trial);
  H += 0x9e3779b97f4a7c15ull;
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
  return H ^ (H >> 31);
}

RunResult aoci::runBestOf(const RunConfig &Config, unsigned Trials,
                          std::shared_ptr<const Workload> Program) {
  assert(Trials >= 1 && "need at least one trial");
  if (!Program)
    Program = buildWorkload(Config);
  RunResult Best;
  // Each trial records into its own local sink; only the best trial's
  // stream survives into the caller's sink, matching the best-of run
  // the CSVs report.
  TraceSink BestTrace;
  for (unsigned T = 0; T != Trials; ++T) {
    RunConfig Trial = Config;
    Trial.Model.SampleJitterSeed = deriveRunSeed(Config, T);
    TraceSink TrialTrace;
    if (Config.Trace) {
      TrialTrace.enable(Config.Trace->kindMask());
      TrialTrace.setCapacity(Config.Trace->capacity());
      Trial.Trace = &TrialTrace;
    }
    Session S(Trial, Program);
    S.run();
    RunResult R = S.result();
    if (T == 0 || R.WallCycles < Best.WallCycles) {
      Best = std::move(R);
      BestTrace = std::move(TrialTrace);
    }
  }
  if (Config.Trace)
    Config.Trace->adoptEvents(std::move(BestTrace));
  return Best;
}

GridConfig::GridConfig() {
  Workloads = workloadNames();
  Policies = {PolicyKind::Fixed,           PolicyKind::Parameterless,
              PolicyKind::ClassMethods,    PolicyKind::LargeMethods,
              PolicyKind::HybridParamClass, PolicyKind::HybridParamLarge};
}

const RunResult &GridResults::baseline(const std::string &Workload) const {
  auto It = Baselines.find(Workload);
  assert(It != Baselines.end() && "baseline not run");
  return It->second;
}

const RunResult &GridResults::cell(const std::string &Workload,
                                   PolicyKind Policy,
                                   unsigned Depth) const {
  auto It = Cells.find(
      CellKey{Workload, static_cast<uint8_t>(Policy), Depth});
  assert(It != Cells.end() && "cell not run");
  return It->second;
}

double GridResults::speedupPercent(const std::string &Workload,
                                   PolicyKind Policy,
                                   unsigned Depth) const {
  return aoci::speedupPercent(
      static_cast<double>(baseline(Workload).WallCycles),
      static_cast<double>(cell(Workload, Policy, Depth).WallCycles));
}

double GridResults::codeSizePercent(const std::string &Workload,
                                    PolicyKind Policy,
                                    unsigned Depth) const {
  // "Compiled code space" is the resident optimized code: the bytes of
  // optimized machine code installed once the system converges. The
  // cumulative-generated figure (which also counts code obsoleted by
  // recompilation) tracks compile *time* and is reported separately.
  return percentChange(
      static_cast<double>(baseline(Workload).OptBytesResident),
      static_cast<double>(cell(Workload, Policy, Depth).OptBytesResident));
}

double GridResults::compileTimePercent(const std::string &Workload,
                                       PolicyKind Policy,
                                       unsigned Depth) const {
  return percentChange(
      static_cast<double>(baseline(Workload).OptCompileCycles),
      static_cast<double>(cell(Workload, Policy, Depth).OptCompileCycles));
}

void GridResults::addBaseline(RunResult R) {
  Workloads.push_back(R.WorkloadName);
  Baselines.emplace(R.WorkloadName, std::move(R));
}

void GridResults::addCell(RunResult R) {
  if (std::find(Policies.begin(), Policies.end(), R.Policy) == Policies.end())
    Policies.push_back(R.Policy);
  if (std::find(Depths.begin(), Depths.end(), R.MaxDepth) == Depths.end())
    Depths.push_back(R.MaxDepth);
  CellKey Key{R.WorkloadName, static_cast<uint8_t>(R.Policy), R.MaxDepth};
  Cells.emplace(std::move(Key), std::move(R));
}

namespace {

/// One scheduled run of a sweep. runGrid executes planGrid()'s plan at
/// every job count and assembles it in plan order, which is what makes
/// its GridResults identical by construction.
struct PlannedRun {
  RunConfig Config;
  bool IsBaseline = false;
  /// Position of the run's workload in GridConfig::Workloads. A group's
  /// runs are contiguous in the plan, baseline first, and share one
  /// build of their program.
  size_t Group = 0;
};

/// Throws std::invalid_argument naming \p List and the first item of
/// \p Items that repeats an earlier one: a repeat would run again and be
/// reported twice.
template <typename T, typename Namer>
void rejectRepeats(const char *List, const std::vector<T> &Items,
                   Namer Name) {
  for (auto It = Items.begin(); It != Items.end(); ++It)
    if (std::find(Items.begin(), It, *It) != It)
      throw std::invalid_argument(std::string("GridConfig::") + List +
                                  " lists '" + Name(*It) + "' twice");
}

std::vector<PlannedRun> planGrid(const GridConfig &Config) {
  rejectRepeats("Workloads", Config.Workloads,
                [](const std::string &W) { return W; });
  rejectRepeats("Policies", Config.Policies,
                [](PolicyKind P) { return std::string(policyKindName(P)); });
  rejectRepeats("Depths", Config.Depths,
                [](unsigned D) { return std::to_string(D); });
  std::vector<PlannedRun> Plan;
  Plan.reserve(Config.Workloads.size() *
               (1 + Config.Policies.size() * Config.Depths.size()));
  for (size_t Group = 0; Group != Config.Workloads.size(); ++Group) {
    PlannedRun Base;
    Base.Group = Group;
    Base.Config.WorkloadName = Config.Workloads[Group];
    Base.Config.Params = Config.Params;
    Base.Config.Policy = PolicyKind::ContextInsensitive;
    Base.Config.MaxDepth = 1;
    Base.Config.Aos = Config.Aos;
    Base.Config.Model = Config.Model;
    Base.Config.WarmStart = Config.WarmStart;
    Base.Config.CaptureProfile = Config.CaptureProfile;
    Base.IsBaseline = true;
    Plan.push_back(Base);
    for (PolicyKind Policy : Config.Policies) {
      for (unsigned Depth : Config.Depths) {
        PlannedRun Cell = Base;
        Cell.Config.Policy = Policy;
        Cell.Config.MaxDepth = Depth;
        Cell.IsBaseline = false;
        Plan.push_back(std::move(Cell));
      }
    }
  }
  return Plan;
}

RunMetrics makeMetrics(const PlannedRun &Run, const RunResult &Result,
                       unsigned Worker, uint64_t QueueLatencyNs,
                       uint64_t HostNs) {
  RunMetrics M;
  M.WorkloadName = Result.WorkloadName;
  M.Policy = Run.Config.Policy;
  M.MaxDepth = Run.Config.MaxDepth;
  M.IsBaseline = Run.IsBaseline;
  M.Worker = Worker;
  M.QueueLatencyNs = QueueLatencyNs;
  M.HostNs = HostNs;
  // The steady/warmup split comes from the run's own trace stream; a
  // grid without tracing (or with a filter missing the needed kinds)
  // reports the verdict as unknown rather than guessing.
  if (Run.Config.Trace) {
    const SteadyStateResult S =
        detectSteadyState(*Run.Config.Trace, Result.WallCycles);
    M.SteadyKnown = S.Computed;
    M.SteadyReached = S.Reached;
    M.WarmupCycles = S.WarmupCycles;
    M.SteadyCycles = S.SteadyCycles;
  }
  return M;
}

/// Builds one enabled per-run sink per planned run (the lock-free
/// discipline: a sink is only ever appended to by the executor running
/// its run). Empty when the grid is not tracing.
std::vector<TraceSink> planSinks(const GridConfig &Config,
                                 std::vector<PlannedRun> &Plan) {
  std::vector<TraceSink> Sinks;
  if (!Config.Trace)
    return Sinks;
  Sinks.resize(Plan.size());
  for (size_t I = 0; I != Plan.size(); ++I) {
    Sinks[I].enable(Config.TraceKindMask);
    Plan[I].Config.Trace = &Sinks[I];
  }
  return Sinks;
}

/// Folds executed runs (in plan order) into a GridResults.
GridResults assembleGrid(std::vector<PlannedRun> &Plan,
                         std::vector<RunResult> &Runs,
                         std::vector<RunMetrics> &Metrics,
                         std::vector<TraceSink> &Sinks) {
  GridResults Results;
  for (size_t I = 0; I != Plan.size(); ++I) {
    if (Plan[I].IsBaseline)
      Results.addBaseline(std::move(Runs[I]));
    else
      Results.addCell(std::move(Runs[I]));
    Results.addMetrics(std::move(Metrics[I]));
    if (!Sinks.empty())
      Results.addTrace(std::move(Sinks[I]), runTraceName(Plan[I].Config));
  }
  return Results;
}

/// The runs of one grid workload and the one build of its program they
/// share. The first run to start builds the program and the last to
/// finish drops it. Runs start in plan order (the pool dequeues in
/// submission order) and a workload's runs are contiguous there, so a
/// program is resident only while a run of its workload is in flight:
/// one job holds one at a time, and no job count builds every
/// workload's up front.
class WorkloadBuild {
public:
  /// Counts one more run of the workload.
  void addRun() {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Unfinished;
  }

  /// Runs \p Config's trials on the shared build.
  RunResult run(const RunConfig &Config, unsigned Trials) {
    RunResult R = runBestOf(Config, Trials, acquire(Config));
    std::lock_guard<std::mutex> Lock(Mutex);
    if (--Unfinished == 0)
      Program.reset();
    return R;
  }

private:
  std::shared_ptr<const Workload> acquire(const RunConfig &Config) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Program)
      Program = buildWorkload(Config);
    return Program;
  }

  std::mutex Mutex;
  std::shared_ptr<const Workload> Program;
  size_t Unfinished = 0;
};

/// One WorkloadBuild per workload of the sweep, counting its runs.
std::vector<WorkloadBuild> planBuilds(const GridConfig &Config,
                                      const std::vector<PlannedRun> &Plan) {
  std::vector<WorkloadBuild> Builds(Config.Workloads.size());
  for (const PlannedRun &Run : Plan)
    Builds[Run.Group].addRun();
  return Builds;
}

uint64_t elapsedNs(std::chrono::steady_clock::time_point From,
                   std::chrono::steady_clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
          .count());
}

} // namespace

GridResults
aoci::runGrid(const GridConfig &Config,
              const std::function<void(const std::string &)> &Progress,
              unsigned Jobs) {
  std::vector<PlannedRun> Plan = planGrid(Config);
  std::vector<RunMetrics> Metrics(Plan.size());
  std::vector<TraceSink> Sinks = planSinks(Config, Plan);
  std::vector<WorkloadBuild> Builds = planBuilds(Config, Plan);
  std::mutex ProgressMutex;
  ThreadPool Pool(ThreadPool::workersFor(Jobs, Plan.size()));
  const auto Enqueued = std::chrono::steady_clock::now();
  std::vector<RunResult> Runs = Pool.runIndexed(Plan.size(), [&](size_t I) {
    auto Start = std::chrono::steady_clock::now();
    RunResult R = Builds[Plan[I].Group].run(Plan[I].Config, Config.Trials);
    auto End = std::chrono::steady_clock::now();
    const RunMetrics &M = Metrics[I] =
        makeMetrics(Plan[I], R, Pool.executor(), elapsedNs(Enqueued, Start),
                    elapsedNs(Start, End));
    if (Progress) {
      // Relative quantities need the workload's baseline, which may
      // still be in flight on another executor; report absolutes.
      std::lock_guard<std::mutex> Lock(ProgressMutex);
      Progress(formatString(
          "%-12s %-10s max=%u: %llu cycles, %llu opt bytes "
          "(%llu resident; worker %u, %.1f host ms)",
          R.WorkloadName.c_str(), policyKindName(M.Policy), M.MaxDepth,
          static_cast<unsigned long long>(R.WallCycles),
          static_cast<unsigned long long>(R.OptBytesGenerated),
          static_cast<unsigned long long>(R.OptBytesResident), M.Worker,
          static_cast<double>(M.HostNs) / 1e6));
    }
    return R;
  });
  return assembleGrid(Plan, Runs, Metrics, Sinks);
}

void aoci::exportGridTrace(std::ostream &OS, const GridResults &Results) {
  std::vector<TraceProcess> Procs;
  Procs.reserve(Results.traces().size());
  for (size_t I = 0; I != Results.traces().size(); ++I)
    Procs.push_back(TraceProcess{&Results.traces()[I],
                                 Results.traceNames()[I]});
  writeChromeTrace(OS, Procs);
}
