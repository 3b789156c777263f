//===- perfbench/Workloads.cpp - The benchmark's workloads ---------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads, generated from the seed, and their untraced
/// passes through the harness's public entry points: runGrid for
/// paper-grid, runServe with one job for serve-shared, and runExperiment
/// per op for cache-churn.
///
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "harness/Fuzzer.h"
#include "support/Rng.h"
#include "workload/scenario/ScenarioMutator.h"
#include "workload/scenario/ScenarioWorkload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <stdexcept>

using namespace aoci;
using namespace perfbench;

namespace {

/// Program scale of each workload. paper-grid runs at the scale of the
/// measured split in README.md; serve-shared runs its tenants at full
/// scale, as `aoci serve` does by default; cache-churn runs at the scale
/// `aoci fuzz` uses (FuzzConfig::Params).
constexpr double GridScale = 0.25;
constexpr double ServeScale = 1.0;
/// cache-churn: seeded mutants of each of the other three adversaries,
/// and program seeds scn-cache-churn runs under. Each scenario runs under
/// both policies, so a pass is 3 x 25 x 2 + 125 x 2 = 400 ops, and the
/// scn-cache-churn runs, several times costlier than the others, are more
/// than half of them: the median and p90 ops lie inside that block. It
/// is not mutated, because each mutation kind costs differently per op,
/// and with seeded mutants in the block its p90 spread 22% over five
/// seeds.
constexpr unsigned ChurnMutants = 24;
constexpr unsigned CacheChurnCopies = 125;
/// serve-shared: below the unbounded shared-index peak (341,740 bytes at
/// seed 1), so cross-session evictions happen.
constexpr uint64_t ServeShareCapacity = 200000;
constexpr uint64_t ServeSliceCycles = 1000000;

PassResult runGridPass(const BenchWorkload &W, OpLedger &Ledger) {
  PassResult P;
  // runGrid calls Progress as each run ends, so the CPU time between two
  // calls is one run's (plus runGrid's bookkeeping between runs, about a
  // microsecond). Its wall time comes from RunMetrics::HostNs.
  std::vector<double> CpuNs;
  double Prev = cpuNowNs();
  GridResults G;
  try {
    G = runGrid(W.Grid, [&](const std::string &) {
      const double Now = cpuNowNs();
      CpuNs.push_back(Now - Prev);
      Prev = Now;
    });
  } catch (const std::exception &E) {
    // runGrid returns nothing when a run throws, so no op of the pass
    // can be checked.
    for (size_t I = 0; I <= CpuNs.size(); ++I)
      Ledger.fail(Ledger.attempt(),
                  std::string("runGrid threw: ") + E.what());
    return P;
  }
  if (G.metrics().size() != W.Runs.size() || CpuNs.size() != W.Runs.size())
    throw std::runtime_error("runGrid ran " +
                             std::to_string(G.metrics().size()) +
                             " runs, the plan has " +
                             std::to_string(W.Runs.size()));
  for (size_t I = 0; I != W.Runs.size(); ++I) {
    const RunMetrics &M = G.metrics()[I];
    const RunConfig &C = W.Runs[I];
    if (M.WorkloadName != C.WorkloadName || M.Policy != C.Policy ||
        M.MaxDepth != C.MaxDepth)
      throw std::runtime_error("runGrid's run order differs from the plan");
    const RunResult &R = M.IsBaseline
                             ? G.baseline(M.WorkloadName)
                             : G.cell(M.WorkloadName, M.Policy, M.MaxDepth);
    checkResult(W, C.WorkloadName, R.ProgramResult, Ledger, Ledger.attempt());
    P.Ops.push_back({CpuNs[I], static_cast<double>(M.HostNs),
                     static_cast<double>(R.WallCycles)});
    P.Totals.SimCycles += R.WallCycles;
    P.Totals.CodeBytes += R.LiveCodeBytes;
    P.Totals.OptCompileCycles += R.OptCompileCycles;
  }
  return P;
}

PassResult runChurnPass(const BenchWorkload &W, OpLedger &Ledger) {
  PassResult P;
  for (const RunConfig &C : W.Runs) {
    const size_t Op = Ledger.attempt();
    try {
      const double Cpu = cpuNowNs(), Wall = wallNowNs();
      RunResult R = runExperiment(C);
      const double CpuNs = cpuNowNs() - Cpu, WallNs = wallNowNs() - Wall;
      checkResult(W, C.WorkloadName, R.ProgramResult, Ledger, Op);
      P.Ops.push_back({CpuNs, WallNs, static_cast<double>(R.WallCycles)});
      P.Totals.SimCycles += R.WallCycles;
      P.Totals.CodeBytes += R.LiveCodeBytes;
      P.Totals.OptCompileCycles += R.OptCompileCycles;
    } catch (const std::exception &E) {
      Ledger.fail(Op, C.WorkloadName + " threw: " + E.what());
    }
  }
  return P;
}

PassResult runServePass(const BenchWorkload &W, OpLedger &Ledger) {
  PassResult P;
  // An op is one session's slice: a round runs one slice of every active
  // session, and the barrier ends them together. runServe reports only
  // round ends, so each round's time is split evenly over its slices.
  // Per round instead, the median would fall between plateaus of the
  // round-size mix (1 to 18 sessions) and jump with the seed. Round 0
  // ends at the first Progress callback; runServe reports nothing
  // between session construction and that, so round 0 counts as set-up.
  // Process CPU time includes the pool worker that runs each slice while
  // this thread waits.
  std::vector<size_t> RoundFirstOp;
  uint64_t Rounds = 0;
  double ActiveSum = 0;
  bool Unparsed = false;
  const double Start = cpuNowNs();
  double Prev = Start, PrevWall = wallNowNs();
  ServeResults R;
  try {
    R = runServe(W.Serve, /*Jobs=*/1, [&](const std::string &Line) {
      const double Now = cpuNowNs(), NowWall = wallNowNs();
      unsigned long long Round = 0;
      size_t Active = 0;
      if (std::sscanf(Line.c_str(), "round %llu: %zu active", &Round,
                      &Active) != 2 ||
          Round != Rounds)
        Unparsed = true;
      RoundFirstOp.push_back(Ledger.attempted());
      if (Rounds == 0) {
        P.SetupNs = Now - Start;
      } else if (Active != 0) {
        const double N = static_cast<double>(Active);
        for (size_t I = 0; I != Active; ++I) {
          Ledger.attempt();
          P.Ops.push_back({(Now - Prev) / N, (NowWall - PrevWall) / N,
                           static_cast<double>(W.Serve.SliceCycles)});
        }
      }
      ActiveSum += static_cast<double>(Active);
      ++Rounds;
      Prev = Now;
      PrevWall = NowWall;
    });
  } catch (const std::exception &E) {
    Ledger.fail(Ledger.attempt(), std::string("runServe threw: ") + E.what());
    return P;
  }
  if (Unparsed || Rounds != R.Rounds)
    throw std::runtime_error("runServe's progress lines do not count rounds");
  for (const ServeSessionResult &S : R.Sessions) {
    const uint64_t LastRound = S.StartRound + S.RoundsRun - 1;
    checkResult(W, S.TenantName, S.ProgramResult, Ledger,
                sliceOp(RoundFirstOp, LastRound, Ledger));
    P.Totals.SimCycles += S.WallCycles;
    P.Totals.CodeBytes += S.SharedCodeBytes + S.PrivateCodeBytes;
    P.Totals.OptCompileCycles += S.OptCompileCycles;
    // Round 0 ran one slice of each session starting then. The VM stops
    // at the first check past the slice bound, so the overshoot (one
    // instruction or charge) is counted as timed; the aggregate printed
    // from this is a diagnostic.
    if (S.StartRound == 0)
      P.UntimedCycles += std::min(S.WallCycles, W.Serve.SliceCycles);
  }
  P.ActiveMean = Rounds ? ActiveSum / static_cast<double>(Rounds) : 0;
  P.Serve = std::move(R);
  return P;
}

/// A mutant of \p Parent with the parent's phases, iterations and work
/// units: only the knobs that reshape code (depth, megamorphism,
/// allocation, method churn, call-graph shape) change. Mutations of run
/// length would make the seed decide how much work a pass holds, and the
/// end-to-end totals would then spread with the seed far beyond any
/// regression bound.
ScenarioSpec sameWorkMutant(ScenarioMutator &Mutator,
                            const ScenarioSpec &Parent) {
  auto SameWork = [&Parent](const ScenarioSpec &S) {
    if (S.Phases.size() != Parent.Phases.size())
      return false;
    for (size_t I = 0; I != S.Phases.size(); ++I)
      if (S.Phases[I].Iterations != Parent.Phases[I].Iterations ||
          S.Phases[I].WorkUnits != Parent.Phases[I].WorkUnits)
        return false;
    return true;
  };
  // Half of the mutator's moves keep the work, so 64 draws all failing
  // has probability 2^-64; the parent itself is the fallback.
  for (unsigned Attempt = 0; Attempt != 64; ++Attempt) {
    ScenarioSpec S = Mutator.mutate(Parent);
    if (SameWork(S))
      return S;
  }
  return Parent;
}

} // namespace

double perfbench::cpuNowNs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e9 + static_cast<double>(T.tv_nsec);
}

double perfbench::wallNowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void perfbench::checkResult(const BenchWorkload &W,
                            const std::string &Program, int64_t Result,
                            OpLedger &Ledger, size_t Op) {
  auto It = W.Reference.find(Program);
  if (It == W.Reference.end()) {
    Ledger.fail(Op, "no reference result for " + Program);
    return;
  }
  if (It->second != Result)
    Ledger.fail(Op, Program + " returned " + std::to_string(Result) +
                        ", reference " + std::to_string(It->second));
}

Workload perfbench::buildProgram(const ProgramSpec &P) {
  return P.Scenario ? makeScenarioWorkload(*P.Scenario, P.Params)
                    : makeWorkload(P.Name, P.Params);
}

bool perfbench::makeBenchWorkload(const std::string &Name, uint64_t Seed,
                                  BenchWorkload &W) {
  W.Name = Name;
  if (Name == "paper-grid") {
    // The full Figure 4/5/6 sweep `aoci grid` runs: every Table 1
    // workload's cins baseline, then 6 policies x depths 2-5.
    W.Kind = WorkloadKind::PaperGrid;
    W.Grid.Params = WorkloadParams{Seed, GridScale};
    for (const std::string &Program : W.Grid.Workloads) {
      W.Programs.push_back({Program, nullptr, W.Grid.Params});
      RunConfig Base;
      Base.WorkloadName = Program;
      Base.Params = W.Grid.Params;
      Base.Aos = W.Grid.Aos;
      Base.Model = W.Grid.Model;
      W.Runs.push_back(Base);
      for (PolicyKind Policy : W.Grid.Policies)
        for (unsigned Depth : W.Grid.Depths) {
          RunConfig Cell = Base;
          Cell.Policy = Policy;
          Cell.MaxDepth = Depth;
          W.Runs.push_back(Cell);
        }
    }
    return true;
  }
  if (Name == "serve-shared") {
    // Two sessions of each Table 1 workload, so the second can hit what
    // the first published, plus two adversaries; `aoci serve`'s default
    // policy (fixed, depth 4) and OSR.
    W.Kind = WorkloadKind::ServeShared;
    for (const std::string &Program : workloadNames())
      W.Serve.Tenants.push_back({Program, 2});
    W.Serve.Tenants.push_back({"scn-megamorphic-storm", 1});
    W.Serve.Tenants.push_back({"scn-phase-flip", 1});
    W.Serve.Params = WorkloadParams{Seed, ServeScale};
    W.Serve.SliceCycles = ServeSliceCycles;
    W.Serve.ShareCapacityBytes = ServeShareCapacity;
    for (const ServeTenantSpec &T : W.Serve.Tenants) {
      W.Programs.push_back({T.Name, nullptr, W.Serve.Params});
      RunConfig Solo;
      Solo.WorkloadName = T.Name;
      Solo.Params = W.Serve.Params;
      Solo.Policy = W.Serve.Policy;
      Solo.MaxDepth = W.Serve.MaxDepth;
      Solo.Aos = W.Serve.Aos;
      Solo.Model = W.Serve.Model;
      W.Runs.push_back(Solo);
    }
    return true;
  }
  if (Name == "cache-churn") {
    // The `aoci fuzz` configuration (6000-byte code cache, OSR, fixed
    // depth 4 against cins) over the built-in adversaries and seeded
    // mutants of three of them (see CacheChurnCopies for why not the
    // fourth). Each scenario also gets its own program seed
    // (which lays out its cold library), drawn from the workload seed:
    // with one program seed for all, how hard the layout squeezes the
    // 6000-byte cache was shared by every op, and compile cycles moved
    // 15% between workload seeds.
    W.Kind = WorkloadKind::CacheChurn;
    const FuzzConfig Fuzz;
    ScenarioMutator Mutator(Seed);
    Rng ProgramSeeds(Seed);
    for (const ScenarioSpec &Builtin : builtinScenarios()) {
      const bool Churn = Builtin.Name == "scn-cache-churn";
      for (unsigned M = 0; M != (Churn ? CacheChurnCopies : ChurnMutants + 1);
           ++M) {
        const WorkloadParams Params{ProgramSeeds.next(), Fuzz.Params.Scale};
        ScenarioSpec Spec =
            M == 0 || Churn ? Builtin : sameWorkMutant(Mutator, Builtin);
        if (M != 0)
          Spec.Name = Builtin.Name + "~" + std::to_string(M);
        auto Shared = std::make_shared<const ScenarioSpec>(std::move(Spec));
        W.Programs.push_back({Shared->Name, Shared, Params});
        const std::pair<PolicyKind, unsigned> Sides[] = {
            {Fuzz.PolicyA, Fuzz.DepthA}, {Fuzz.PolicyB, Fuzz.DepthB}};
        for (const auto &[Policy, Depth] : Sides) {
          RunConfig C;
          C.WorkloadName = Shared->Name;
          C.Scenario = Shared;
          C.Params = Params;
          C.Policy = Policy;
          C.MaxDepth = Depth;
          C.Model = Fuzz.Model;
          C.Aos = Fuzz.Aos;
          W.Runs.push_back(C);
        }
      }
    }
    return true;
  }
  return false;
}

void perfbench::computeReferences(BenchWorkload &W) {
  for (const ProgramSpec &P : W.Programs) {
    if (W.Reference.count(P.Name))
      continue;
    Workload Built = buildProgram(P);
    VirtualMachine VM(Built.Prog);
    for (MethodId Entry : Built.Entries)
      VM.addThread(Entry);
    VM.run();
    W.Reference[P.Name] = VM.threads().front()->Result.asInt();
  }
}

std::vector<OpSample>
perfbench::bestOps(const std::vector<std::vector<OpSample>> &PassOps) {
  size_t Ops = 0;
  for (const std::vector<OpSample> &P : PassOps)
    Ops = std::max(Ops, P.size());
  std::vector<OpSample> Best;
  for (const std::vector<OpSample> &P : PassOps) {
    if (P.size() != Ops)
      continue;
    if (Best.empty()) {
      Best = P;
      continue;
    }
    for (size_t I = 0; I != Ops; ++I)
      Best[I].Ns = std::min(Best[I].Ns, P[I].Ns);
  }
  return Best;
}

size_t perfbench::sliceOp(const std::vector<size_t> &RoundFirstOp,
                          uint64_t LastRound, OpLedger &Ledger) {
  if (LastRound == 0 || LastRound >= RoundFirstOp.size() ||
      RoundFirstOp[LastRound] >= Ledger.attempted())
    return Ledger.attempt();
  return RoundFirstOp[LastRound];
}

PassResult perfbench::runPass(const BenchWorkload &W, OpLedger &Ledger) {
  switch (W.Kind) {
  case WorkloadKind::PaperGrid:
    return runGridPass(W, Ledger);
  case WorkloadKind::ServeShared:
    return runServePass(W, Ledger);
  case WorkloadKind::CacheChurn:
    return runChurnPass(W, Ledger);
  }
  throw std::logic_error("unknown workload kind");
}

