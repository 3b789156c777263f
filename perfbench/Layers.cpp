//===- perfbench/Layers.cpp - The traced run's per-layer split -----------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced pass assembles each run from the layers' public interfaces,
/// the way runExperiment does, and puts a span around every call into a
/// layer: program builds, VM and adaptive-system construction,
/// VirtualMachine::run, a SampleSink forwarding to
/// AdaptiveSystem::onSample, and a CodeShareClient whose two hooks mark
/// where each optimizing compile and each install ends. Spans live in
/// memory until their op ends; then each span's self time (its duration
/// minus its children's) is added to its layer. Time between a span's
/// children is its own self time, so an op's self times always sum to
/// its duration; what can go wrong is nesting, which fold() checks.
///
/// The probe client reports every compile as a miss, so no simulated
/// cycle changes; runTracedPass's caller checks that. It does count
/// AosStats::SharePublishes, which is why no counter of the traced pass
/// feeds an end-to-end metric.
///
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

using namespace aoci;
using namespace perfbench;

const char *perfbench::layerName(Layer L) {
  static const char *const Names[NumLayers] = {
      "harness", "workload", "vm.setup", "vm.exec",
      "core.setup", "core",  "opt",      "vm.install"};
  return Names[static_cast<unsigned>(L)];
}

void TracedResult::merge(TracedResult &&Other) {
  OpNs.insert(OpNs.end(), Other.OpNs.begin(), Other.OpNs.end());
  Comparable.insert(Comparable.end(), Other.Comparable.begin(),
                    Other.Comparable.end());
  for (size_t L = 0; L != NumLayers; ++L)
    SelfNs[L].insert(SelfNs[L].end(), Other.SelfNs[L].begin(),
                     Other.SelfNs[L].end());
  BuildNs.insert(BuildNs.end(), Other.BuildNs.begin(), Other.BuildNs.end());
  Installs += Other.Installs;
  if (Passes == 0) {
    Counts = Other.Counts;
    Totals = Other.Totals;
  }
  Passes += Other.Passes;
}

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr uint32_t NoSpan = UINT32_MAX;

/// A span that nests wrongly: a fault of the benchmark, not of an op.
struct SpanError : std::logic_error {
  using std::logic_error::logic_error;
};

/// The spans of one op, in start order. Single-threaded: the benchmark
/// runs every op on one thread.
class SpanRecorder {
public:
  uint32_t open(Layer L) {
    Spans.push_back({L, Top, nowNs(), 0});
    Top = static_cast<uint32_t>(Spans.size() - 1);
    return Top;
  }

  /// Closes \p Id, which must be the innermost open span, and returns
  /// its duration in ns.
  uint64_t close(uint32_t Id) {
    if (Id != Top)
      throw SpanError("span closed out of order");
    unwind(Id);
    return Spans[Id].End - Spans[Id].Start;
  }

  /// Closes \p Id and any span still open inside it (an op that threw).
  void unwind(uint32_t Id) noexcept {
    Spans[Id].End = nowNs();
    Top = Spans[Id].Parent;
  }

  /// Records a finished child [Start, End] of the open span.
  void add(Layer L, uint64_t Start, uint64_t End) {
    Spans.push_back({L, Top, Start, End});
  }

  /// Layer of the innermost open span (Harness when none is open).
  Layer openLayer() const {
    return Top == NoSpan ? Layer::Harness : Spans[Top].L;
  }

  /// Folds the closed root's spans into per-layer self ns and clears.
  /// Throws when a child leaves its parent's interval or siblings
  /// overlap, which would count time twice.
  std::array<double, NumLayers> fold() {
    if (Spans.empty() || Top != NoSpan)
      throw SpanError("folding a root that is still open");
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    std::vector<uint64_t> LastEnd(Spans.size(), 0);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (S.End < S.Start)
        throw SpanError("span ends before it starts");
      if (S.Parent == NoSpan) {
        if (I != 0)
          throw SpanError("two roots in one op");
        continue;
      }
      const Span &P = Spans[S.Parent];
      if (S.Start < P.Start || S.End > P.End || S.Start < LastEnd[S.Parent])
        throw SpanError(std::string("span ") + layerName(S.L) +
                                 " leaves its parent " + layerName(P.L) +
                                 " or overlaps a sibling");
      LastEnd[S.Parent] = S.End;
      ChildNs[S.Parent] += S.End - S.Start;
    }
    std::array<double, NumLayers> Self{};
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[static_cast<unsigned>(Spans[I].L)] +=
          static_cast<double>(Spans[I].End - Spans[I].Start - ChildNs[I]);
    Spans.clear();
    return Self;
  }

private:
  struct Span {
    Layer L;
    uint32_t Parent;
    uint64_t Start, End;
  };
  std::vector<Span> Spans;
  uint32_t Top = NoSpan;
};

class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, Layer L) : Rec(Rec), Id(Rec.open(L)) {}
  ~ScopedSpan() {
    if (Open)
      Rec.unwind(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Closes the span early and returns its duration in ns.
  uint64_t close() {
    Open = false;
    return Rec.close(Id);
  }

private:
  SpanRecorder &Rec;
  uint32_t Id;
  bool Open = true;
};

/// Sample sink and share client of one traced run. onSample opens a
/// core span; inside it, the compile hook closes an opt span that began
/// at onSample entry (or at the previous install), and the install hook
/// closes a vm.install span that began at the compile hook. Every
/// compile is reported as a miss, as with no share client.
class LayerProbe final : public SampleSink, public CodeShareClient {
public:
  LayerProbe(SpanRecorder &Rec, AdaptiveSystem &Aos) : Rec(Rec), Aos(Aos) {}

  void onSample(VirtualMachine &VM, ThreadState &Thread,
                bool AtPrologue) override {
    ScopedSpan S(Rec, Layer::Core);
    Mark = nowNs();
    Aos.onSample(VM, Thread, AtPrologue);
  }

  ShareOutcome onVariantCompiled(const CodeVariant &) override {
    endPhase(Layer::Opt);
    return ShareOutcome();
  }

  void onVariantInstalled(const CodeVariant &, const ShareOutcome &) override {
    endPhase(Layer::Install);
    ++Installs;
  }

  uint64_t installs() const { return Installs; }
  /// True when a hook fired outside onSample, so its span would have
  /// been charged to the wrong layer.
  bool misplaced() const { return Misplaced; }

private:
  void endPhase(Layer L) {
    const uint64_t Now = nowNs();
    if (Rec.openLayer() != Layer::Core)
      Misplaced = true;
    Rec.add(L, Mark, Now);
    Mark = Now;
  }

  SpanRecorder &Rec;
  AdaptiveSystem &Aos;
  uint64_t Mark = 0;
  uint64_t Installs = 0;
  bool Misplaced = false;
};

/// A VM, policy and adaptive system assembled in runExperiment's order,
/// with the probe installed as share client and (after attach) as the
/// VM's sample sink.
struct TracedRun {
  Workload W;
  std::unique_ptr<VirtualMachine> VM;
  std::unique_ptr<ContextPolicy> Policy;
  std::unique_ptr<AdaptiveSystem> Aos;
  std::unique_ptr<LayerProbe> Probe;

  TracedRun(SpanRecorder &Rec, TracedResult &Out, const RunConfig &C) {
    {
      ScopedSpan S(Rec, Layer::Workload);
      W = buildProgram(ProgramSpec{C.WorkloadName, C.Scenario, C.Params});
      Out.BuildNs.push_back(static_cast<double>(S.close()));
    }
    {
      ScopedSpan S(Rec, Layer::VmSetup);
      VM = std::make_unique<VirtualMachine>(W.Prog, C.Model);
    }
    {
      ScopedSpan S(Rec, Layer::CoreSetup);
      Policy = makePolicy(C.Policy, C.MaxDepth);
      Aos = std::make_unique<AdaptiveSystem>(*VM, *Policy, C.Aos);
      Probe = std::make_unique<LayerProbe>(Rec, *Aos);
      Aos->setShareClient(Probe.get());
      Aos->attach();
      VM->setSampleSink(Probe.get());
    }
    ScopedSpan S(Rec, Layer::VmSetup);
    for (MethodId Entry : W.Entries)
      VM->addThread(Entry);
  }

  void run(SpanRecorder &Rec) {
    ScopedSpan S(Rec, Layer::VmExec);
    VM->run();
  }

  int64_t result() const { return VM->threads().front()->Result.asInt(); }

  /// Adds this run's counters, as it ended, into \p Out.
  void harvest(TracedResult &Out) const {
    if (Probe->misplaced())
      throw SpanError("a compile or install hook fired outside "
                      "AdaptiveSystem::onSample");
    LayerCounts &C = Out.Counts;
    const ExecutionCounters &X = VM->counters();
    const CodeManager &Code = VM->codeManager();
    C.Bytecodes += W.Prog.totalBytecodes();
    C.Instructions += X.InstructionsExecuted;
    C.Calls += X.CallsExecuted;
    C.InlinedCalls += X.InlinedCallsEntered;
    C.GuardTests += X.GuardTestsExecuted;
    C.GuardFallbacks += X.GuardFallbacks;
    C.Samples += X.SamplesTaken;
    C.SimCycles += VM->cycles();
    for (unsigned K = 0; K != NumAosComponents; ++K)
      C.AosCycles += VM->overheadMeter().cycles(static_cast<AosComponent>(K));
    C.Compiles += Aos->stats().OptCompilations;
    C.OptResident += Code.optimizedBytesResident();
    C.OptGenerated += Code.optimizedBytesGenerated();
    C.Evictions += Code.numEvictions();
    C.Recompiles += Code.recompilesAfterEvict();
    C.PeakCodeBytes = std::max(C.PeakCodeBytes, Code.peakCodeBytes());
    C.OsrEntries += Aos->osrStats().OsrEntries;
    C.Deopts += Aos->osrStats().Deopts;
    Out.Totals.SimCycles += VM->cycles();
    Out.Totals.CodeBytes += Code.liveCodeBytes();
    Out.Totals.OptCompileCycles += Code.optCompileCycles();
    Out.Installs += Probe->installs();
  }
};

/// Every run of W.Runs, each one op assembled as runExperiment assembles
/// it. Each op's CPU and wall time go to Out.Comparable when
/// \p Comparable (they are the same ops as the untraced pass's).
void tracedRuns(const BenchWorkload &W, OpLedger &Ledger, TracedResult &Out,
                bool Comparable) {
  SpanRecorder Rec;
  for (const RunConfig &C : W.Runs) {
    const size_t Op = Ledger.attempt();
    try {
      const double Cpu = cpuNowNs();
      const uint32_t Root = Rec.open(Layer::Harness);
      {
        TracedRun R(Rec, Out, C);
        R.run(Rec);
        R.harvest(Out);
        checkResult(W, C.WorkloadName, R.result(), Ledger, Op);
      }
      const double OpNs = static_cast<double>(Rec.close(Root));
      const double OpCpuNs = cpuNowNs() - Cpu;
      const std::array<double, NumLayers> Self = Rec.fold();
      for (size_t L = 0; L != NumLayers; ++L)
        Out.SelfNs[L].push_back(Self[L]);
      Out.OpNs.push_back(OpNs);
      if (Comparable)
        Out.Comparable.back().push_back({OpCpuNs, OpNs, 0});
    } catch (const SpanError &) {
      throw;
    } catch (const std::exception &E) {
      Ledger.fail(Op, C.WorkloadName + " threw in the traced pass: " +
                          E.what());
      Rec = SpanRecorder();
    }
  }
}

double sum(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

} // namespace

void perfbench::runTracedPass(const BenchWorkload &W, OpLedger &Ledger,
                              TracedResult &Out) {
  Out.Passes = 1;
  Out.Comparable.emplace_back();
  if (W.Kind != WorkloadKind::ServeShared) {
    tracedRuns(W, Ledger, Out, /*Comparable=*/true);
    return;
  }
  PassResult Serve = runPass(W, Ledger);
  Out.Comparable.back() = std::move(Serve.Ops);
  tracedRuns(W, Ledger, Out, /*Comparable=*/false);
  Out.Totals = Serve.Totals;
}

MetricValues perfbench::layerMetrics(const TracedResult &T,
                                     double UntracedP50Ns,
                                     const PassResult &Untraced) {
  const LayerCounts &C = T.Counts;
  const double Passes = static_cast<double>(T.Passes);
  auto medianMs = [&T](Layer L) {
    return median(T.SelfNs[static_cast<unsigned>(L)]) / 1e6;
  };
  auto opSum = [&T](Layer L) {
    return sum(T.SelfNs[static_cast<unsigned>(L)]);
  };
  auto count = [](uint64_t V, const char *Basis) {
    return MetricValue{static_cast<double>(V), Basis};
  };
  const std::string PerOp = formatString(
      "median over %.0f traced runs", static_cast<double>(T.OpNs.size()));
  const double OpNs = sum(T.OpNs);

  MetricValues V;
  V["workload.build_ms"] = {
      median(T.BuildNs) / 1e6,
      formatString("median of %.0f builds",
                   static_cast<double>(T.BuildNs.size()))};
  V["workload.bytecodes"] = count(C.Bytecodes, "per pass");
  V["workload.ns_per_bytecode"] =
      ratio(sum(T.BuildNs), static_cast<double>(C.Bytecodes) * Passes, 1,
            "build ns", "bytecodes built");

  V["vm.exec_ms"] = {medianMs(Layer::VmExec), PerOp};
  V["vm.exec_pct"] =
      ratio(opSum(Layer::VmExec), OpNs, 100, "vm.exec ns", "op ns");
  V["vm.instructions"] = count(C.Instructions, "per pass");
  V["vm.ns_per_instr"] =
      ratio(opSum(Layer::VmExec), static_cast<double>(C.Instructions) * Passes,
            1, "vm.exec ns", "instructions");
  V["vm.calls"] = count(C.Calls, "per pass, physical calls");
  V["vm.inlined_calls"] = count(C.InlinedCalls, "per pass");
  V["vm.calls_per_kinstr"] =
      ratio(static_cast<double>(C.Calls), static_cast<double>(C.Instructions),
            1000, "calls", "instructions");
  V["vm.guard_tests"] = count(C.GuardTests, "per pass");
  V["vm.guard_fallback_pct"] =
      ratio(static_cast<double>(C.GuardFallbacks),
            static_cast<double>(C.GuardTests), 100, "fallbacks",
            "guard tests");

  V["cache.evictions"] = count(C.Evictions, "per pass");
  V["cache.recompiles"] = count(C.Recompiles, "per pass, after eviction");
  V["cache.recompile_pct"] =
      ratio(static_cast<double>(C.Recompiles),
            static_cast<double>(C.Evictions), 100, "recompiles", "evictions");
  V["cache.peak_kb"] = {static_cast<double>(C.PeakCodeBytes) / 1024.0,
                        "largest peak of any run"};
  V["osr.entries"] = count(C.OsrEntries, "per pass");
  V["osr.deopts"] = count(C.Deopts, "per pass");

  V["vm.install_ms"] = {medianMs(Layer::Install), PerOp};
  V["vm.us_per_install"] =
      ratio(opSum(Layer::Install) / 1e3, static_cast<double>(T.Installs), 1,
            "install us", "installs");

  V["core.sample_ms"] = {medianMs(Layer::Core), PerOp};
  V["core.samples"] = count(C.Samples, "per pass");
  V["core.us_per_sample"] =
      ratio(opSum(Layer::Core) / 1e3, static_cast<double>(C.Samples) * Passes,
            1, "core us", "samples");
  V["core.overhead_pct"] =
      ratio(static_cast<double>(C.AosCycles),
            static_cast<double>(C.SimCycles), 100, "AOS cycles",
            "simulated cycles");

  V["opt.compile_ms"] = {medianMs(Layer::Opt), PerOp};
  V["opt.compiles"] = count(C.Compiles, "per pass");
  V["opt.us_per_compile"] =
      ratio(opSum(Layer::Opt) / 1e3, static_cast<double>(C.Compiles) * Passes,
            1, "opt us", "compiles");
  V["opt.resident_kb"] = {static_cast<double>(C.OptResident) / 1024.0,
                          "per pass, at run end (Figure 5's basis)"};
  V["opt.generated_kb"] = {static_cast<double>(C.OptGenerated) / 1024.0,
                           "per pass, cumulative"};

  // The shared index exists only in serve-shared; its ledger comes from
  // the untraced runServe pass.
  const ServeResults &S = Untraced.Serve;
  uint64_t Hits = 0, Publishes = 0;
  for (const ServeSessionResult &Row : S.Sessions) {
    Hits += Row.ShareHits;
    Publishes += Row.SharePublishes;
  }
  V["share.hit_pct"] = ratio(static_cast<double>(Hits),
                             static_cast<double>(Hits + Publishes), 100,
                             "hits", "optimizing compiles");
  V["share.publishes"] = count(S.SharePublishesAccepted, "accepted");
  V["share.duplicate_publishes"] =
      count(S.ShareDuplicatePublishes, "same-round duplicates");
  V["share.evictions"] = count(S.ShareEvictions, "shared-index evictions");
  V["share.saved_mcycles"] = {
      static_cast<double>(S.totalCompileCyclesSaved()) / 1e6,
      "compile cycles hits avoided"};

  V["serve.rounds"] = count(S.Rounds, "untraced runServe pass");
  V["serve.active_mean"] = {Untraced.ActiveMean,
                            "sessions per round, from Progress"};
  std::vector<double> BestNs;
  for (const OpSample &O : bestOps(T.Comparable))
    BestNs.push_back(O.Ns);
  const double TracedP50 = median(BestNs);
  V["trace.overhead_pct"] =
      ratio(TracedP50 - UntracedP50Ns, UntracedP50Ns, 100,
            "traced - untraced median op CPU ns", "untraced median op CPU ns");
  return V;
}

std::string perfbench::describeSplit(const TracedResult &T) {
  const double OpNs = sum(T.OpNs);
  std::string Out =
      formatString("wall self time by layer over %zu traced runs (%.6g ms):\n",
                   T.OpNs.size(), OpNs / 1e6);
  for (size_t L = 0; L != NumLayers; ++L) {
    const double Ns = sum(T.SelfNs[L]);
    Out += formatString("  %-12s %12.4f ms %7.3f %%\n",
                        layerName(static_cast<Layer>(L)), Ns / 1e6,
                        OpNs > 0 ? 100 * Ns / OpNs : 0.0);
  }
  return Out;
}
