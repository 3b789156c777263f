//===- tests/CodeCacheTest.cpp - Bounded code cache tests ------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The bounded code cache's contracts (see DESIGN.md, "Bounded code
// cache"):
//   (1) cache off (CapacityBytes == 0) — and a capacity that never binds
//       — are byte-identical to the unbounded registry;
//   (2) eviction is deterministic: victims follow (LastUsedCycle,
//       InstallSeq), so a four-job grid sweep with eviction on exports
//       the same CSV bytes as a one-job one;
//   (3) evicting code with live activations routes through the OSR
//       driver's deoptimization and is the identity on source-level
//       frame state; unevictable activations pin their variant instead;
//   (4) a method whose code was fully evicted recompiles on re-entry,
//       and every cached dispatch structure (inline-cache code memos)
//       aimed at evicted code is dropped at eviction time;
//   (5) code-evict trace events cost zero simulated cycles and their
//       exported JSON bytes are pinned by a golden fixture.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "osr/FrameMap.h"
#include "osr/OsrManager.h"
#include "support/Audit.h"
#include "trace/TraceJson.h"
#include "trace/TraceSink.h"
#include "vm/VirtualMachine.h"

#include "GoldenFile.h"
#include "SameResult.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace aoci;

namespace {

/// Forces invariant auditing on for one scope (Release builds default it
/// off) and restores the prior setting on exit, so an audited test does
/// not leak the flag into the rest of the suite.
struct AuditScope {
  bool Prev;
  AuditScope() : Prev(audit::enabled()) { audit::setEnabled(true); }
  ~AuditScope() { audit::setEnabled(Prev); }
};

//===----------------------------------------------------------------------===//
// Hand-built programs (same shapes as OsrTest.cpp)
//===----------------------------------------------------------------------===//

/// A three-level call chain under a driver loop:
///   main()   { t = 0; repeat Calls: t += outer(Iters); return t; }
///   outer(n) { return mid(n) + 1; }
///   mid(n)   { return inner(n) + 1; }
///   inner(n) { s = 0; while (n != 0) { s += n; n--; } return s; }
struct DeepProgram {
  Program P;
  MethodId Main = InvalidMethodId;
  MethodId Outer = InvalidMethodId;
  MethodId Mid = InvalidMethodId;
  MethodId Inner = InvalidMethodId;
  BytecodeIndex OuterCallsMid = 0;
  BytecodeIndex MidCallsInner = 0;
};

DeepProgram deepProgram(int64_t Calls, int64_t Iters) {
  DeepProgram D;
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  D.Inner = B.declareMethod(C, "inner", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(D.Inner);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.load(1).load(0).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  D.Mid = B.declareMethod(C, "mid", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(D.Mid);
    E.load(0);
    D.MidCallsInner = E.nextIndex();
    E.invokeStatic(D.Inner);
    E.iconst(1).iadd().vreturn();
    E.finish();
  }
  D.Outer = B.declareMethod(C, "outer", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(D.Outer);
    E.load(0);
    D.OuterCallsMid = E.nextIndex();
    E.invokeStatic(D.Mid);
    E.iconst(1).iadd().vreturn();
    E.finish();
  }
  D.Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(D.Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(Calls).store(0).iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.iconst(Iters).invokeStatic(D.Outer);
    E.load(1).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(D.Main);
  D.P = B.build();
  return D;
}

int64_t deepProgramResult(int64_t Calls, int64_t Iters) {
  return Calls * (Iters * (Iters + 1) / 2 + 2);
}

/// A monomorphic virtual-dispatch loop, the inline-cache memo's natural
/// habitat: main() { i = N; s = 0; obj = new A; while (i != 0)
/// { s += obj.f(); i--; } return s; } with A::f() returning 1.
struct VirtualLoopProgram {
  Program P;
  MethodId Main = InvalidMethodId;
  MethodId F = InvalidMethodId;

  explicit VirtualLoopProgram(int64_t N) {
    ProgramBuilder B;
    ClassId A = B.addClass("A");
    F = B.declareMethod(A, "f", MethodKind::Virtual, 0, true);
    {
      CodeEmitter E = B.code(F);
      E.iconst(1).vreturn();
      E.finish();
    }
    Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
    {
      CodeEmitter E = B.code(Main);
      auto Top = E.newLabel();
      auto Exit = E.newLabel();
      E.iconst(N).store(0).iconst(0).store(1);
      E.newObject(A).store(2);
      E.bind(Top);
      E.load(0).ifZero(Exit);
      E.load(1).load(2).invokeVirtual(F).iadd().store(1);
      E.load(0).iconst(1).isub().store(0);
      E.jump(Top);
      E.bind(Exit);
      E.load(1).vreturn();
      E.finish();
    }
    B.setEntry(Main);
    P = B.build();
  }
};

/// An optimized variant of some method with no inline plan. Hand-built
/// variants default to CodeBytes == 0, which a capacity test must not
/// rely on — callers set CodeBytes (and CompiledAtCycle) explicitly.
std::unique_ptr<CodeVariant> planlessVariant(const Program &P, MethodId M,
                                             OptLevel Level) {
  auto V = std::make_unique<CodeVariant>();
  V->M = M;
  V->Level = Level;
  V->MachineUnits = P.method(M).machineSize();
  return V;
}

/// An optimized outer variant that inlines mid and, nested inside it,
/// inner — the deepest inline group the deep program can form.
std::unique_ptr<CodeVariant> plannedOuter(const DeepProgram &D,
                                          OptLevel Level) {
  InlineCase InnerCase;
  InnerCase.Callee = D.Inner;
  InnerCase.BodyUnits = D.P.method(D.Inner).machineSize();
  InlineCase MidCase;
  MidCase.Callee = D.Mid;
  MidCase.BodyUnits = D.P.method(D.Mid).machineSize();
  MidCase.Body = std::make_unique<InlineNode>();
  MidCase.Body->getOrCreate(D.MidCallsInner)
      .Cases.push_back(std::move(InnerCase));
  InlinePlan Plan;
  Plan.Root.getOrCreate(D.OuterCallsMid).Cases.push_back(std::move(MidCase));
  Plan.recountStatistics();
  Plan.TotalUnits = D.P.method(D.Outer).machineSize() +
                    D.P.method(D.Mid).machineSize() +
                    D.P.method(D.Inner).machineSize();
  auto V = planlessVariant(D.P, D.Outer, Level);
  V->MachineUnits = Plan.TotalUnits;
  V->Plan = std::move(Plan);
  return V;
}

/// Steps \p T one instruction at a time until \p Done, with a hard bound
/// so a broken condition fails the test instead of hanging it.
template <typename Pred>
void stepUntil(VirtualMachine &VM, ThreadState &T, Pred Done) {
  for (uint64_t I = 0; I != 10000000; ++I) {
    if (Done())
      return;
    ASSERT_FALSE(T.Finished) << "thread finished before the condition held";
    VM.step(T, 1);
  }
  FAIL() << "condition never held";
}

/// Locals and operand stack of \p S match frame \p Index bit for bit.
void expectSameValues(const FrameSnapshot &S, const ThreadState &T,
                      size_t Index) {
  FrameSnapshot Now = snapshotFrame(T, Index);
  EXPECT_EQ(S.Method, Now.Method);
  ASSERT_EQ(S.Locals.size(), Now.Locals.size());
  for (size_t I = 0; I != S.Locals.size(); ++I)
    EXPECT_TRUE(S.Locals[I].equals(Now.Locals[I])) << "local " << I;
  ASSERT_EQ(S.Stack.size(), Now.Stack.size());
  for (size_t I = 0; I != S.Stack.size(); ++I)
    EXPECT_TRUE(S.Stack[I].equals(Now.Stack[I])) << "stack slot " << I;
}

//===----------------------------------------------------------------------===//
// (1) A capacity that never binds is byte-identical to the cache off.
//===----------------------------------------------------------------------===//

TEST(CodeCacheOffTest, HugeCapacityIsByteIdenticalToUnbounded) {
  RunConfig Off;
  Off.WorkloadName = "compress";
  Off.Policy = PolicyKind::Fixed;
  Off.MaxDepth = 2;
  Off.Params.Scale = 0.05;
  ASSERT_EQ(Off.Model.CodeCache.CapacityBytes, 0u) << "cache defaults off";

  RunConfig Huge = Off;
  Huge.Model.CodeCache.CapacityBytes = 100000000; // never binds

  RunResult A = runExperiment(Off);
  RunResult B = runExperiment(Huge);
  expectSameResult(A, B);
  EXPECT_EQ(A.Evictions, 0u);
  EXPECT_EQ(B.Evictions, 0u);
  EXPECT_EQ(A.RecompilesAfterEvict, 0u);
  EXPECT_GT(A.LiveCodeBytes, 0u) << "byte ledgers run with the cache off too";
  EXPECT_GE(A.PeakCodeBytes, A.LiveCodeBytes);
}

//===----------------------------------------------------------------------===//
// Capacity property on a stock workload, and run-to-run determinism.
//===----------------------------------------------------------------------===//

TEST(CodeCacheExperimentTest, CapacityBoundsAndRecompilesOnMpegaudio) {
  RunConfig Config;
  Config.WorkloadName = "mpegaudio";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.5;
  Config.Aos.Osr.Enabled = true;
  Config.Model.CodeCache.CapacityBytes = 6000;

  RunConfig Unbounded = Config;
  Unbounded.Model.CodeCache.CapacityBytes = 0;

  RunResult R = runExperiment(Config);
  EXPECT_GT(R.Evictions, 0u) << "the capacity must actually bind";
  EXPECT_GT(R.RecompilesAfterEvict, 0u)
      << "re-entering a fully evicted method must recompile it";
  EXPECT_LE(R.LiveCodeBytes, Config.Model.CodeCache.CapacityBytes)
      << "final live bytes exceed the configured capacity";
  EXPECT_GE(R.PeakCodeBytes, R.LiveCodeBytes);

  // Eviction trades code space for recompilation; it must never change
  // what the program computes.
  RunResult Free = runExperiment(Unbounded);
  EXPECT_EQ(R.ProgramResult, Free.ProgramResult);
  EXPECT_GT(Free.LiveCodeBytes, Config.Model.CodeCache.CapacityBytes)
      << "the workload must not fit the capacity, or nothing is tested";

  // Victim selection is a pure function of simulated state: the same
  // configuration evicts identically every time.
  RunResult Again = runExperiment(Config);
  expectSameResult(R, Again);
}

//===----------------------------------------------------------------------===//
// (4) Recompile on re-entry after a cold method's code is evicted.
//===----------------------------------------------------------------------===//

TEST(CodeCacheEvictionTest, RecompileOnReentryAfterEviction) {
  AuditScope Audited;
  const int64_t Calls = 6, Iters = 40;
  DeepProgram D = deepProgram(Calls, Iters);

  CostModel Model;
  const uint64_t MainBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize());
  const uint64_t OuterBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize());
  const uint64_t MidBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize());
  const uint64_t InnerBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  const uint64_t BigBytes = 5000;
  // Exactly one baseline must go to fit the big install; the LRU order
  // (outer is the least recently *entered* of the three callees) makes
  // outer's baseline the deterministic victim.
  Model.CodeCache.CapacityBytes =
      MainBytes + MidBytes + InnerBytes + BigBytes;

  VirtualMachine VM(D.P, Model);
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T,
            [&] { return VM.codeManager().baseline(D.Inner) != nullptr; });
  stepUntil(VM, T, [&] { return T.Frames.size() == 1; });
  const CodeVariant *OldOuter = VM.codeManager().baseline(D.Outer);
  ASSERT_NE(OldOuter, nullptr);
  ASSERT_EQ(VM.codeManager().liveCodeBytes(),
            MainBytes + OuterBytes + MidBytes + InnerBytes);

  auto Big = planlessVariant(D.P, D.Main, OptLevel::Opt2);
  Big->CodeBytes = BigBytes;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));

  // outer's baseline was tombstoned, not freed: the pointer stays valid
  // (a stale use is an auditable bug, not a use-after-free), the method
  // simply has no code until its next invocation.
  EXPECT_EQ(VM.codeManager().numEvictions(), 1u);
  EXPECT_TRUE(OldOuter->Evicted);
  EXPECT_EQ(VM.codeManager().baseline(D.Outer), nullptr);
  EXPECT_EQ(VM.codeManager().current(D.Outer), nullptr);
  EXPECT_LE(VM.codeManager().liveCodeBytes(), Model.CodeCache.CapacityBytes);

  // Re-entry recompiles. A too-small capacity keeps churning after that
  // (the working set genuinely does not fit), so the exact totals are
  // workload-shaped — but deterministic, and always at least the first
  // recompile.
  VM.run();
  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u);
  EXPECT_GE(VM.codeManager().recompilesAfterEvict(), 1u);
  const CodeVariant *NewOuter = VM.codeManager().baseline(D.Outer);
  ASSERT_NE(NewOuter, nullptr) << "outer must have been re-baselined";
  EXPECT_NE(NewOuter, OldOuter);
  EXPECT_FALSE(NewOuter->Evicted);
}

TEST(CodeCacheEvictionTest, SerialNumbersCountEvictedVariants) {
  AuditScope Audited;
  DeepProgram D = deepProgram(1, 1);
  CostModel Model;
  // Room for two 100-byte variants: an install that makes a third live
  // one evicts the least recently used of the others.
  Model.CodeCache.CapacityBytes = 250;
  VirtualMachine VM(D.P, Model);
  CodeManager &CM = VM.codeManager();

  const MethodId Methods[2] = {D.Mid, D.Inner};
  std::vector<const CodeVariant *> Installed[2];
  for (unsigned Round = 0; Round != 4; ++Round) {
    for (unsigned I = 0; I != 2; ++I) {
      auto V = planlessVariant(D.P, Methods[I], OptLevel::Opt1);
      V->CodeBytes = 100;
      V->CompiledAtCycle = VM.cycles();
      Installed[I].push_back(CM.install(std::move(V)));
    }
    // Also force-evict mid's current code once, so a later install
    // re-creates code for a method with none left.
    if (Round == 1) {
      ASSERT_TRUE(CM.evictNow(*CM.current(D.Mid)));
    }
  }

  // Every variant but each method's last is gone, one of them by force.
  EXPECT_EQ(CM.numEvictions(), 6u);
  for (unsigned I = 0; I != 2; ++I) {
    for (unsigned S = 0; S != Installed[I].size(); ++S) {
      EXPECT_EQ(Installed[I][S]->SerialNumber, S)
          << "method " << Methods[I] << " install " << S;
      EXPECT_EQ(Installed[I][S]->Evicted, S + 1 < Installed[I].size())
          << "method " << Methods[I] << " install " << S;
    }
  }
}

//===----------------------------------------------------------------------===//
// (3) Evicting a live inline group deoptimizes it, bit-identically.
//===----------------------------------------------------------------------===//

TEST(CodeCacheEvictionTest, EvictingLiveInlineGroupDeoptsAndPreservesState) {
  AuditScope Audited;
  const int64_t Calls = 3, Iters = 300;
  DeepProgram D = deepProgram(Calls, Iters);

  CostModel Model;
  const uint64_t BaselineSum =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  const uint64_t PlannedBytes = 4000, BigBytes = 4000;
  // Room for all baselines plus ONE of the two optimized variants: the
  // second install must evict the first even though a live inline group
  // is suspended in it.
  Model.CodeCache.CapacityBytes = BaselineSum + PlannedBytes + 100;

  VirtualMachine VM(D.P, Model);
  OsrManager Mgr;
  VM.setOsrDriver(&Mgr);
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T,
            [&] { return VM.codeManager().baseline(D.Inner) != nullptr; });

  auto Planned = plannedOuter(D, OptLevel::Opt1);
  Planned->CodeBytes = PlannedBytes;
  Planned->CompiledAtCycle = VM.cycles();
  const CodeVariant *PlannedPtr = VM.codeManager().install(std::move(Planned));
  stepUntil(VM, T, [&] {
    return T.Frames.size() == 4 && T.Frames[1].Variant == PlannedPtr;
  });

  std::vector<FrameSnapshot> Snaps;
  for (size_t F = 0; F != T.Frames.size(); ++F)
    Snaps.push_back(snapshotFrame(T, F));

  auto Big = planlessVariant(D.P, D.Main, OptLevel::Opt2);
  Big->CodeBytes = BigBytes;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));

  // The cold callee baselines went first (LRU), which forces the planned
  // variant's eviction-deopt to *rematerialize* baselines — including
  // outer's, whose only other code was the victim itself.
  EXPECT_EQ(VM.codeManager().numEvictions(), 4u)
      << "outer/mid/inner baselines, then the planned variant";
  EXPECT_TRUE(PlannedPtr->Evicted) << "tombstoned, not freed";
  EXPECT_EQ(Mgr.stats().Deopts, 1u);
  EXPECT_EQ(Mgr.stats().DeoptFramesRemapped, 3u);
  EXPECT_EQ(VM.codeManager().recompilesAfterEvict(), 2u)
      << "mid and inner lost their only code; outer's current survived "
         "until the planned eviction itself";
  EXPECT_LE(VM.codeManager().liveCodeBytes(), Model.CodeCache.CapacityBytes);

  // The whole group is physical again, on live (non-evicted) baselines.
  ASSERT_EQ(T.Frames.size(), 4u);
  for (size_t F = 1; F != 4; ++F) {
    EXPECT_FALSE(T.Frames[F].Inlined) << "frame " << F;
    ASSERT_NE(T.Frames[F].Variant, nullptr);
    EXPECT_FALSE(T.Frames[F].Variant->Evicted) << "frame " << F;
    EXPECT_EQ(T.Frames[F].Variant->Level, OptLevel::Baseline) << "frame " << F;
  }
  EXPECT_EQ(T.Frames[1].Variant, VM.codeManager().baseline(D.Outer));
  EXPECT_EQ(T.Frames[2].Variant, VM.codeManager().baseline(D.Mid));
  EXPECT_EQ(T.Frames[3].Variant, VM.codeManager().baseline(D.Inner));

  // The eviction-deopt was the identity on source-level state: locals
  // and operand stacks of all four frames are bit-identical.
  for (size_t F = 0; F != 4; ++F)
    expectSameValues(Snaps[F], T, F);

  VM.run();
  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u);
}

//===----------------------------------------------------------------------===//
// (4) Eviction leaves no inline-cache path into evicted code.
//===----------------------------------------------------------------------===//

TEST(CodeCacheIcTest, EvictionInvalidatesInlineCacheMemo) {
  // The regression this guards is the classic stale-IC JIT bug: the
  // virtual call site in main has cached its receiver's target f, and f's
  // variant is then evicted. The inline cache holds only the (receiver
  // class, target method) pair, so the next dispatch must read f's
  // current code, find none, and recompile rather than enter the
  // tombstone. With auditing on, a frame left on evicted code throws
  // AuditError inside the eviction itself; the behavioral checks below
  // would then never run.
  AuditScope Audited;
  const int64_t N = 200;
  VirtualLoopProgram VP(N);

  CostModel Model;
  const uint64_t MainBytes =
      Model.codeBytes(OptLevel::Baseline, VP.P.method(VP.Main).machineSize());
  const uint64_t BigBytes = 5000;
  // Fits main's baseline and the big install; f's baseline must go.
  Model.CodeCache.CapacityBytes = MainBytes + BigBytes;

  VirtualMachine VM(VP.P, Model);
  VM.addThread(VP.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  // At least one dispatch has resolved (populating the site's inline
  // cache), and f's frame has returned, so its baseline is evictable.
  stepUntil(VM, T, [&] { return VM.codeManager().baseline(VP.F) != nullptr; });
  stepUntil(VM, T, [&] { return T.Frames.size() == 1; });
  const CodeVariant *FBase = VM.codeManager().baseline(VP.F);
  ASSERT_NE(FBase, nullptr);

  auto Big = planlessVariant(VP.P, VP.Main, OptLevel::Opt2);
  Big->CodeBytes = BigBytes;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));

  EXPECT_GE(VM.codeManager().numEvictions(), 1u);
  EXPECT_TRUE(FBase->Evicted);
  EXPECT_EQ(VM.codeManager().current(VP.F), nullptr);

  // The next dispatch finds no current code for f, recompiles it, and
  // the loop completes correctly on the fresh code.
  VM.run();
  EXPECT_EQ(T.Result.asInt(), N);
  EXPECT_EQ(T.SlabTop, 0u);
  EXPECT_GE(VM.codeManager().recompilesAfterEvict(), 1u);
  const CodeVariant *FNow = VM.codeManager().current(VP.F);
  ASSERT_NE(FNow, nullptr);
  EXPECT_NE(FNow, FBase);
  EXPECT_FALSE(FNow->Evicted);
}

//===----------------------------------------------------------------------===//
// (2) Grid determinism with eviction on.
//===----------------------------------------------------------------------===//

TEST(CodeCacheGridTest, ParallelGridCsvMatchesSerialWithEvictionOn) {
  GridConfig Config;
  Config.Workloads = {"compress", "mpegaudio"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2, 3};
  Config.Params.Scale = 0.3;
  Config.Aos.Osr.Enabled = true;
  Config.Model.CodeCache.CapacityBytes = 6000;

  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGrid(Config, nullptr, 4);

  const std::string SerialCsv = exportCsv(Serial);
  const std::string ParallelCsv = exportCsv(Parallel);
  EXPECT_EQ(SerialCsv, ParallelCsv)
      << "victim selection must be deterministic across job counts";

  // The sweep must actually evict, and the per-run eviction counts (kept
  // out of the frozen CSV) must agree too.
  auto totalEvictions = [](const GridResults &R) {
    uint64_t Total = 0;
    for (const RunMetrics &M : R.metrics())
      Total += R.result(M).Evictions;
    return Total;
  };
  EXPECT_GT(totalEvictions(Serial), 0u);
  EXPECT_EQ(totalEvictions(Serial), totalEvictions(Parallel));
}

//===----------------------------------------------------------------------===//
// (5) Golden trace: the code-evict event stream's bytes are pinned.
//===----------------------------------------------------------------------===//

TEST(CodeCacheGoldenTest, EvictTraceJsonMatchesGolden) {
  // The hand-driven live-group eviction again — four deterministic
  // code-evict events (three cold baselines, then the planned variant
  // after its deopt) — with only the code-evict kind recorded.
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("code-evict", Mask, Error)) << Error;
  TraceSink Sink;
  Sink.enable(Mask);

  const int64_t Calls = 3, Iters = 300;
  DeepProgram D = deepProgram(Calls, Iters);
  CostModel Model;
  const uint64_t BaselineSum =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  Model.CodeCache.CapacityBytes = BaselineSum + 4000 + 100;

  VirtualMachine VM(D.P, Model);
  VM.setTraceSink(&Sink);
  OsrManager Mgr;
  VM.setOsrDriver(&Mgr);
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T,
            [&] { return VM.codeManager().baseline(D.Inner) != nullptr; });
  auto Planned = plannedOuter(D, OptLevel::Opt1);
  Planned->CodeBytes = 4000;
  Planned->CompiledAtCycle = VM.cycles();
  const CodeVariant *PlannedPtr = VM.codeManager().install(std::move(Planned));
  stepUntil(VM, T, [&] {
    return T.Frames.size() == 4 && T.Frames[1].Variant == PlannedPtr;
  });
  auto Big = planlessVariant(D.P, D.Main, OptLevel::Opt2);
  Big->CodeBytes = 4000;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));
  VM.run();
  ASSERT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  ASSERT_EQ(VM.codeManager().numEvictions(), 4u);

  std::ostringstream Json;
  writeChromeTrace(Json, Sink, "code-cache/evict");
  expectMatchesGolden(goldenPath("trace_code_evict.golden"), Json.str(),
                      "either the eviction sequence or the JSON serialization "
                      "changed");
}

//===----------------------------------------------------------------------===//
// Stress: install churn against a capacity the working set cannot fit.
//===----------------------------------------------------------------------===//

TEST(CodeCacheStressTest, EvictionChurnKeepsStateConsistent) {
  AuditScope Audited;
  const int64_t Calls = 40, Iters = 120;
  DeepProgram D = deepProgram(Calls, Iters);

  CostModel Model;
  const uint64_t BaselineSum =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  // Too small for the baselines plus both optimized variants the churn
  // loop keeps re-installing: every few installs something must go,
  // frequently out from under the live inline group.
  Model.CodeCache.CapacityBytes = BaselineSum + 2500;

  VirtualMachine VM(D.P, Model);
  OsrManager Mgr;
  // Transfer at every opportunity: maximal churn, not cost/benefit.
  Mgr.setPolicy([](MethodId, const CodeVariant &, const CodeVariant &,
                   uint64_t, double *) { return true; });
  VM.setOsrDriver(&Mgr);
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];

  for (uint64_t K = 0; !T.Finished; ++K) {
    ASSERT_LT(K, 100000u) << "churn loop ran away";
    VM.step(T, 400);
    if (T.Finished)
      break;
    std::unique_ptr<CodeVariant> V;
    switch (K % 4) {
    case 0:
      V = planlessVariant(D.P, D.Outer, OptLevel::Opt2);
      V->CodeBytes = 1500;
      break;
    case 1:
      V = planlessVariant(D.P, D.Inner, OptLevel::Opt2);
      V->CodeBytes = 800;
      break;
    case 2:
      V = plannedOuter(D, OptLevel::Opt1);
      V->CodeBytes = 2500;
      break;
    default:
      V = planlessVariant(D.P, D.Inner, OptLevel::Opt1);
      V->CodeBytes = 800;
      break;
    }
    V->CompiledAtCycle = VM.cycles();
    VM.codeManager().install(std::move(V));
  }

  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u) << "every transition must keep the slab balanced";
  EXPECT_GT(VM.codeManager().numEvictions(), 0u);
  EXPECT_GT(Mgr.stats().Deopts, 0u);
}

} // namespace
