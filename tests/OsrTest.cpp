//===- tests/OsrTest.cpp - OSR & deoptimization subsystem tests ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The OSR subsystem's contracts (see DESIGN.md, "On-stack replacement"):
//   (1) frame mapping is the identity on source-level state — a remapped
//       activation resumes at the same PC with bit-identical locals and
//       operand stack, and the program result never changes;
//   (2) OSR off is byte-identical to the pre-subsystem VM — no driver, no
//       staleness checks, no charges;
//   (3) deoptimization unwinds a whole stale inline group onto baseline
//       variants and composes with OSR entry at later backedges;
//   (4) OSR trace events cost zero simulated cycles, and a four-job grid
//       sweep with OSR on exports the same CSV bytes as a one-job one.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "osr/FrameMap.h"
#include "osr/OsrManager.h"
#include "trace/TraceJson.h"
#include "trace/TraceSink.h"
#include "vm/VirtualMachine.h"

#include "GoldenFile.h"
#include "SameResult.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace aoci;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built programs
//===----------------------------------------------------------------------===//

/// Builds: main() { s = 0; i = N; while (i != 0) { s += i; i--; } return s; }
/// The loop closes with an unconditional backward jump, so the backedge
/// itself never touches the operand stack.
Program loopProgram(int64_t N) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(N).store(0).iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.load(1).load(0).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  return B.build();
}

/// A three-level call chain under a driver loop:
///   main()   { t = 0; repeat Calls: t += outer(Iters); return t; }
///   outer(n) { return mid(n) + 1; }
///   mid(n)   { return inner(n) + 1; }
///   inner(n) { s = 0; while (n != 0) { s += n; n--; } return s; }
/// inner's loop closes with an unconditional jump (a value-neutral
/// backedge), and the recorded call-site indices let tests hand-build an
/// outer variant that inlines mid and, inside it, inner.
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

/// An optimized variant of some method with no inline plan.
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

/// Locals and operand stack of \p S match frame \p Index bit for bit. The
/// PC is deliberately not compared: transitions happen at a backedge, so
/// the frame has already branched relative to a pre-step snapshot.
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
// (1) Frame mapping is the identity on source-level state.
//===----------------------------------------------------------------------===//

TEST(OsrFrameMapTest, SnapshotRoundTripAcrossRetarget) {
  const int64_t N = 500;
  Program Reference = loopProgram(N);
  VirtualMachine RefVm(Reference);
  RefVm.addThread(Reference.entryMethod());
  RefVm.run();
  const int64_t Expected = RefVm.threads()[0]->Result.asInt();
  ASSERT_EQ(Expected, N * (N + 1) / 2);

  // The property, at several suspension points: snapshot, retarget the
  // frame onto a freshly installed Opt2 variant, and the frame still
  // carries exactly the snapshotted state and completes with the
  // reference result.
  for (uint64_t Steps : {7u, 41u, 150u, 1009u, 2222u}) {
    Program P = loopProgram(N);
    VirtualMachine VM(P);
    VM.addThread(P.entryMethod());
    ThreadState &T = *VM.threads()[0];
    VM.step(T, Steps);
    ASSERT_FALSE(T.Finished) << "suspension point must be mid-run";

    const size_t Index = T.Frames.size() - 1;
    const MethodId M = T.Frames[Index].Method;
    FrameSnapshot Before = snapshotFrame(T, Index);
    ASSERT_TRUE(snapshotMatchesFrame(Before, T, Index));

    const CodeVariant *To =
        VM.codeManager().install(planlessVariant(P, M, OptLevel::Opt2));
    retargetFrame(VM, T, Index, To, /*Plan=*/nullptr, /*Inlined=*/false);

    EXPECT_EQ(T.Frames[Index].Variant, To) << Steps << " steps";
    EXPECT_FALSE(T.Frames[Index].Inlined);
    EXPECT_TRUE(snapshotMatchesFrame(Before, T, Index))
        << "retarget must not move PC, locals or stack (" << Steps
        << " steps)";

    VM.run();
    EXPECT_EQ(T.Result.asInt(), Expected) << Steps << " steps";
    EXPECT_EQ(T.SlabTop, 0u);
  }
}

TEST(OsrFrameMapTest, PhysicalRootIndexWalksTheInlineGroup) {
  DeepProgram D = deepProgram(/*Calls=*/2, /*Iters=*/50);
  VirtualMachine VM(D.P);
  VM.codeManager().install(plannedOuter(D, OptLevel::Opt1));
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T, [&] { return T.Frames.size() == 4; });

  // main / outer(physical, planned) / mid(inlined) / inner(inlined).
  EXPECT_EQ(T.Frames[0].Method, D.Main);
  EXPECT_EQ(T.Frames[1].Method, D.Outer);
  EXPECT_FALSE(T.Frames[1].Inlined);
  EXPECT_EQ(T.Frames[2].Method, D.Mid);
  EXPECT_TRUE(T.Frames[2].Inlined);
  EXPECT_EQ(T.Frames[3].Method, D.Inner);
  EXPECT_TRUE(T.Frames[3].Inlined);

  EXPECT_EQ(physicalRootIndex(T, 3), 1u);
  EXPECT_EQ(physicalRootIndex(T, 2), 1u);
  EXPECT_EQ(physicalRootIndex(T, 1), 1u);
  EXPECT_EQ(physicalRootIndex(T, 0), 0u);
}

//===----------------------------------------------------------------------===//
// OSR entry at a backedge.
//===----------------------------------------------------------------------===//

TEST(OsrEnterTest, TransfersLoopingActivationAtBackedge) {
  const int64_t N = 2000;
  Program P = loopProgram(N);
  VirtualMachine VM(P);
  OsrManager Mgr;
  VM.setOsrDriver(&Mgr);
  VM.addThread(P.entryMethod());
  ThreadState &T = *VM.threads()[0];

  // Run into the loop, then supersede the executing variant. Jikes'
  // install semantics alone would leave this activation in old code for
  // the whole run; the driver must transfer it at the next backedge.
  VM.step(T, 200);
  ASSERT_FALSE(T.Finished);
  const CodeVariant *To = VM.codeManager().install(
      planlessVariant(P, T.Frames.back().Method, OptLevel::Opt2));
  VM.run();

  EXPECT_EQ(Mgr.stats().OsrEntries, 1u);
  EXPECT_EQ(Mgr.stats().Deopts, 0u);
  EXPECT_EQ(Mgr.stats().TransitionCyclesCharged,
            VM.costModel().OsrTransitionCycles);
  // The activation returned out of the replacement code, closing the
  // recovery segment.
  EXPECT_EQ(Mgr.stats().OsrExits, 1u);
  EXPECT_GT(Mgr.stats().CyclesRecoveredEstimate, 0u);
  EXPECT_EQ(T.Result.asInt(), N * (N + 1) / 2);
  EXPECT_EQ(T.SlabTop, 0u);
  (void)To;
}

TEST(OsrEnterTest, PolicyVetoLeavesExecutionUntouched) {
  const int64_t N = 2000;
  auto runOnce = [&](OsrManager *Mgr) {
    Program P = loopProgram(N);
    VirtualMachine VM(P);
    if (Mgr != nullptr)
      VM.setOsrDriver(Mgr);
    VM.addThread(P.entryMethod());
    ThreadState &T = *VM.threads()[0];
    VM.step(T, 200);
    VM.codeManager().install(
        planlessVariant(P, T.Frames.back().Method, OptLevel::Opt2));
    VM.run();
    EXPECT_EQ(T.Result.asInt(), N * (N + 1) / 2);
    return VM.cycles();
  };

  OsrManager Veto;
  Veto.setPolicy([](MethodId, const CodeVariant &, const CodeVariant &,
                    uint64_t, double *) { return false; });
  const uint64_t WithVeto = runOnce(&Veto);
  const uint64_t WithoutDriver = runOnce(nullptr);

  // A vetoing driver is indistinguishable from no driver: same clock,
  // nothing counted.
  EXPECT_EQ(WithVeto, WithoutDriver);
  EXPECT_EQ(Veto.stats().OsrEntries, 0u);
  EXPECT_EQ(Veto.stats().Deopts, 0u);
  EXPECT_EQ(Veto.stats().TransitionCyclesCharged, 0u);
}

//===----------------------------------------------------------------------===//
// (3) Deoptimization of a deep inline group, composing with OSR entry.
//===----------------------------------------------------------------------===//

TEST(OsrDeoptTest, DeoptUnderDeepInliningPreservesFrameState) {
  const int64_t Calls = 3, Iters = 300;
  DeepProgram D = deepProgram(Calls, Iters);
  VirtualMachine VM(D.P);
  OsrManager Mgr;
  VM.setOsrDriver(&Mgr);
  // Installed before any call, so mid and inner are only ever entered
  // inlined: no baseline variants exist and deopt must materialize them.
  VM.codeManager().install(plannedOuter(D, OptLevel::Opt1));
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T, [&] { return T.Frames.size() == 4; });
  ASSERT_EQ(VM.codeManager().baseline(D.Mid), nullptr);
  ASSERT_EQ(VM.codeManager().baseline(D.Inner), nullptr);

  // Supersede the physical variant under the live inline group, then run
  // to the deopt, snapshotting every frame before each step so the
  // transition's input state is in hand.
  VM.codeManager().install(planlessVariant(D.P, D.Outer, OptLevel::Opt2));
  std::vector<FrameSnapshot> Snaps;
  for (uint64_t I = 0; Mgr.stats().Deopts == 0; ++I) {
    ASSERT_LT(I, 100000u) << "deopt never fired";
    ASSERT_FALSE(T.Finished);
    Snaps.clear();
    for (size_t F = 0; F != T.Frames.size(); ++F)
      Snaps.push_back(snapshotFrame(T, F));
    VM.step(T, 1);
  }

  EXPECT_EQ(Mgr.stats().Deopts, 1u);
  EXPECT_EQ(Mgr.stats().DeoptFramesRemapped, 3u);
  ASSERT_EQ(T.Frames.size(), 4u);
  ASSERT_EQ(Snaps.size(), 4u);

  // Every frame of the group is physical now; mid and inner picked up
  // freshly materialized baselines, while outer (never baseline-compiled)
  // fell through to its current variant.
  const CodeVariant *MidBase = VM.codeManager().baseline(D.Mid);
  const CodeVariant *InnerBase = VM.codeManager().baseline(D.Inner);
  ASSERT_NE(MidBase, nullptr) << "deopt materializes missing baselines";
  ASSERT_NE(InnerBase, nullptr);
  EXPECT_FALSE(T.Frames[1].Inlined);
  EXPECT_FALSE(T.Frames[2].Inlined);
  EXPECT_FALSE(T.Frames[3].Inlined);
  EXPECT_EQ(T.Frames[1].Variant, VM.codeManager().current(D.Outer));
  EXPECT_EQ(T.Frames[2].Variant, MidBase);
  EXPECT_EQ(T.Frames[3].Variant, InnerBase);

  // The mapping was the identity on values: locals and stacks of all four
  // frames are bit-identical to the pre-backedge snapshots.
  for (size_t F = 0; F != 4; ++F)
    expectSameValues(Snaps[F], T, F);

  VM.run();
  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u);
}

TEST(OsrDeoptTest, DeoptComposesWithOsrEntry) {
  const int64_t Calls = 3, Iters = 300;
  DeepProgram D = deepProgram(Calls, Iters);
  VirtualMachine VM(D.P);
  OsrManager Mgr;
  VM.setOsrDriver(&Mgr);
  VM.codeManager().install(plannedOuter(D, OptLevel::Opt1));
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T, [&] { return T.Frames.size() == 4; });

  VM.codeManager().install(planlessVariant(D.P, D.Outer, OptLevel::Opt2));
  stepUntil(VM, T, [&] { return Mgr.stats().Deopts == 1; });

  // The deoptimized inner activation now runs baseline code mid-loop;
  // installing an optimized inner variant must pull it forward through an
  // ordinary OSR entry at one of its remaining backedges — the detour the
  // deopt policy priced in.
  VM.codeManager().install(planlessVariant(D.P, D.Inner, OptLevel::Opt1));
  VM.run();

  EXPECT_EQ(Mgr.stats().Deopts, 1u);
  EXPECT_EQ(Mgr.stats().OsrEntries, 1u);
  EXPECT_EQ(Mgr.stats().OsrExits, 1u);
  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u);
}

//===----------------------------------------------------------------------===//
// (2) OSR off is byte-identical; on, it must actually pay off somewhere.
//===----------------------------------------------------------------------===//

TEST(OsrExperimentTest, OsrOffIsByteIdenticalToTheDefault) {
  RunConfig Default;
  Default.WorkloadName = "compress";
  Default.Policy = PolicyKind::Fixed;
  Default.MaxDepth = 2;
  Default.Params.Scale = 0.05;

  RunConfig Off = Default;
  Off.Aos.Osr.Enabled = false; // explicit, same as the default

  RunResult A = runExperiment(Default);
  RunResult B = runExperiment(Off);
  expectSameResult(A, B);
  EXPECT_EQ(A.OsrEntries, 0u);
  EXPECT_EQ(A.Deopts, 0u);
  EXPECT_EQ(A.OsrTransitionCycles, 0u);
  EXPECT_EQ(A.OsrCyclesRecovered, 0u);
}

TEST(OsrExperimentTest, OsrOnImprovesSteadyStateOnMpegaudio) {
  RunConfig Config;
  Config.WorkloadName = "mpegaudio";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;

  RunConfig On = Config;
  On.Aos.Osr.Enabled = true;

  RunResult Off = runExperiment(Config);
  RunResult WithOsr = runExperiment(On);

  EXPECT_GT(WithOsr.OsrEntries, 0u) << "the hot loop must transfer";
  EXPECT_GT(WithOsr.OsrTransitionCycles, 0u);
  // Transferring the long-running activation instead of letting it finish
  // in stale code shortens time-to-steady-state on this workload.
  EXPECT_LT(WithOsr.WallCycles, Off.WallCycles);
  // The program itself must be oblivious to where its frames execute.
  EXPECT_EQ(WithOsr.ProgramResult, Off.ProgramResult);
}

//===----------------------------------------------------------------------===//
// (4) Zero-cost tracing and grid determinism with OSR on.
//===----------------------------------------------------------------------===//

TEST(OsrTraceTest, TracingAnOsrRunChargesZeroCycles) {
  RunConfig Config;
  Config.WorkloadName = "mpegaudio";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Aos.Osr.Enabled = true;

  RunResult Plain = runExperiment(Config);

  TraceSink Sink;
  Sink.enable();
  RunConfig Traced = Config;
  Traced.Trace = &Sink;
  RunResult WithTrace = runExperiment(Traced);

  expectSameResult(Plain, WithTrace);
  ASSERT_GT(Plain.OsrEntries, 0u);
  uint64_t OsrEvents = 0;
  Sink.forEach([&](const TraceEvent &E) {
    if (E.Kind == TraceEventKind::OsrEnter)
      ++OsrEvents;
  });
  EXPECT_EQ(OsrEvents, Plain.OsrEntries)
      << "one osr-enter event per counted entry";
}

TEST(OsrGridTest, ParallelGridCsvMatchesSerialWithOsrOn) {
  GridConfig Config;
  Config.Workloads = {"compress", "mpegaudio"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2, 3};
  Config.Aos.Osr.Enabled = true;

  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGrid(Config, nullptr, 4);

  const std::string SerialCsv = exportCsv(Serial);
  const std::string ParallelCsv = exportCsv(Parallel);
  EXPECT_EQ(SerialCsv, ParallelCsv)
      << "OSR transfers must be deterministic across job counts";

  // The sweep must actually exercise OSR, and the per-run activity (kept
  // out of the frozen CSV) must agree too.
  auto totalEntries = [](const GridResults &R) {
    uint64_t Total = 0;
    for (const RunMetrics &M : R.metrics())
      Total += R.result(M).OsrEntries;
    return Total;
  };
  EXPECT_GT(totalEntries(Serial), 0u);
  EXPECT_EQ(totalEntries(Serial), totalEntries(Parallel));
}

//===----------------------------------------------------------------------===//
// Golden trace: the OSR event stream's exported bytes are pinned.
//===----------------------------------------------------------------------===//

TEST(OsrGoldenTest, DeoptAndOsrTraceJsonMatchesGolden) {
  // A fully hand-driven scenario (the stock workloads never deopt): a
  // deep inline group is deoptimized, the freed inner activation then
  // OSR-enters an optimized variant, and its return closes the segment —
  // one deopt, one osr-enter, one osr-exit, in that order.
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("osr-enter,osr-exit,deopt", Mask, Error))
      << Error;
  TraceSink Sink;
  Sink.enable(Mask);

  DeepProgram D = deepProgram(/*Calls=*/2, /*Iters=*/50);
  VirtualMachine VM(D.P);
  VM.setTraceSink(&Sink);
  OsrManager Mgr;
  VM.setOsrDriver(&Mgr);
  VM.codeManager().install(plannedOuter(D, OptLevel::Opt1));
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T, [&] { return T.Frames.size() == 4; });
  VM.codeManager().install(planlessVariant(D.P, D.Outer, OptLevel::Opt2));
  stepUntil(VM, T, [&] { return Mgr.stats().Deopts == 1; });
  VM.codeManager().install(planlessVariant(D.P, D.Inner, OptLevel::Opt1));
  VM.run();
  ASSERT_EQ(T.Result.asInt(), deepProgramResult(2, 50));
  ASSERT_EQ(Mgr.stats().OsrEntries, 1u);
  ASSERT_EQ(Mgr.stats().OsrExits, 1u);

  std::ostringstream Json;
  writeChromeTrace(Json, Sink, "osr/deopt-compose");
  expectMatchesGolden(goldenPath("trace_osr_deopt.golden"), Json.str(),
                      "either the transition sequence or the JSON "
                      "serialization changed");
}

//===----------------------------------------------------------------------===//
// Stress: repeated install churn over a live stack.
//===----------------------------------------------------------------------===//

TEST(OsrDeoptStressTest, AlternatingInstallChurnKeepsStateConsistent) {
  const int64_t Calls = 40, Iters = 120;
  DeepProgram D = deepProgram(Calls, Iters);
  VirtualMachine VM(D.P);
  OsrManager Mgr;
  // Transfer at every opportunity: maximal churn, not cost/benefit.
  Mgr.setPolicy([](MethodId, const CodeVariant &, const CodeVariant &,
                   uint64_t, double *) { return true; });
  VM.setOsrDriver(&Mgr);
  VM.codeManager().install(plannedOuter(D, OptLevel::Opt1));
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];

  // Every 400 instructions, supersede either outer (alternating a planned
  // and a planless variant, so live groups repeatedly deoptimize and
  // reform) or inner (so deoptimized activations repeatedly OSR-enter).
  for (uint64_t K = 0; !T.Finished; ++K) {
    ASSERT_LT(K, 100000u) << "churn loop ran away";
    VM.step(T, 400);
    if (T.Finished)
      break;
    switch (K % 4) {
    case 0:
      VM.codeManager().install(planlessVariant(D.P, D.Outer, OptLevel::Opt2));
      break;
    case 1:
      VM.codeManager().install(planlessVariant(D.P, D.Inner, OptLevel::Opt2));
      break;
    case 2:
      VM.codeManager().install(plannedOuter(D, OptLevel::Opt1));
      break;
    default:
      VM.codeManager().install(planlessVariant(D.P, D.Inner, OptLevel::Opt1));
      break;
    }
  }

  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u) << "every transition must keep the slab balanced";
  EXPECT_GT(Mgr.stats().Deopts, 0u);
  EXPECT_GT(Mgr.stats().OsrEntries, 0u);
  // The inline group is always outer/mid/inner when a deopt fires.
  EXPECT_EQ(Mgr.stats().DeoptFramesRemapped, Mgr.stats().Deopts * 3);
}

} // namespace
