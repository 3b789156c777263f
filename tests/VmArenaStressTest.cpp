//===- tests/VmArenaStressTest.cpp - Frame-arena stress tests --------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stress tests for the per-thread value slab / frame arena: deep recursion
/// up to the configured frame limit, the release-mode recursion diagnostic
/// (for physical and inlined entries), slab reuse across call/return
/// waves, guarded-inline fallback paths, and multi-thread round-robin
/// scheduling with independent slabs.
///
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

using namespace aoci;

namespace {

/// Builds: main() { return rec(N); }  rec(n) { return n == 0 ? 0 : n +
/// rec(n - 1); } — recursion depth N + 1 frames above main.
Program recursionProgram(int64_t N) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Rec = B.declareMethod(C, "rec", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(Rec);
    auto Base = E.newLabel();
    E.load(0).ifZero(Base);
    E.load(0).load(0).iconst(1).isub().invokeStatic(Rec).iadd().vreturn();
    E.bind(Base);
    E.iconst(0).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.iconst(N).invokeStatic(Rec).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  return B.build();
}

/// Builds: main() { s = 0; repeat Waves times: s += wave(Depth); return s; }
/// wave(d) { return d == 0 ? 1 : wave(d - 1) + 1; } — every wave climbs to
/// Depth frames and unwinds fully, so the slab's high-water mark is one
/// wave, not Waves of them.
Program waveProgram(int64_t Waves, int64_t Depth) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Wave = B.declareMethod(C, "wave", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(Wave);
    auto Base = E.newLabel();
    E.load(0).ifZero(Base);
    E.load(0).iconst(1).isub().invokeStatic(Wave).iconst(1).iadd().vreturn();
    E.bind(Base);
    E.iconst(1).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(Waves).store(0).iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.iconst(Depth).invokeStatic(Wave).load(1).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  return B.build();
}

/// main() { return rec(K); } rec(n) { return n == 0 ? leaf() : rec(n - 1)
/// + n; } leaf() { return 7; }, with leaf inlined into rec's optimized
/// code, so the bottom rec frame enters leaf as an inlined frame.
struct InlinedLeafProgram {
  Program P;
  MethodId Rec = InvalidMethodId;
  MethodId Leaf = InvalidMethodId;
  BytecodeIndex LeafSite = 0;

  explicit InlinedLeafProgram(int64_t K) {
    ProgramBuilder B;
    ClassId C = B.addClass("Main");
    Leaf = B.declareMethod(C, "leaf", MethodKind::Static, 0, true);
    {
      CodeEmitter E = B.code(Leaf);
      E.iconst(7).vreturn();
      E.finish();
    }
    Rec = B.declareMethod(C, "rec", MethodKind::Static, 1, true);
    {
      CodeEmitter E = B.code(Rec);
      auto Base = E.newLabel();
      E.load(0).ifZero(Base);
      E.load(0).iconst(1).isub().invokeStatic(Rec).load(0).iadd().vreturn();
      E.bind(Base);
      LeafSite = E.nextIndex();
      E.invokeStatic(Leaf).vreturn();
      E.finish();
    }
    MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
    {
      CodeEmitter E = B.code(Main);
      E.iconst(K).invokeStatic(Rec).vreturn();
      E.finish();
    }
    B.setEntry(Main);
    P = B.build();
  }

  /// A VM with rec's inlining variant installed and the main thread added.
  std::unique_ptr<VirtualMachine> vm(uint32_t MaxFrameDepth) const {
    CostModel Model;
    Model.MaxFrameDepth = MaxFrameDepth;
    auto VM = std::make_unique<VirtualMachine>(P, Model);
    InlinePlan Plan;
    InlineCase Case;
    Case.Callee = Leaf;
    Case.BodyUnits = P.method(Leaf).machineSize();
    Plan.Root.getOrCreate(LeafSite).Cases.push_back(std::move(Case));
    Plan.recountStatistics();
    auto V = std::make_unique<CodeVariant>();
    V->M = Rec;
    V->Level = OptLevel::Opt2;
    V->MachineUnits = P.method(Rec).machineSize() + Plan.TotalUnits;
    V->Plan = std::move(Plan);
    VM->codeManager().install(std::move(V));
    VM->addThread(P.entryMethod());
    return VM;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Recursion depth: near-limit success and over-limit diagnostic
//===----------------------------------------------------------------------===//

TEST(VmArenaStressTest, DeepRecursionRunsNearTheFrameLimit) {
  const int64_t N = 4000; // main + 4001 rec frames, under the 4096 default.
  Program P = recursionProgram(N);
  VirtualMachine VM(P);
  unsigned T = VM.addThread(P.entryMethod());
  VM.run();
  ASSERT_TRUE(VM.threads()[T]->Finished);
  EXPECT_EQ(VM.threads()[T]->Result.asInt(), N * (N + 1) / 2);
  EXPECT_EQ(VM.threads()[T]->SlabTop, 0u) << "full unwind frees the slab";
}

TEST(VmArenaStressTest, RecursionPastTheLimitThrowsWithDiagnostic) {
  Program P = recursionProgram(500);
  CostModel Model;
  Model.MaxFrameDepth = 64;
  VirtualMachine VM(P, Model);
  VM.addThread(P.entryMethod());
  try {
    VM.run();
    FAIL() << "expected the frame-depth check to throw";
  } catch (const std::runtime_error &E) {
    const std::string Msg = E.what();
    EXPECT_NE(Msg.find("Main.rec"), std::string::npos) << Msg;
    EXPECT_NE(Msg.find("MaxFrameDepth"), std::string::npos) << Msg;
    EXPECT_NE(Msg.find("64"), std::string::npos) << Msg;
  }
}

TEST(VmArenaStressTest, InlinedEntryAtTheLimitThrowsWithDiagnostic) {
  // main plus K + 1 physical rec frames fill the stack exactly, so the
  // only push past the limit is the inlined leaf entry at the bottom.
  const int64_t K = 62;
  const uint32_t Limit = static_cast<uint32_t>(K + 2);
  InlinedLeafProgram L(K);

  // One frame more and the run completes through the inlined entry.
  auto Roomy = L.vm(Limit + 1);
  Roomy->run();
  ASSERT_TRUE(Roomy->threads()[0]->Finished);
  EXPECT_EQ(Roomy->threads()[0]->Result.asInt(), 7 + K * (K + 1) / 2);
  EXPECT_EQ(Roomy->counters().InlinedCallsEntered, 1u);

  auto Full = L.vm(Limit);
  try {
    Full->run();
    FAIL() << "expected the inlined entry to hit the frame-depth check";
  } catch (const std::runtime_error &E) {
    const std::string Msg = E.what();
    EXPECT_NE(Msg.find("at depth " + std::to_string(Limit) +
                       " entering Main.leaf"),
              std::string::npos)
        << Msg;
    EXPECT_NE(Msg.find("MaxFrameDepth = " + std::to_string(Limit)),
              std::string::npos)
        << Msg;
  }
  EXPECT_EQ(Full->counters().InlinedCallsEntered, 0u);
  EXPECT_EQ(Full->threads()[0]->Frames.size(), Limit)
      << "the throw leaves the stack as it was at the limit";
}

//===----------------------------------------------------------------------===//
// Slab reuse across call/return waves
//===----------------------------------------------------------------------===//

TEST(VmArenaStressTest, CallReturnWavesReuseTheSlab) {
  const int64_t Waves = 200, Depth = 100;
  Program P = waveProgram(Waves, Depth);
  VirtualMachine VM(P);
  unsigned T = VM.addThread(P.entryMethod());
  VM.run();
  const ThreadState &TS = *VM.threads()[T];
  ASSERT_TRUE(TS.Finished);
  EXPECT_EQ(TS.Result.asInt(), Waves * (Depth + 1));
  // The slab grows geometrically to one wave's footprint and is then
  // reused: wave frames need at most a handful of slots each, so 200
  // unwound waves must not have accumulated storage.
  EXPECT_LT(TS.Slab.size(), static_cast<size_t>(Depth) * 16)
      << "slab kept growing instead of reusing freed frames";
  EXPECT_EQ(TS.SlabTop, 0u);
}

//===----------------------------------------------------------------------===//
// Guarded-inline fallback through the arena
//===----------------------------------------------------------------------===//

TEST(VmArenaStressTest, GuardFallbackUnwindsLikePhysicalCalls) {
  // Virtual call alternating two receiver classes; only one target is
  // inlined (guarded), so half the calls take the inlined-frame path and
  // half fall back to a physical frame — both must leave the slab balanced.
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  MethodId F = B.declareMethod(A, "f", MethodKind::Virtual, 0, true);
  {
    CodeEmitter E = B.code(F);
    E.iconst(1).vreturn();
    E.finish();
  }
  ClassId C = B.addClass("C", A);
  MethodId CF = B.addOverride(C, F);
  {
    CodeEmitter E = B.code(CF);
    E.iconst(2).vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
  BytecodeIndex CallSite;
  {
    CodeEmitter E = B.code(Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    auto UseA = E.newLabel();
    auto Dispatch = E.newLabel();
    E.iconst(2000).store(0).iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.load(0).iconst(2).irem().ifZero(UseA);
    E.newObject(C).jump(Dispatch);
    E.bind(UseA);
    E.newObject(A);
    E.bind(Dispatch);
    CallSite = E.nextIndex();
    E.invokeVirtual(F);
    E.load(1).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();

  VirtualMachine VM(P);
  InlinePlan Plan;
  InlineCase Case;
  Case.Callee = CF;
  Case.Guarded = true;
  Case.BodyUnits = P.method(CF).machineSize();
  Plan.Root.getOrCreate(CallSite).Cases.push_back(std::move(Case));
  Plan.recountStatistics();
  auto V = std::make_unique<CodeVariant>();
  V->M = Main;
  V->Level = OptLevel::Opt2;
  V->MachineUnits = P.method(Main).machineSize() + Plan.TotalUnits;
  V->Plan = std::move(Plan);
  VM.codeManager().install(std::move(V));

  unsigned T = VM.addThread(P.entryMethod());
  VM.run();
  const ThreadState &TS = *VM.threads()[T];
  ASSERT_TRUE(TS.Finished);
  EXPECT_EQ(TS.Result.asInt(), 1000 * 2 + 1000 * 1);
  EXPECT_EQ(VM.counters().InlinedCallsEntered, 1000u);
  EXPECT_EQ(VM.counters().GuardFallbacks, 1000u);
  EXPECT_EQ(TS.SlabTop, 0u);
}

//===----------------------------------------------------------------------===//
// Multi-thread round-robin with independent slabs
//===----------------------------------------------------------------------===//

TEST(VmArenaStressTest, RoundRobinThreadsKeepSlabsIndependent) {
  const int64_t N = 300;
  Program P = recursionProgram(N);
  // A small quantum forces many mid-recursion thread switches, so each
  // thread's slab repeatedly suspends at a different depth.
  CostModel Model;
  Model.ThreadQuantumCycles = 50;
  VirtualMachine VM(P, Model);
  unsigned T0 = VM.addThread(P.entryMethod());
  unsigned T1 = VM.addThread(P.entryMethod());
  unsigned T2 = VM.addThread(P.entryMethod());
  VM.run();
  for (unsigned T : {T0, T1, T2}) {
    ASSERT_TRUE(VM.threads()[T]->Finished) << "thread " << T;
    EXPECT_EQ(VM.threads()[T]->Result.asInt(), N * (N + 1) / 2)
        << "thread " << T;
    EXPECT_EQ(VM.threads()[T]->SlabTop, 0u) << "thread " << T;
  }
}
