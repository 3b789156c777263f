//===- bench/micro_interp.cpp - VM substrate microbenchmarks ---------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// google-benchmark microbenchmarks for the VM substrate: interpreter
// throughput on arithmetic and call-heavy code, inline-plan dispatch, and
// the optimizing compiler itself.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "opt/Compiler.h"
#include "vm/VirtualMachine.h"
#include "workload/FigureOne.h"
#include "workload/WorkloadCommon.h"

#include <benchmark/benchmark.h>

using namespace aoci;

namespace {

Program arithProgram(int64_t Iterations) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  CodeEmitter E = B.code(Main);
  E.iconst(0).store(1);
  emitCountedLoop(E, 0, Iterations, [](CodeEmitter &L) {
    L.load(1).iconst(3).imul().iconst(7).iadd().iconst(11).irem().store(1);
  });
  E.load(1).vreturn();
  E.finish();
  B.setEntry(Main);
  return B.build();
}

Program callProgram(int64_t Iterations) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Leaf = B.declareMethod(C, "leaf", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(Leaf);
    E.load(0).iconst(1).iadd().vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.iconst(0).store(1);
    emitCountedLoop(E, 0, Iterations, [&](CodeEmitter &L) {
      L.load(1).invokeStatic(Leaf).store(1);
    });
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  return B.build();
}

/// Loop whose body is one long straight-line chain of arithmetic and
/// stack bytecodes (no calls, no branches): pure switch-dispatch cost.
Program straightLineProgram(int64_t Iterations) {
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  CodeEmitter E = B.code(Main);
  E.iconst(0).store(1).iconst(1).store(2).iconst(7).store(3);
  emitCountedLoop(E, 0, Iterations, [](CodeEmitter &L) {
    // Three dependent accumulator chains plus stack shuffles: ~40
    // instructions between backedges.
    L.load(1).iconst(3).imul().iconst(7).iadd().iconst(9973).irem().store(1);
    L.load(2).load(1).ixor().iconst(5).ishl().iconst(3).ishr().store(2);
    L.load(3).load(2).iand().load(1).ior().iconst(1).iadd().store(3);
    L.load(1).load(2).swap().isub().load(3).iadd().iconst(8191).irem().store(1);
    L.load(2).dup().imul().iconst(127).iand().store(2);
  });
  E.load(1).load(2).iadd().load(3).iadd().vreturn();
  E.finish();
  B.setEntry(Main);
  return B.build();
}

void runInterp(benchmark::State &State, const Program &P, int64_t Items) {
  for (auto _ : State) {
    VirtualMachine VM(P);
    VM.addThread(P.entryMethod());
    VM.run();
    benchmark::DoNotOptimize(VM.cycles());
  }
  State.SetItemsProcessed(State.iterations() * Items);
}

void BM_InterpStraightLineLoop(benchmark::State &State) {
  Program P = straightLineProgram(10000);
  runInterp(State, P, 10000);
}
BENCHMARK(BM_InterpStraightLineLoop);

void BM_InterpArithmeticLoop(benchmark::State &State) {
  Program P = arithProgram(10000);
  runInterp(State, P, 10000);
}
BENCHMARK(BM_InterpArithmeticLoop);

void BM_InterpCallLoop(benchmark::State &State) {
  Program P = callProgram(10000);
  runInterp(State, P, 10000);
}
BENCHMARK(BM_InterpCallLoop);

void BM_InterpInlinedCallLoop(benchmark::State &State) {
  Program P = callProgram(10000);
  CostModel Model;
  MethodId Main = P.entryMethod();
  MethodId Leaf = P.findMethod("Main.leaf");
  ClassHierarchy CH(P);
  OptimizingCompiler Compiler(P, CH, Model);
  InlineRuleSet NoRules;
  InliningOracle Oracle(P, CH, NoRules);
  for (auto _ : State) {
    VirtualMachine VM(P, Model);
    VM.codeManager().install(
        Compiler.compile(Main, OptLevel::Opt2, Oracle));
    VM.addThread(Main);
    VM.run();
    benchmark::DoNotOptimize(VM.cycles());
  }
  State.SetItemsProcessed(State.iterations() * 10000);
  (void)Leaf;
}
BENCHMARK(BM_InterpInlinedCallLoop);

/// Monomorphic virtual-call loop: one receiver object, one invokevirtual
/// site. Exercises the per-site inline cache (every iteration after the
/// first is an IC hit that skips the hierarchy walk).
Program virtualProgram(int64_t Iterations) {
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  MethodId F = B.declareMethod(A, "f", MethodKind::Virtual, 1, true);
  {
    CodeEmitter E = B.code(F);
    E.load(1).iconst(1).iadd().vreturn();
    E.finish();
  }
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.newObject(A).store(2);
    E.iconst(0).store(1);
    emitCountedLoop(E, 0, Iterations, [&](CodeEmitter &L) {
      L.load(2).load(1).invokeVirtual(F).store(1);
    });
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  return B.build();
}

void BM_InterpVirtualDispatchLoop(benchmark::State &State) {
  Program P = virtualProgram(10000);
  runInterp(State, P, 10000);
}
BENCHMARK(BM_InterpVirtualDispatchLoop);

/// Guarded-inline loop with alternating receivers: half the iterations hit
/// the guard and run the inlined body, half fail every guard and take the
/// fallback virtual invocation — the two hot paths of Section 3.1 dispatch.
struct GuardedProgram {
  Program P;
  MethodId Main = InvalidMethodId;
  MethodId Inlinee = InvalidMethodId;
  BytecodeIndex CallSite = 0;
};

GuardedProgram guardedProgram(int64_t Iterations) {
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
  GuardedProgram G;
  MethodId Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    auto UseA = E.newLabel();
    auto Dispatch = E.newLabel();
    E.iconst(Iterations).store(0).iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.load(0).iconst(2).irem().ifZero(UseA);
    E.newObject(C).jump(Dispatch);
    E.bind(UseA);
    E.newObject(A);
    E.bind(Dispatch);
    G.CallSite = E.nextIndex();
    E.invokeVirtual(F);
    E.load(1).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  G.P = B.build();
  G.Main = Main;
  G.Inlinee = CF;
  return G;
}

void BM_InterpGuardedInlineLoop(benchmark::State &State) {
  GuardedProgram G = guardedProgram(10000);
  CostModel Model;
  for (auto _ : State) {
    VirtualMachine VM(G.P, Model);
    const uint32_t BodyUnits = G.P.method(G.Inlinee).machineSize();
    InlinePlan Plan;
    InlineCase Case;
    Case.Callee = G.Inlinee;
    Case.Guarded = true;
    Case.BodyUnits = BodyUnits;
    Plan.Root.getOrCreate(G.CallSite).Cases.push_back(std::move(Case));
    Plan.recountStatistics();
    Plan.TotalUnits = G.P.method(G.Main).machineSize() + BodyUnits;
    auto V = std::make_unique<CodeVariant>();
    V->M = G.Main;
    V->Level = OptLevel::Opt2;
    V->MachineUnits = Plan.TotalUnits;
    V->CodeBytes = Model.codeBytes(OptLevel::Opt2, V->MachineUnits);
    V->Plan = std::move(Plan);
    VM.codeManager().install(std::move(V));
    VM.addThread(G.P.entryMethod());
    VM.run();
    benchmark::DoNotOptimize(VM.cycles());
  }
  State.SetItemsProcessed(State.iterations() * 10000);
}
BENCHMARK(BM_InterpGuardedInlineLoop);

void BM_OptCompileFigureOneRunTest(benchmark::State &State) {
  FigureOneProgram F = makeFigureOne(1);
  ClassHierarchy CH(F.P);
  CostModel Model;
  OptimizingCompiler Compiler(F.P, CH, Model);
  InlineRuleSet Rules;
  {
    InliningRule R1;
    R1.T.Context = {{F.RunTest, F.GetSite1}};
    R1.T.Callee = F.Get;
    R1.Weight = 50;
    Rules.add(std::move(R1));
    InliningRule R2;
    R2.T.Context = {{F.Get, F.HashCodeSite}, {F.RunTest, F.GetSite1}};
    R2.T.Callee = F.MyKeyHashCode;
    R2.Weight = 50;
    Rules.add(std::move(R2));
  }
  InliningOracle Oracle(F.P, CH, Rules);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Compiler.compile(F.RunTest, OptLevel::Opt2, Oracle));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_OptCompileFigureOneRunTest);

} // namespace

BENCHMARK_MAIN();
