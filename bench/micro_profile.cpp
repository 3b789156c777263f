//===- bench/micro_profile.cpp - Profile data-structure microbenchmarks ----===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// google-benchmark microbenchmarks for the profile substrate: dynamic
// call graph insertion at varying context depths, rule-set partial-match
// queries (Equation 3), and decay. These
// back the paper's claim that the context-sensitive machinery is cheap
// enough for online use.
//
//===----------------------------------------------------------------------===//

#include "profile/DynamicCallGraph.h"
#include "profile/InlineRules.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace aoci;

namespace {

/// Deterministic pool of traces at the requested depth.
std::vector<Trace> makeTraces(unsigned Depth, size_t Count) {
  Rng R(Depth * 1000003 + Count);
  std::vector<Trace> Traces;
  Traces.reserve(Count);
  for (size_t I = 0; I != Count; ++I) {
    Trace T;
    T.Callee = static_cast<MethodId>(R.nextBelow(200));
    for (unsigned D = 0; D != Depth; ++D)
      T.Context.push_back(
          ContextPair{static_cast<MethodId>(R.nextBelow(100)),
                      static_cast<BytecodeIndex>(R.nextBelow(30))});
    Traces.push_back(std::move(T));
  }
  return Traces;
}

void BM_DcgAddSample(benchmark::State &State) {
  const unsigned Depth = static_cast<unsigned>(State.range(0));
  std::vector<Trace> Traces = makeTraces(Depth, 512);
  DynamicCallGraph Dcg;
  size_t I = 0;
  for (auto _ : State) {
    Dcg.addSample(Traces[I % Traces.size()]);
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_DcgAddSample)->Arg(1)->Arg(2)->Arg(3)->Arg(5);

void BM_DcgDecay(benchmark::State &State) {
  std::vector<Trace> Traces = makeTraces(3, 2048);
  for (auto _ : State) {
    State.PauseTiming();
    DynamicCallGraph Dcg;
    for (const Trace &T : Traces)
      Dcg.addSample(T, 100.0);
    State.ResumeTiming();
    Dcg.decay(0.95);
    benchmark::DoNotOptimize(Dcg.totalWeight());
  }
}
BENCHMARK(BM_DcgDecay);

void BM_RuleSetApplicableQuery(benchmark::State &State) {
  const unsigned Depth = static_cast<unsigned>(State.range(0));
  std::vector<Trace> Traces = makeTraces(Depth, 256);
  InlineRuleSet Rules;
  for (const Trace &T : Traces) {
    InliningRule Rule;
    Rule.T = T;
    Rule.Weight = 10;
    Rules.add(std::move(Rule));
  }
  size_t I = 0;
  for (auto _ : State) {
    const Trace &T = Traces[I % Traces.size()];
    benchmark::DoNotOptimize(Rules.applicableRules(T.Context));
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RuleSetApplicableQuery)->Arg(1)->Arg(3)->Arg(5);

void BM_PartialContextMatch(benchmark::State &State) {
  std::vector<Trace> Traces = makeTraces(5, 64);
  size_t I = 0;
  for (auto _ : State) {
    const Trace &A = Traces[I % Traces.size()];
    const Trace &B = Traces[(I + 1) % Traces.size()];
    benchmark::DoNotOptimize(partialContextMatch(A.Context, B.Context));
    ++I;
  }
}
BENCHMARK(BM_PartialContextMatch);

} // namespace

BENCHMARK_MAIN();
