//===- tools/ab/Driver.cpp - In-process A/B of two builds ------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// Usage: ab WORKLOAD PASSES SEED (run.sh builds and runs it)
//
// Runs a perfbench workload's ops on a parent build and on this tree's,
// alternating op by op in one process, so both sides see the same host
// state; which side goes first alternates too. Each op's time is process
// CPU time, and each side keeps every op's best over the passes. Prints
// each pass's total ratio, then the best-of-passes p50 and p90 of both.
// Exits 1 when the two sides disagree on a program result or on a run's
// simulated cycles.
//
//===----------------------------------------------------------------------===//

#include "Side.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <limits>
#include <vector>

namespace {

double cpuNowNs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e9 + static_cast<double>(T.tv_nsec);
}

/// The \p Q quantile of \p V by nearest rank.
double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  const size_t Rank = static_cast<size_t>(Q * static_cast<double>(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

/// Runs op \p Op of \p S, adding its CPU ns to \p Total and keeping the
/// best in \p Best.
AbOutcome timed(AbSide &S, size_t Op, double &Total, double &Best) {
  const double Start = cpuNowNs();
  const AbOutcome Out = S.run(Op);
  const double Ns = cpuNowNs() - Start;
  Total += Ns;
  Best = std::min(Best, Ns);
  return Out;
}

int run(int Argc, char **Argv) {
  if (Argc != 4) {
    std::fprintf(stderr, "usage: ab WORKLOAD PASSES SEED\n");
    return 2;
  }
  const unsigned Passes = static_cast<unsigned>(std::atoi(Argv[2]));
  const uint64_t Seed = std::strtoull(Argv[3], nullptr, 10);
  std::unique_ptr<AbSide> Sides[] = {parentSide(Argv[1], Seed),
                                     changeSide(Argv[1], Seed)};
  const size_t Ops = Sides[0]->ops();
  if (Passes == 0 || Ops == 0 || Sides[1]->ops() != Ops) {
    std::fprintf(stderr, "ab: need passes and the same ops on both sides\n");
    return 2;
  }
  std::vector<double> Best[2];
  for (std::vector<double> &B : Best)
    B.assign(Ops, std::numeric_limits<double>::infinity());
  for (unsigned Pass = 0; Pass != Passes; ++Pass) {
    double Total[2] = {0, 0};
    for (std::unique_ptr<AbSide> &S : Sides)
      S->rebuild();
    for (size_t Op = 0; Op != Ops; ++Op) {
      AbOutcome Out[2];
      const size_t First = (Op + Pass) % 2;
      for (size_t K : {First, 1 - First})
        Out[K] = timed(*Sides[K], Op, Total[K], Best[K][Op]);
      if (Out[0].Result != Out[1].Result || Out[0].Cycles != Out[1].Cycles) {
        std::fprintf(stderr,
                     "ab: op %zu (%s) differs: parent result %lld in %llu "
                     "cycles, change %lld in %llu\n",
                     Op, Sides[0]->name(Op).c_str(),
                     static_cast<long long>(Out[0].Result),
                     static_cast<unsigned long long>(Out[0].Cycles),
                     static_cast<long long>(Out[1].Result),
                     static_cast<unsigned long long>(Out[1].Cycles));
        return 1;
      }
    }
    std::printf("pass %u: parent %.1f ms, change %.1f ms, ratio %.4f\n",
                Pass + 1, Total[0] / 1e6, Total[1] / 1e6,
                Total[1] / Total[0]);
  }
  std::printf("%zu ops, best of %u passes (ms):\n", Ops, Passes);
  for (double Q : {0.5, 0.9}) {
    const double P = quantile(Best[0], Q) / 1e6;
    const double C = quantile(Best[1], Q) / 1e6;
    std::printf("  p%.0f: parent %.4f, change %.4f, ratio %.4f\n", Q * 100, P,
                C, C / P);
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    return run(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "ab: %s\n", E.what());
    return 1;
  }
}
