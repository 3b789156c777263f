//===- tools/ab/Side.cpp - One side of an in-process A/B -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// Compiled once per tree with AB_SIDE naming the factory (parentSide or
// changeSide). The parent's copy is compiled, like the parent's libraries,
// with its namespaces renamed, so both trees link into one binary.
//
//===----------------------------------------------------------------------===//

#include "Side.h"

#include "PerfBench.h"

#include <map>
#include <stdexcept>

namespace {

using namespace aoci;

class Side final : public AbSide {
public:
  Side(const std::string &Workload, uint64_t Seed) {
    if (!perfbench::makeBenchWorkload(Workload, Seed, W))
      throw std::invalid_argument("unknown workload '" + Workload + "'");
    rebuild();
  }

  size_t ops() const override { return W.Runs.size(); }
  std::string name(size_t Op) const override {
    return runTraceName(W.Runs[Op]);
  }

  void rebuild() override {
    Programs.clear();
    for (const RunConfig &C : W.Runs)
      if (!Programs[C.WorkloadName])
        Programs[C.WorkloadName] = buildWorkload(C);
  }

  AbOutcome run(size_t Op) override {
    const RunConfig &C = W.Runs[Op];
    Session S(C, Programs.at(C.WorkloadName));
    S.run();
    const RunResult R = S.result();
    return {R.ProgramResult, R.WallCycles};
  }

private:
  perfbench::BenchWorkload W;
  std::map<std::string, std::shared_ptr<const Workload>> Programs;
};

} // namespace

std::unique_ptr<AbSide> AB_SIDE(const std::string &Workload, uint64_t Seed) {
  return std::make_unique<Side>(Workload, Seed);
}
