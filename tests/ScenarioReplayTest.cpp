//===- tests/ScenarioReplayTest.cpp - Fuzz-corpus replay -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Replays every checked-in `.scn` reproducer under tests/scenarios/.
// Each file was found by `aoci fuzz`, shrunk, and committed with an
// expect block recording the differential it demonstrates; this test is
// the contract that those differentials stay real. A failure here means
// a policy/cost-model change erased (or flipped) a known differential —
// which may be intentional, in which case regenerate the corpus with
// the `aoci fuzz` invocation documented in EXPERIMENTS.md. It also
// checks that every scenario program the fuzzer can reach verifies.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "harness/Fuzzer.h"
#include "workload/scenario/ScenarioMutator.h"
#include "workload/scenario/ScenarioSpec.h"
#include "workload/scenario/ScenarioWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace aoci;

namespace {

struct CorpusEntry {
  std::string Path;
  ScenarioSpec Spec;
};

std::vector<CorpusEntry> loadCorpus() {
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(AOCI_SCENARIO_DIR))
    if (Entry.is_regular_file() && Entry.path().extension() == ".scn")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end());
  std::vector<CorpusEntry> Corpus;
  for (const std::filesystem::path &P : Paths) {
    std::ifstream In(P);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    CorpusEntry E;
    E.Path = P.string();
    std::string Error;
    EXPECT_TRUE(parseScenario(Buffer.str(), E.Spec, Error))
        << P << ": " << Error;
    Corpus.push_back(std::move(E));
  }
  return Corpus;
}

} // namespace

TEST(ScenarioReplayTest, CorpusIsWellFormed) {
  std::vector<CorpusEntry> Corpus = loadCorpus();
  ASSERT_FALSE(Corpus.empty())
      << "no .scn reproducers under " << AOCI_SCENARIO_DIR;
  for (const CorpusEntry &E : Corpus) {
    SCOPED_TRACE(E.Path);
    EXPECT_TRUE(E.Spec.HasExpectation)
        << "corpus entries must carry an expect block";
    EXPECT_NE(E.Spec.Expect.MinDeltaPct, 0.0);
    PolicyKind K;
    EXPECT_TRUE(parsePolicyKind(E.Spec.Expect.PolicyA, K));
    EXPECT_TRUE(parsePolicyKind(E.Spec.Expect.PolicyB, K));
    // Canonical form: a reproducer must round-trip unchanged, so edits
    // and regenerations diff cleanly.
    std::ifstream In(E.Path);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    EXPECT_EQ(Buffer.str(), printScenario(E.Spec))
        << "not in canonical printScenario() form";
  }
}

TEST(ScenarioReplayTest, EveryReproducerStillReproduces) {
  for (const CorpusEntry &E : loadCorpus()) {
    SCOPED_TRACE(E.Path);
    if (!E.Spec.HasExpectation)
      continue;
    const double Delta = replayScenario(E.Spec);
    const double Recorded = E.Spec.Expect.MinDeltaPct;
    EXPECT_GT(Delta * Recorded, 0.0)
        << "differential flipped sign: recorded " << Recorded
        << "%, replayed " << Delta << "%";
    // The magnitude may drift as the cost model evolves, but a healthy
    // reproducer keeps at least half its recorded differential.
    EXPECT_GE(std::abs(Delta), 0.5 * std::abs(Recorded))
        << "differential mostly evaporated: recorded " << Recorded
        << "%, replayed " << Delta << "%";
    EXPECT_EQ(replayScenario(E.Spec), Delta)
        << "replay must be deterministic";
  }
}

TEST(ScenarioReplayTest, EveryScenarioProgramVerifies) {
  // Release builds run no verifier, and the interpreter sizes each frame
  // by the verifier's operand-stack bound, so every program a scenario
  // compiles to must verify: the built-ins, the reproducers, and chains
  // of mutants from each of them, as the fuzzer walks them.
  std::vector<ScenarioSpec> Specs = builtinScenarios();
  for (CorpusEntry &E : loadCorpus())
    Specs.push_back(std::move(E.Spec));
  ASSERT_GE(Specs.size(), 12u) << "four built-ins and eight reproducers";
  const size_t Parents = Specs.size();
  ScenarioMutator Mut(24);
  for (size_t Parent = 0; Parent != Parents; ++Parent) {
    ScenarioSpec S = Specs[Parent];
    for (int Step = 0; Step != 20; ++Step) {
      S = Mut.mutate(S);
      Specs.push_back(S);
    }
  }
  for (size_t I = 0; I != Specs.size(); ++I) {
    WorkloadParams Params;
    Params.Seed = I + 1; // also vary the procedural cold library
    const Workload W = makeScenarioWorkload(Specs[I], Params);
    for (const std::string &Error : verifyProgram(W.Prog))
      ADD_FAILURE() << "spec " << I << " (" << Specs[I].Name
                    << "): " << Error << "\n"
                    << printScenario(Specs[I]);
  }
}
