//===- tests/MutationTest.cpp - Verifier mutation fuzzing -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Mutation testing of the bytecode verifier: take known-good programs
// (the Figure 1 program and the workload suite), apply random single-
// instruction corruptions, and check that the verifier either rejects
// the mutant or the mutant still runs safely to a bounded cycle limit.
// This is the property the VM relies on: "verifies cleanly" must imply
// "interprets without violating any interpreter invariant".
//
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "harness/Experiment.h"
#include "support/Audit.h"
#include "support/Rng.h"
#include "vm/VirtualMachine.h"
#include "workload/FigureOne.h"
#include "workload/Workload.h"
#include "workload/scenario/ScenarioSpec.h"

#include "SameResult.h"

#include <gtest/gtest.h>

using namespace aoci;

namespace {

/// Applies one random mutation to a random concrete method body of \p P.
/// Returns false when the draw found nothing to mutate.
bool mutateOnce(Program &P, Rng &R) {
  const MethodId M = static_cast<MethodId>(R.nextBelow(P.numMethods()));
  Method &Meth = P.mutableMethod(M);
  if (Meth.Body.empty())
    return false;
  Instruction &I =
      Meth.Body[R.nextBelow(Meth.Body.size())];
  switch (R.nextBelow(3)) {
  case 0: // Corrupt the opcode.
    I.Op = static_cast<Opcode>(R.nextBelow(NumOpcodes));
    break;
  case 1: // Corrupt the operand.
    I.Operand = R.nextInRange(-4, 1000);
    break;
  default: // Replace wholesale.
    I = Instruction(static_cast<Opcode>(R.nextBelow(NumOpcodes)),
                    R.nextInRange(0, 50));
    break;
  }
  return true;
}

} // namespace

class MutationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationFuzzTest, VerifierRejectsMostCorruptions) {
  // Random corruption is graded by the verifier only (the verifier
  // checks structure and stack discipline, not value types, so accepted
  // mutants are not necessarily type-safe to execute).
  Rng R(GetParam());
  unsigned Rejected = 0, Accepted = 0;
  for (int Case = 0; Case != 80; ++Case) {
    FigureOneProgram F = makeFigureOne(50);
    Program P = std::move(F.P);
    if (!mutateOnce(P, R))
      continue;
    if (verifyProgram(P).empty())
      ++Accepted;
    else
      ++Rejected;
  }
  EXPECT_GT(Rejected, 30u) << "verifier rejected suspiciously few mutants";
  EXPECT_GT(Accepted, 0u) << "some single mutations are structurally fine";
}

TEST_P(MutationFuzzTest, TypePreservingMutantsRunSafely) {
  // Mutations that provably preserve semantics-relevant structure (only
  // the magnitude of pure Work instructions changes) must keep the
  // program verifier-clean AND executable to completion with the same
  // result. (Integer constants can be array lengths; binary-operator
  // swaps can flip a loop decrement into an increment — neither is safe
  // to mutate blindly.)
  Rng R(GetParam() ^ 0xFACE);
  // Reference result of the unmutated program (jess carries plenty of
  // Work instructions in its kernel).
  const WorkloadParams Params{5, 0.02};
  int64_t Expected;
  {
    Workload W = makeWorkload("jess", Params);
    VirtualMachine VM(W.Prog);
    unsigned T = VM.addThread(W.Prog.entryMethod());
    VM.run();
    Expected = VM.threads()[T]->Result.asInt();
  }
  for (int Case = 0; Case != 6; ++Case) {
    Workload W = makeWorkload("jess", Params);
    Program P = std::move(W.Prog);
    unsigned Mutated = 0;
    for (MethodId M = 0; M != P.numMethods(); ++M)
      for (Instruction &I : P.mutableMethod(M).Body)
        if (I.Op == Opcode::Work && R.nextBool(0.5)) {
          I.Operand = R.nextInRange(1, 40);
          ++Mutated;
        }
    ASSERT_GT(Mutated, 0u);
    ASSERT_TRUE(verifyProgram(P).empty());
    VirtualMachine VM(P);
    unsigned T = VM.addThread(P.entryMethod());
    VM.run(/*CycleLimit=*/500'000'000);
    ASSERT_TRUE(VM.threads()[T]->Finished);
    EXPECT_EQ(VM.threads()[T]->Result.asInt(), Expected)
        << "Work mutations must not change results";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzzTest,
                         ::testing::Values(71, 72, 73, 74));

TEST(MutationTest, ChurnScenarioSurvivesEvictionPlusOsrAudited) {
  // Closes a long-standing coverage gap: nothing here ever exercised
  // eviction and OSR/deopt in the same run. The cache-churn adversary
  // rotates a wide warm set through a small cache while OSR transfers
  // live loops onto (and deopt peels them off) freshly installed
  // variants — evict, deopt, recompile-on-reentry all interleave. The
  // PR 5 audit invariants (code-cache ledger, OSR frame remapping,
  // organizer drains) must hold through the whole interleaving, in
  // Release builds too, so force auditing on as AOCI_AUDIT=1 would.
  const bool WasAudited = audit::enabled();
  audit::setEnabled(true);
  RunConfig Config;
  Config.WorkloadName = "scn-cache-churn";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.5;
  Config.Aos.Osr.Enabled = true;
  Config.Model.CodeCache.CapacityBytes = 6000;

  RunResult R;
  try {
    R = runExperiment(Config);
  } catch (const audit::AuditError &E) {
    audit::setEnabled(WasAudited);
    FAIL() << "audit invariant violated under eviction+OSR churn: "
           << E.what();
  }
  EXPECT_GT(R.Evictions, 0u) << "the churn set must overflow the cache";
  EXPECT_GT(R.RecompilesAfterEvict, 0u)
      << "re-entering an evicted churn method must recompile it";
  EXPECT_GT(R.OsrEntries + R.Deopts, 0u)
      << "OSR/deopt must actually fire alongside eviction";

  // The interleaving is a pure function of the configuration.
  RunResult Again = runExperiment(Config);
  audit::setEnabled(WasAudited);
  expectSameResult(R, Again);
}

TEST(MutationTest, EveryWorkloadSurvivesHarmlessWorkMutations) {
  // Scaling Work magnitudes never invalidates a program; the verifier
  // must keep accepting, and the VM must keep terminating.
  Rng R(1234);
  for (const std::string &Name : workloadNames()) {
    Workload W = makeWorkload(Name, WorkloadParams{3, 0.01});
    Program P = std::move(W.Prog);
    unsigned Mutated = 0;
    for (MethodId M = 0; M != P.numMethods() && Mutated < 20; ++M) {
      for (Instruction &I : P.mutableMethod(M).Body) {
        if (I.Op == Opcode::Work && R.nextBool(0.3)) {
          I.Operand = R.nextInRange(1, 80);
          ++Mutated;
        }
      }
    }
    EXPECT_TRUE(verifyProgram(P).empty()) << Name;
    VirtualMachine VM(P);
    for (MethodId Entry : W.Entries)
      VM.addThread(Entry);
    VM.run(/*CycleLimit=*/500'000'000);
    SUCCEED();
  }
}
