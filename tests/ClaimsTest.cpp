//===- tests/ClaimsTest.cpp - The claims table's checks -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The row checks, the margin, the censored-win rule and the report, on
// hand-made numbers: no VM runs here. `aoci claims` runs the studies.
//
//===----------------------------------------------------------------------===//

#include "harness/Claims.h"

#include <gtest/gtest.h>

#include <set>

using namespace aoci;

namespace {

Claim row(Comparator Cmp, double Bound, double Bound2 = 0) {
  return {"test.row", "test", "a quantity",           Cmp, Bound,
          Bound2,     "-",    ClaimStatus::Reproduced, "%", 1};
}

bool passes(const Claim &C, double V) { return checkClaim(C, V).Pass; }

} // namespace

TEST(ClaimCheckTest, AtLeastIncludesItsBound) {
  const Claim C = row(Comparator::AtLeast, 6);
  EXPECT_TRUE(passes(C, 6));
  EXPECT_TRUE(passes(C, 6.001));
  EXPECT_FALSE(passes(C, 5.999));
  EXPECT_EQ(checkClaim(C, 6).Margin, 0);
}

TEST(ClaimCheckTest, AboveExcludesItsBound) {
  const Claim C = row(Comparator::Above, 50);
  EXPECT_FALSE(passes(C, 50));
  EXPECT_TRUE(passes(C, 50.001));
  EXPECT_FALSE(passes(C, 49.999));
}

TEST(ClaimCheckTest, AtMostIncludesItsBound) {
  const Claim C = row(Comparator::AtMost, -33);
  EXPECT_TRUE(passes(C, -33));
  EXPECT_TRUE(passes(C, -33.001));
  EXPECT_FALSE(passes(C, -32.999));
}

TEST(ClaimCheckTest, BelowExcludesItsBound) {
  const Claim C = row(Comparator::Below, 60);
  EXPECT_FALSE(passes(C, 60));
  EXPECT_TRUE(passes(C, 59.999));
  EXPECT_FALSE(passes(C, 60.001));
}

TEST(ClaimCheckTest, WithinIncludesBothEnds) {
  const Claim C = row(Comparator::Within, 50, 80);
  EXPECT_TRUE(passes(C, 50));
  EXPECT_TRUE(passes(C, 80));
  EXPECT_TRUE(passes(C, 50.001));
  EXPECT_TRUE(passes(C, 79.999));
  EXPECT_FALSE(passes(C, 49.999));
  EXPECT_FALSE(passes(C, 80.001));
  // The margin is the slack to the nearer end.
  EXPECT_DOUBLE_EQ(checkClaim(C, 65).Margin, 15);
  EXPECT_DOUBLE_EQ(checkClaim(C, 75).Margin, 5);
}

TEST(ClaimCheckTest, PinnedHoldsWithinItsToleranceOnBothSides) {
  const Claim C = row(Comparator::Pinned, 3.4, 1.0);
  EXPECT_TRUE(passes(C, 3.4));
  EXPECT_TRUE(passes(C, 4.3));
  EXPECT_TRUE(passes(C, 2.5));
  EXPECT_FALSE(passes(C, 4.5));
  EXPECT_FALSE(passes(C, 2.3));
  EXPECT_DOUBLE_EQ(checkClaim(C, 3.4).Margin, 1.0);
  EXPECT_NEAR(checkClaim(C, 4.0).Margin, 0.4, 1e-12);
  EXPECT_NEAR(checkClaim(C, 2.8).Margin, 0.4, 1e-12);
}

TEST(ClaimCheckTest, MarginIsPositiveInsideAndNegativeOutside) {
  EXPECT_GT(checkClaim(row(Comparator::AtLeast, 4), 7).Margin, 0);
  EXPECT_LT(checkClaim(row(Comparator::AtLeast, 4), 3).Margin, 0);
  EXPECT_DOUBLE_EQ(checkClaim(row(Comparator::AtLeast, 4), 7).Margin, 3);
  EXPECT_DOUBLE_EQ(checkClaim(row(Comparator::Below, 60), 53.3).Margin,
                   60 - 53.3);
  EXPECT_LT(checkClaim(row(Comparator::Below, 60), 66.4).Margin, 0);
  EXPECT_LT(checkClaim(row(Comparator::Within, 50, 80), 99).Margin, 0);
  EXPECT_LT(checkClaim(row(Comparator::Pinned, 15, 3), 20).Margin, 0);
}

TEST(ClaimCheckTest, AnUnmeasuredRowFails) {
  EXPECT_FALSE(checkClaim(row(Comparator::AtLeast, 0), std::nullopt).Pass);
  const ClaimsReport Report = reportClaims(
      {row(Comparator::AtLeast, 0)}, Measurements{{"other.row", {1, ""}}}, {});
  EXPECT_FALSE(Report.Pass);
  EXPECT_NE(Report.Text.find("FAIL (unmeasured)"), std::string::npos);
  EXPECT_NE(Report.Json.find("\"measured\": null"), std::string::npos);
}

TEST(ClaimsReportTest, PrintsEveryColumnAndFailsOnAnyFailingRow) {
  Claim Pinned = row(Comparator::Pinned, 3.4, 1.0);
  Pinned.Id = "test.pinned";
  Pinned.Status = ClaimStatus::KnownDeviation;
  Pinned.Paper = "within +-1%";
  const Claim Gate = row(Comparator::AtLeast, 6);
  const ClaimsReport Pass = reportClaims(
      {Pinned, Gate},
      Measurements{{"test.pinned", {3.42, ""}}, {"test.row", {6, "not: x"}}},
      {});
  EXPECT_TRUE(Pass.Pass);
  for (const char *Text :
       {"test.pinned", "3.4%", "3.4+-1.0%", "within +-1%", "+1.0",
        "known deviation", ">= 6.0%", "+0.0", "reproduced",
        "a quantity (not: x)", "2 claims: 2 pass, 0 FAILED"})
    EXPECT_NE(Pass.Text.find(Text), std::string::npos) << Text;

  const ClaimsReport Fail = reportClaims(
      {Pinned, Gate},
      Measurements{{"test.pinned", {4.5, ""}}, {"test.row", {6, ""}}}, {});
  EXPECT_FALSE(Fail.Pass);
  EXPECT_NE(Fail.Text.find("FAIL (known deviation)"), std::string::npos);
  EXPECT_NE(Fail.Text.find("1 FAILED"), std::string::npos);
}

TEST(ClaimsReportTest, HigherIsBetterDriftRowsCarryItemsPerSecond) {
  const ClaimsReport Report = reportClaims(
      {}, {}, {{"share_serve/jess/serve_paid", 4457576},
               {"share_serve/jess/serve_saved", 3368024, true}});
  EXPECT_NE(Report.Json.find("{\"name\": \"share_serve/jess/serve_paid\", "
                             "\"run_type\": \"iteration\", \"iterations\": 1, "
                             "\"real_time\": 4457576, \"cpu_time\": 4457576, "
                             "\"time_unit\": \"ns\"}"),
            std::string::npos);
  EXPECT_NE(Report.Json.find("\"real_time\": 3368024, \"cpu_time\": 3368024, "
                             "\"time_unit\": \"ns\", \"items_per_second\": "
                             "3368024}"),
            std::string::npos);
}

TEST(ClaimsTableTest, IdsAreUniqueAndBoundsOrdered) {
  std::set<std::string> Ids;
  for (const Claim &C : claimsTable()) {
    EXPECT_TRUE(Ids.insert(C.Id).second) << C.Id;
    if (C.Cmp == Comparator::Within) {
      EXPECT_LE(C.Bound, C.Bound2) << C.Id;
    }
    if (C.Cmp == Comparator::Pinned) {
      EXPECT_GT(C.Bound2, 0) << C.Id;
      EXPECT_EQ(C.Status, ClaimStatus::KnownDeviation) << C.Id;
    }
  }
}

TEST(SettlesSoonerTest, BothSettleAndTheChallengerIsSooner) {
  const SteadyLeg Cold{true, 39057701, 60000000};
  const SteadyLeg Warm{true, 29341062, 58000000};
  EXPECT_TRUE(settlesSooner(Warm, Cold, false));
  EXPECT_TRUE(settlesSooner(Warm, Cold, true));
  EXPECT_FALSE(settlesSooner(Cold, Warm, true));
}

TEST(SettlesSoonerTest, AnUnsettledIncumbentLosesBelowItsWall) {
  // The incumbent's warmup is censored at its last compile; its time to
  // steady state lies beyond its wall.
  const SteadyLeg Threshold{false, 39775471, 40000000};
  EXPECT_TRUE(settlesSooner({true, 39788071, 41000000}, Threshold, false));
  EXPECT_FALSE(settlesSooner({true, 40000000, 41000000}, Threshold, true));
}

TEST(SettlesSoonerTest, AnUnsettledChallengerNeverWins) {
  EXPECT_FALSE(
      settlesSooner({false, 1000, 2000}, {true, 5000, 9000}, true));
  EXPECT_FALSE(
      settlesSooner({false, 1000, 2000}, {false, 5000, 9000}, true));
}

TEST(SettlesSoonerTest, ATieCountsOnlyWhenTiesWin) {
  const SteadyLeg Leg{true, 36994919, 44000000};
  EXPECT_TRUE(settlesSooner(Leg, Leg, /*TiesWin=*/true));
  EXPECT_FALSE(settlesSooner(Leg, Leg, /*TiesWin=*/false));
}
