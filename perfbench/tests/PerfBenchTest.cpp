//===- perfbench/tests/PerfBenchTest.cpp - Tests of the benchmark's logic -===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the benchmark's own logic: the tail-percentile index, failure
/// counting, and the metric output against BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#include "BenchStats.h"
#include "PerfBench.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <regex>
#include <sstream>

using namespace perfbench;

namespace {

TEST(PercentileTest, NearestRankIndex) {
  EXPECT_EQ(percentileIndex(1, 90), 0u);
  EXPECT_EQ(percentileIndex(10, 50), 4u);
  EXPECT_EQ(percentileIndex(100, 90), 89u);
  EXPECT_EQ(percentileIndex(200, 90), 179u);
  EXPECT_EQ(percentileIndex(101, 90), 90u);
}

TEST(PercentileTest, TenOpsBeyondP90NeedsAHundredOps) {
  EXPECT_EQ(samplesBeyond(100, 90), MinTailSamples);
  EXPECT_LT(samplesBeyond(99, 90), MinTailSamples);
  EXPECT_EQ(samplesBeyond(200, 90), 20u);
}

TEST(PercentileTest, ValuesAndMedian) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 90), 90);
  EXPECT_EQ(percentile(V, 100), 100);
  EXPECT_EQ(median(V), 50.5);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({}), 0);
}

TEST(OpLedgerTest, InjectedFailureCountsOnce) {
  OpLedger L;
  for (int I = 0; I != 5; ++I)
    L.attempt();
  L.fail(3, "wrong result");
  L.fail(3, "a second finding on the same op");
  L.fail(7, "an op never attempted");
  EXPECT_EQ(L.attempted(), 5u);
  EXPECT_EQ(L.failed(), 1u);
  ASSERT_EQ(L.reasons().size(), 1u);
  EXPECT_EQ(L.reasons().front(), "op 3: wrong result");
}

/// A wrong reference for one program fails exactly the ops that run it,
/// once each, in the untraced and the traced pass alike.
TEST(OpLedgerTest, WrongReferenceFailsEachOpOfItsProgramOnce) {
  BenchWorkload W;
  ASSERT_TRUE(makeBenchWorkload("cache-churn", 7, W));
  // The first two scenarios, each under both policies.
  W.Runs.resize(4);
  W.Programs.resize(2);
  computeReferences(W);
  W.Reference[W.Programs[0].Name] += 1;

  OpLedger Untraced;
  PassResult P = runPass(W, Untraced);
  EXPECT_EQ(Untraced.attempted(), 4u);
  EXPECT_EQ(Untraced.failed(), 2u);
  EXPECT_EQ(P.Ops.size(), 4u);

  OpLedger Traced;
  TracedResult T;
  runTracedPass(W, Traced, T);
  EXPECT_EQ(Traced.attempted(), 4u);
  EXPECT_EQ(Traced.failed(), 2u);
  EXPECT_EQ(T.Totals, P.Totals);
}

/// serve-shared's ops are session slices; a session with a wrong result
/// fails one op, not one per slice it ran. The traced pass adds the
/// tenant's solo run, which fails once more.
TEST(OpLedgerTest, WrongServeSessionFailsOneSlice) {
  BenchWorkload W;
  ASSERT_TRUE(makeBenchWorkload("serve-shared", 7, W));
  W.Serve.Tenants = {{"compress", 2}};
  W.Serve.Params.Scale = 0.05;
  W.Programs = {{"compress", nullptr, W.Serve.Params}};
  ASSERT_EQ(W.Runs.front().WorkloadName, "compress");
  W.Runs.resize(1);
  W.Runs.front().Params = W.Serve.Params;
  computeReferences(W);
  W.Reference["compress"] += 1;

  OpLedger Untraced;
  PassResult P = runPass(W, Untraced);
  EXPECT_GT(Untraced.attempted(), 2u);
  EXPECT_EQ(Untraced.attempted(), P.Ops.size());
  EXPECT_EQ(Untraced.failed(), 2u);

  OpLedger Traced;
  TracedResult T;
  runTracedPass(W, Traced, T);
  EXPECT_EQ(Traced.attempted(), Untraced.attempted() + 1);
  EXPECT_EQ(Traced.failed(), 3u);
  EXPECT_EQ(T.Totals, P.Totals);
  EXPECT_EQ(T.OpNs.size(), 1u);
}

TEST(OpLedgerTest, SliceOpOfARoundThatRanNoSliceIsFresh) {
  OpLedger L;
  const std::vector<size_t> RoundFirstOp = {0, 0, 3};
  for (int I = 0; I != 5; ++I)
    L.attempt();
  EXPECT_EQ(sliceOp(RoundFirstOp, 2, L), 3u);
  EXPECT_EQ(L.attempted(), 5u);
  EXPECT_EQ(sliceOp(RoundFirstOp, 0, L), 5u);
  EXPECT_EQ(L.attempted(), 6u);
}

struct DeclaredMetric {
  std::string Name, Unit, Better;
};

/// The entries of BENCHMARK.json's \p Section array, one
/// {"name": ..., "unit": ..., "better": ...} object each.
std::vector<DeclaredMetric> declared(const std::string &Section) {
  std::ifstream In(PERFBENCH_BENCHMARK_JSON);
  std::stringstream Text;
  Text << In.rdbuf();
  const std::string All = Text.str();
  const size_t Begin = All.find("\"" + Section + "\"");
  const size_t End = All.find(']', Begin);
  if (Begin == std::string::npos || End == std::string::npos)
    return {};
  const std::string Body = All.substr(Begin, End - Begin);
  const std::regex Entry("\\{\\s*\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*"
                         "\"([^\"]+)\",\\s*\"better\":\\s*\"([a-z]+)\"");
  std::vector<DeclaredMetric> Out;
  for (std::sregex_iterator It(Body.begin(), Body.end(), Entry), E; It != E;
       ++It)
    Out.push_back({(*It)[1], (*It)[2], (*It)[3]});
  return Out;
}

size_t occurrences(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Text.find(Needle); At != std::string::npos;
       At = Text.find(Needle, At + 1))
    ++N;
  return N;
}

void expectPrintedOnce(const std::string &Section,
                       const std::vector<MetricDef> &Defs) {
  const std::vector<DeclaredMetric> Declared = declared(Section);
  ASSERT_EQ(Declared.size(), Defs.size()) << Section;
  MetricValues Values;
  for (size_t I = 0; I != Defs.size(); ++I) {
    EXPECT_EQ(Declared[I].Name, Defs[I].Name);
    EXPECT_EQ(Declared[I].Unit, Defs[I].Unit) << Defs[I].Name;
    EXPECT_EQ(Declared[I].Better,
              Defs[I].Dir == Better::Lower ? "lower" : "higher")
        << Defs[I].Name;
    Values[Defs[I].Name] = {1.5 + static_cast<double>(I), "basis"};
  }
  // Every row starts on a new line.
  std::string Table = "\n";
  Table += formatMetricTable(Defs, Values);
  std::string Error;
  const std::string Json = formatResultJson(true, 3, 0, Defs, Values, Error);
  ASSERT_FALSE(Json.empty()) << Error;
  for (const DeclaredMetric &D : Declared) {
    const std::regex Row("\\n  " + std::regex_replace(D.Name, std::regex("\\."),
                                                     "\\.") +
                         " +[0-9.e+-]+ " + D.Unit + " +" + D.Better +
                         "=better ");
    EXPECT_EQ(std::distance(std::sregex_iterator(Table.begin(), Table.end(),
                                                 Row),
                            std::sregex_iterator()),
              1)
        << D.Name;
    EXPECT_EQ(occurrences(Json, "\"" + D.Name + "\": {\"value\": "), 1u)
        << D.Name;
    EXPECT_EQ(occurrences(Json, "\"" + D.Name + "\""), 1u) << D.Name;
  }
  EXPECT_EQ(Json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
}

TEST(MetricOutputTest, EndToEndMetricsMatchBenchmarkJson) {
  expectPrintedOnce("end_to_end", endToEndMetrics());
}

TEST(MetricOutputTest, PerLayerMetricsMatchBenchmarkJson) {
  expectPrintedOnce("per_layer", perLayerMetrics());
}

TEST(MetricOutputTest, MissingOrNonFiniteValueIsAnError) {
  const std::vector<MetricDef> Defs = {{"a", "ms", Better::Lower},
                                       {"b", "ms", Better::Lower}};
  MetricValues Values;
  Values["a"] = {1, ""};
  std::string Error;
  EXPECT_TRUE(formatResultJson(true, 1, 0, Defs, Values, Error).empty());
  EXPECT_NE(Error.find("b"), std::string::npos);
  Values["b"] = {std::numeric_limits<double>::quiet_NaN(), ""};
  Error.clear();
  EXPECT_TRUE(formatResultJson(true, 1, 0, Defs, Values, Error).empty());
  EXPECT_NE(Error.find("not finite"), std::string::npos);
}

} // namespace
