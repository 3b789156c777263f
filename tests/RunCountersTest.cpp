//===- tests/RunCountersTest.cpp - The run counter table and its CSVs ------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The CSV goldens leave most counters at 0, where two swapped columns
// still match. Here every counter holds a value of its own, and each CSV
// column that names a counter must hold that counter.
//
//===----------------------------------------------------------------------===//

#include "harness/CsvExport.h"
#include "harness/Serve.h"

#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <set>
#include <sstream>

using namespace aoci;

namespace {

/// A run whose every counter holds a value of its own.
RunResult distinctRun() {
  RunResult R;
  R.WorkloadName = "alpha";
  for (size_t I = 0; I != runCounters().size(); ++I)
    R.*runCounters()[I].Field = 1000 + I;
  return R;
}

/// The first data row of \p Csv, keyed by its header's column names.
std::map<std::string, std::string> firstRow(const std::string &Csv) {
  std::stringstream In(Csv);
  std::string Header, Row;
  std::getline(In, Header);
  std::getline(In, Row);
  std::stringstream Names(Header), Cells(Row + ",");
  std::map<std::string, std::string> Out;
  std::string Name, Cell;
  while (std::getline(Names, Name, ',') && std::getline(Cells, Cell, ','))
    EXPECT_TRUE(Out.emplace(Name, Cell).second) << Name << " appears twice";
  return Out;
}

/// Expects each column of \p Csv that names a counter to hold \p R's
/// value of it, and returns how many columns did.
size_t expectCountersInTheirColumns(const std::string &Csv,
                                    const RunResult &R) {
  const std::map<std::string, std::string> Row = firstRow(Csv);
  size_t Named = 0;
  for (const RunCounter &C : runCounters())
    if (auto It = Row.find(C.Column); It != Row.end()) {
      EXPECT_EQ(It->second, std::to_string(R.*C.Field)) << C.Column;
      ++Named;
    }
  return Named;
}

} // namespace

TEST(RunCountersTest, ColumnsAreUniqueSnakeCaseWithAKnownUnit) {
  const std::regex SnakeCase("[a-z][a-z0-9]*(_[a-z0-9]+)*");
  const std::set<std::string> Units = {"cycles", "bytes", "count", "units"};
  std::set<std::string> Columns;
  for (const RunCounter &C : runCounters()) {
    EXPECT_TRUE(std::regex_match(C.Column, SnakeCase)) << C.Column;
    EXPECT_TRUE(Columns.insert(C.Column).second) << C.Column;
    EXPECT_TRUE(Units.count(C.Unit)) << C.Column << " counts " << C.Unit;
    EXPECT_EQ(&runCounter(C.Column), &C);
  }
}

TEST(RunCountersTest, AnUnknownColumnThrows) {
  EXPECT_THROW(runCounter("no_such_counter"), std::invalid_argument);
  const std::string_view Columns[] = {"wall_cycles", "no_such_counter"};
  EXPECT_THROW(counterHeader(Columns), std::invalid_argument);
}

TEST(RunCountersTest, GridAndMetricsCsvColumnsHoldTheirCounters) {
  const RunResult R = distinctRun();
  GridResults Results;
  Results.addBaseline(R);
  RunMetrics M;
  M.WorkloadName = R.WorkloadName;
  M.IsBaseline = true;
  Results.addMetrics(M);
  EXPECT_EQ(expectCountersInTheirColumns(exportCsv(Results, {}, {}), R), 8u);
  const std::string Metrics = exportMetricsCsv(Results);
  EXPECT_EQ(expectCountersInTheirColumns(Metrics, R), 10u);
  // run_cycles is wall_cycles under the name this CSV has always used.
  EXPECT_EQ(firstRow(Metrics).at("run_cycles"), std::to_string(R.WallCycles));
}

TEST(RunCountersTest, ServeCsvColumnsHoldTheirCounters) {
  ServeResults Results;
  Results.Sessions.resize(1);
  static_cast<RunResult &>(Results.Sessions[0]) = distinctRun();
  EXPECT_EQ(expectCountersInTheirColumns(exportServeCsv(Results),
                                         Results.Sessions[0]),
            13u);
}
