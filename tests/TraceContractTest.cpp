//===- tests/TraceContractTest.cpp - The trace contract's renderings -------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The contract table (src/trace/TraceJson.cpp) is the one statement
// of what each event kind exports. These tests hold everything else that
// states it to the table: the checked-in JSON Schema is the table's
// rendering byte for byte (AOCI_UPDATE_GOLDEN=1 regenerates it), and
// OBSERVABILITY.md's per-kind `arg | type` rows and its track table name
// the same args, types and tracks. The exporter's edge cases (a label
// code past the labels, an uncaptured method name, an absent callee) are
// pinned here too.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceJson.h"

#include "GoldenFile.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace aoci;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In) << "cannot read " << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::vector<std::string> observabilityLines() {
  std::istringstream In(readFile(std::string(AOCI_SOURCE_DIR) +
                                 "/OBSERVABILITY.md"));
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

/// The trimmed cells of a markdown table row: "| a | b |" -> {"a", "b"}.
std::vector<std::string> cells(const std::string &Row) {
  std::vector<std::string> Cells;
  std::istringstream In(Row.substr(1));
  for (std::string Cell; std::getline(In, Cell, '|');) {
    const size_t Begin = Cell.find_first_not_of(' ');
    const size_t End = Cell.find_last_not_of(' ');
    Cells.push_back(Begin == std::string::npos
                        ? ""
                        : Cell.substr(Begin, End - Begin + 1));
  }
  return Cells;
}

/// Every `quoted` token in \p Text, in order.
std::vector<std::string> backticked(const std::string &Text) {
  std::vector<std::string> Tokens;
  for (size_t Open = Text.find('`'); Open != std::string::npos;) {
    const size_t Close = Text.find('`', Open + 1);
    if (Close == std::string::npos)
      break;
    Tokens.push_back(Text.substr(Open + 1, Close - Open - 1));
    Open = Text.find('`', Close + 1);
  }
  return Tokens;
}

/// OBSERVABILITY.md's word for an arg type.
const char *docType(TraceArgType Type) {
  switch (Type) {
  case TraceArgType::Int:
    return "int";
  case TraceArgType::Float:
    return "float";
  case TraceArgType::Bool:
    return "bool";
  case TraceArgType::Label:
  case TraceArgType::Method:
  case TraceArgType::OptionalMethod:
    return "string";
  }
  return "?";
}

const TraceKindContract &row(unsigned I) {
  return traceKindContract(static_cast<TraceEventKind>(I));
}

TEST(TraceContractTest, SchemaIsTheTablesRendering) {
  std::ostringstream Schema;
  writeTraceSchema(Schema);
  expectMatchesGolden(std::string(AOCI_SOURCE_DIR) +
                          "/docs/trace-event.schema.json",
                      Schema.str(),
                      "the schema is rendered from the contract table in "
                      "src/trace/TraceJson.cpp; edit the table, not the "
                      "schema");
}

TEST(TraceContractTest, ObservabilityArgTablesMatchTheTable) {
  // Each "### `kind`" section's `arg | type` rows, in order.
  std::map<std::string, std::vector<std::string>> Documented;
  std::string Kind;
  for (const std::string &Line : observabilityLines()) {
    if (Line.rfind("#", 0) == 0)
      Kind = Line.rfind("### `", 0) == 0 ? backticked(Line).front() : "";
    else if (!Kind.empty() && Line.rfind("| `", 0) == 0)
      Documented[Kind].push_back(backticked(cells(Line)[0]).front() + " " +
                                 cells(Line)[1]);
  }
  std::map<std::string, std::vector<std::string>> Expected;
  for (unsigned I = 0; I != NumTraceEventKinds; ++I)
    for (const TraceArgContract &Arg : row(I).Args)
      if (Arg.Key)
        Expected[row(I).Name].push_back(std::string(Arg.Key) + " " +
                                        docType(Arg.Type));
  for (const auto &[Name, Args] : Expected)
    EXPECT_EQ(Documented[Name], Args)
        << "OBSERVABILITY.md's `" << Name << "` table (arg type)";
  EXPECT_EQ(Documented.size(), Expected.size())
      << "OBSERVABILITY.md documents a kind the table does not have";
}

TEST(TraceContractTest, ObservabilityTrackTableMatchesTheTable) {
  // The `| tid | Track name | Events rendered there |` table.
  std::vector<std::string> Lines = observabilityLines();
  auto Line = Lines.begin();
  while (Line != Lines.end() && Line->rfind("| tid |", 0) != 0)
    ++Line;
  ASSERT_NE(Line, Lines.end()) << "OBSERVABILITY.md has no track table";
  unsigned Tracks = 0;
  for (Line += 2; Line != Lines.end() && Line->rfind("|", 0) == 0; ++Line) {
    const std::vector<std::string> Cells = cells(*Line);
    const unsigned Track = std::stoul(Cells[0]);
    EXPECT_EQ(Track, Tracks++) << "tracks are listed in tid order";
    EXPECT_EQ(backticked(Cells[1]).front(),
              traceTrackName(static_cast<TraceTrack>(Track)));
    const std::vector<std::string> Listed = backticked(Cells[2]);
    std::set<std::string> Expected;
    for (unsigned I = 0; I != NumTraceEventKinds; ++I)
      if (row(I).Tracks & (1u << Track))
        Expected.insert(row(I).Name);
    EXPECT_EQ(std::set<std::string>(Listed.begin(), Listed.end()), Expected)
        << "kinds rendered on track " << Track;
  }
  EXPECT_EQ(Tracks, 1 + NumAosTraceTracks);
}

TEST(TraceContractTest, ExporterRendersEdgeCodes) {
  TraceSink Sink;
  Sink.enable();
  TraceEvent &Wakeup = Sink.append(TraceEventKind::OrganizerWakeup, 4, 10);
  Wakeup.A = 9; // no such organizer
  TraceEvent &Site = Sink.append(TraceEventKind::PlanSite, 2, 20);
  Site.Method = 3; // no name table captured
  Site.C = 2;
  Site.D = 2;
  Site.E = -1; // no inlined target
  std::ostringstream Json;
  writeChromeTrace(Json, Sink, "edges");
  EXPECT_NE(Json.str().find("\"args\":{\"organizer\":\"<invalid>\","
                            "\"wakeup\":0,\"examined\":0,\"acted\":0}"),
            std::string::npos)
      << Json.str();
  EXPECT_NE(Json.str().find("\"args\":{\"root\":\"m3\",\"site\":0,"
                            "\"depth\":0,\"verdict\":\"guarded-poly\","
                            "\"cases\":2}"),
            std::string::npos)
      << Json.str();
}

} // namespace
