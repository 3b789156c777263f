//===- tests/GoldenTest.cpp - Golden-file tests for report formats ---------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Exact-output fixtures for the machine-readable exporters whose format
// downstream figure scripts parse: CsvExport and PlanPrinter. The
// inputs are hand-built (no VM runs), so a mismatch can only mean the
// report format drifted. To intentionally change a format, regenerate
// the fixtures with AOCI_UPDATE_GOLDEN=1 and review the diff.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "harness/CsvExport.h"
#include "opt/PlanPrinter.h"

#include "GoldenFile.h"

#include <gtest/gtest.h>

using namespace aoci;

namespace {

constexpr const char *FormatHint = "the report format changed";

/// A RunResult with every exported field filled from a small integer
/// tag, so each CSV column exercises a distinct value.
RunResult syntheticRun(const std::string &Workload, PolicyKind Policy,
                       unsigned Depth, uint64_t Tag) {
  RunResult R;
  R.WorkloadName = Workload;
  R.Policy = Policy;
  R.MaxDepth = Depth;
  R.WallCycles = 1000000 + Tag * 1111;
  R.OptBytesResident = 40000 - Tag * 13;
  R.OptBytesGenerated = 90000 + Tag * 17;
  R.OptCompileCycles = 220000 - Tag * 19;
  R.BaselineCompileCycles = 50000 + Tag;
  for (unsigned C = 0; C != NumAosComponents; ++C)
    R.ComponentCycles[C] = (Tag + 1) * 100 * (C + 1);
  R.OptCompilations = 30 + Tag;
  R.GuardFallbacks = 500 + Tag * 7;
  R.InlinedCalls = 80000 + Tag * 23;
  R.SamplesTaken = 400 + Tag;
  return R;
}

/// A fixed two-workload, two-policy, two-depth grid.
GridResults syntheticGrid() {
  GridResults Results;
  uint64_t Tag = 0;
  for (const char *W : {"alpha", "beta"}) {
    Results.addBaseline(
        syntheticRun(W, PolicyKind::ContextInsensitive, 1, Tag++));
    for (PolicyKind Policy :
         {PolicyKind::Fixed, PolicyKind::Parameterless})
      for (unsigned D : {2u, 3u})
        Results.addCell(syntheticRun(W, Policy, D, Tag++));
  }
  return Results;
}

} // namespace

TEST(GoldenTest, CsvExportFormat) {
  GridResults Results = syntheticGrid();
  std::string Csv = exportCsv(Results);
  expectMatchesGolden(goldenPath("csv_export.golden"), Csv, FormatHint);
}

TEST(GoldenTest, MetricsCsvFormat) {
  // Each row joins a run's host-side record with its RunResult counters.
  GridResults Results;
  RunResult R;
  R.WorkloadName = "alpha";
  R.WallCycles = 1000000;
  Results.addBaseline(R);
  R.Policy = PolicyKind::Fixed;
  R.MaxDepth = 3;
  R.WallCycles = 980000;
  R.WarmStarted = true;
  R.WarmStartApplied = 57;
  R.WarmStartDropped = 3;
  R.OptCompileCycles = 180000;
  Results.addCell(R);
  R.MaxDepth = 4;
  R.WallCycles = 990000;
  R.WarmStarted = false;
  R.WarmStartApplied = 0;
  R.WarmStartDropped = 0;
  R.OptCompileCycles = 0;
  Results.addCell(R);

  RunMetrics M;
  M.WorkloadName = "alpha";
  M.Policy = PolicyKind::ContextInsensitive;
  M.MaxDepth = 1;
  M.IsBaseline = true;
  M.Worker = 0;
  M.QueueLatencyNs = 1200;
  M.HostNs = 4500000;
  Results.addMetrics(M);
  M.Policy = PolicyKind::Fixed;
  M.MaxDepth = 3;
  M.IsBaseline = false;
  M.Worker = 2;
  M.QueueLatencyNs = 800;
  M.HostNs = 3900000;
  M.SteadyKnown = true;
  M.SteadyReached = true;
  M.WarmupCycles = 120000;
  M.SteadyCycles = 860000;
  Results.addMetrics(M);
  M.MaxDepth = 4;
  M.Worker = 1;
  M.QueueLatencyNs = 950;
  M.HostNs = 4100000;
  M.SteadyReached = false;
  M.WarmupCycles = 990000;
  M.SteadyCycles = 0;
  Results.addMetrics(M);
  expectMatchesGolden(goldenPath("metrics_csv.golden"),
                      exportMetricsCsv(Results), FormatHint);
}

TEST(GoldenTest, PlanPrinterFormat) {
  // The Figure 1 shape in miniature: runTest inlines get twice; each
  // copy guard-inlines one hashCode implementation, and one nests a
  // proven helper.
  ProgramBuilder B;
  ClassId Main = B.addClass("Main");
  ClassId Map = B.addClass("HashMap");
  ClassId KeyA = B.addClass("KeyA");
  MethodId RunTest =
      B.declareMethod(Main, "runTest", MethodKind::Static, 0, true);
  MethodId Get = B.declareMethod(Map, "get", MethodKind::Virtual, 1, true);
  MethodId HashA =
      B.declareMethod(KeyA, "hashCode", MethodKind::Virtual, 0, true);
  MethodId Helper =
      B.declareMethod(KeyA, "helper", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Helper);
    E.iconst(1).ret();
    E.finish();
  }
  {
    CodeEmitter E = B.code(HashA);
    E.invokeStatic(Helper).ret();
    E.finish();
  }
  {
    CodeEmitter E = B.code(Get);
    E.load(1).invokeVirtual(HashA).ret();
    E.finish();
  }
  {
    CodeEmitter E = B.code(RunTest);
    E.newObject(Map).newObject(KeyA).invokeVirtual(Get).pop();
    E.newObject(Map).newObject(KeyA).invokeVirtual(Get).ret();
    E.finish();
  }
  B.setEntry(RunTest);
  Program P = B.build();

  CodeVariant Variant;
  Variant.M = RunTest;
  Variant.Level = OptLevel::Opt2;
  Variant.CodeBytes = 1930;
  Variant.CompileCycles = 48500;
  InlineNode::SiteDecision &First = Variant.Plan.Root.getOrCreate(2);
  InlineCase &GetCase1 = First.Cases.emplace_back();
  GetCase1.Callee = Get;
  GetCase1.Guarded = false;
  GetCase1.BodyUnits = 12;
  GetCase1.Body = std::make_unique<InlineNode>();
  InlineCase &Hash1 = GetCase1.Body->getOrCreate(1).Cases.emplace_back();
  Hash1.Callee = HashA;
  Hash1.Guarded = true;
  Hash1.BodyUnits = 5;
  Hash1.Body = std::make_unique<InlineNode>();
  InlineCase &Nested = Hash1.Body->getOrCreate(0).Cases.emplace_back();
  Nested.Callee = Helper;
  Nested.Guarded = false;
  Nested.BodyUnits = 2;
  InlineNode::SiteDecision &Second = Variant.Plan.Root.getOrCreate(6);
  InlineCase &GetCase2 = Second.Cases.emplace_back();
  GetCase2.Callee = Get;
  GetCase2.Guarded = true;
  GetCase2.BodyUnits = 12;
  Variant.Plan.recountStatistics();

  expectMatchesGolden(goldenPath("plan_printer.golden"),
                      describeVariant(P, Variant), FormatHint);
}
