//===- harness/CsvExport.cpp - Machine-readable result export --------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/CsvExport.h"

#include "support/StringUtils.h"

using namespace aoci;

std::string aoci::counterHeader(std::span<const std::string_view> Columns) {
  std::string Out;
  for (std::string_view Column : Columns)
    Out.append(",").append(runCounter(Column).Column);
  return Out;
}

std::string aoci::counterCells(std::span<const std::string_view> Columns,
                               const RunResult &R) {
  std::string Out;
  for (std::string_view Column : Columns)
    Out.append(",").append(std::to_string(R.*runCounter(Column).Field));
  return Out;
}

namespace {

constexpr std::string_view GridCounters[] = {
    "wall_cycles",        "opt_bytes_resident", "opt_bytes_generated",
    "opt_compile_cycles", "opt_compilations",   "guard_fallbacks",
    "inlined_calls",      "samples"};

void appendRunColumns(std::string &Out, const RunResult &R,
                      const char *PolicyName) {
  Out += formatString("%s,%s,%u", R.WorkloadName.c_str(), PolicyName,
                      R.MaxDepth) +
         counterCells(GridCounters, R);
  for (unsigned C = 0; C != NumAosComponents; ++C)
    Out += formatString(",%.6f",
                        R.componentFraction(static_cast<AosComponent>(C)));
}

} // namespace

std::string aoci::exportCsv(const GridResults &Results) {
  std::string Out = "workload,policy,max_depth" + counterHeader(GridCounters) +
                    ",aos_listeners,aos_compilation,aos_decay,aos_ai,"
                    "aos_method,aos_controller,speedup_pct,code_size_pct,"
                    "compile_time_pct\n";

  for (const std::string &W : Results.workloads()) {
    appendRunColumns(Out, Results.baseline(W),
                     policyKindName(PolicyKind::ContextInsensitive));
    Out += ",,,\n";
    for (PolicyKind Policy : Results.policies()) {
      for (unsigned D : Results.depths()) {
        appendRunColumns(Out, Results.cell(W, Policy, D),
                         policyKindName(Policy));
        Out += formatString(
            ",%.4f,%.4f,%.4f\n", Results.speedupPercent(W, Policy, D),
            Results.codeSizePercent(W, Policy, D),
            Results.compileTimePercent(W, Policy, D));
      }
    }
  }
  return Out;
}

std::string aoci::exportMetricsCsv(const GridResults &Results) {
  constexpr std::string_view Counters[] = {
      "warm_applied", "warm_dropped",    "opt_compile_cycles",
      "share_hits",   "share_publishes", "share_saved_cycles",
      "shared_bytes", "private_bytes",   "budget_spent",
      "budget_pruned"};
  std::string Out =
      "workload,policy,max_depth,kind,worker,queue_ns,host_ns,run_cycles,"
      "steady,warmup_cycles,steady_cycles,warm_start" +
      counterHeader(Counters) + ",estimate_err_pct\n";
  for (const RunMetrics &M : Results.metrics()) {
    const RunResult &R = Results.result(M);
    // run_cycles is wall_cycles under the name this CSV has always used.
    Out += formatString(
        "%s,%s,%u,%s,%u,%llu,%llu,%llu,%s,%llu,%llu,%s",
        M.WorkloadName.c_str(), policyKindName(M.Policy), M.MaxDepth,
        M.IsBaseline ? "baseline" : "cell", M.Worker,
        static_cast<unsigned long long>(M.QueueLatencyNs),
        static_cast<unsigned long long>(M.HostNs),
        static_cast<unsigned long long>(R.WallCycles),
        !M.SteadyKnown ? "n/a" : M.SteadyReached ? "yes" : "no",
        static_cast<unsigned long long>(M.WarmupCycles),
        static_cast<unsigned long long>(M.SteadyCycles),
        R.WarmStarted ? "yes" : "no");
    Out += counterCells(Counters, R) +
           formatString(",%.4f\n", R.EstimateErrorPct);
  }
  return Out;
}
