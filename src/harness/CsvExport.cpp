//===- harness/CsvExport.cpp - Machine-readable result export --------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/CsvExport.h"

#include "support/StringUtils.h"

using namespace aoci;

namespace {

void appendRunColumns(std::string &Out, const RunResult &R,
                      const char *PolicyName) {
  Out += formatString(
      "%s,%s,%u,%llu,%llu,%llu,%llu,%u,%llu,%llu,%llu",
      R.WorkloadName.c_str(), PolicyName, R.MaxDepth,
      static_cast<unsigned long long>(R.WallCycles),
      static_cast<unsigned long long>(R.OptBytesResident),
      static_cast<unsigned long long>(R.OptBytesGenerated),
      static_cast<unsigned long long>(R.OptCompileCycles),
      R.OptCompilations,
      static_cast<unsigned long long>(R.GuardFallbacks),
      static_cast<unsigned long long>(R.InlinedCalls),
      static_cast<unsigned long long>(R.SamplesTaken));
  for (unsigned C = 0; C != NumAosComponents; ++C)
    Out += formatString(",%.6f",
                        R.componentFraction(static_cast<AosComponent>(C)));
}

} // namespace

std::string aoci::exportCsv(const GridResults &Results,
                            const std::vector<PolicyKind> &Policies,
                            const std::vector<unsigned> &Depths) {
  std::string Out =
      "workload,policy,max_depth,wall_cycles,opt_bytes_resident,"
      "opt_bytes_generated,opt_compile_cycles,opt_compilations,"
      "guard_fallbacks,inlined_calls,samples,aos_listeners,"
      "aos_compilation,aos_decay,aos_ai,aos_method,aos_controller,"
      "speedup_pct,code_size_pct,compile_time_pct\n";

  for (const std::string &W : Results.workloads()) {
    appendRunColumns(Out, Results.baseline(W), "cins");
    Out += ",,,\n";
    for (PolicyKind Policy : Policies) {
      for (unsigned D : Depths) {
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
  std::string Out =
      "workload,policy,max_depth,kind,worker,queue_ns,host_ns,run_cycles,"
      "steady,warmup_cycles,steady_cycles,warm_start,warm_applied,"
      "warm_dropped,opt_compile_cycles,share_hits,share_publishes,"
      "share_saved_cycles,shared_bytes,private_bytes,budget_spent,"
      "budget_pruned,estimate_err_pct\n";
  for (const RunMetrics &M : Results.metrics()) {
    const RunResult &R = Results.result(M);
    Out += formatString(
        "%s,%s,%u,%s,%u,%llu,%llu,%llu,%s,%llu,%llu,%s,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.4f\n",
        M.WorkloadName.c_str(),
        M.IsBaseline ? "cins" : policyKindName(M.Policy), M.MaxDepth,
        M.IsBaseline ? "baseline" : "cell", M.Worker,
        static_cast<unsigned long long>(M.QueueLatencyNs),
        static_cast<unsigned long long>(M.HostNs),
        static_cast<unsigned long long>(R.WallCycles),
        !M.SteadyKnown ? "n/a" : M.SteadyReached ? "yes" : "no",
        static_cast<unsigned long long>(M.WarmupCycles),
        static_cast<unsigned long long>(M.SteadyCycles),
        R.WarmStarted ? "yes" : "no",
        static_cast<unsigned long long>(R.WarmStartApplied),
        static_cast<unsigned long long>(R.WarmStartDropped),
        static_cast<unsigned long long>(R.OptCompileCycles),
        static_cast<unsigned long long>(R.ShareHits),
        static_cast<unsigned long long>(R.SharePublishes),
        static_cast<unsigned long long>(R.ShareCyclesSaved),
        static_cast<unsigned long long>(R.SharedCodeBytes),
        static_cast<unsigned long long>(R.PrivateCodeBytes),
        static_cast<unsigned long long>(R.BudgetUnitsSpent),
        static_cast<unsigned long long>(R.BudgetCandidatesPruned),
        R.EstimateErrorPct);
  }
  return Out;
}
