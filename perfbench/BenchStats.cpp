//===- perfbench/BenchStats.cpp - Statistics and output of the benchmark -===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "BenchStats.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

size_t perfbench::percentileIndex(size_t N, double Pct) {
  // Nearest rank: ceil(Pct/100 * N), one-based. The epsilon keeps an
  // exact product such as 0.9 * 200 from rounding up past 180.
  const double Rank = std::ceil(Pct / 100.0 * static_cast<double>(N) - 1e-9);
  const size_t R = static_cast<size_t>(std::max(1.0, Rank));
  return std::min(R, N) - 1;
}

size_t perfbench::samplesBeyond(size_t N, double Pct) {
  return N - 1 - percentileIndex(N, Pct);
}

double perfbench::percentile(std::vector<double> Samples, double Pct) {
  if (Samples.empty())
    return 0;
  const size_t I = percentileIndex(Samples.size(), Pct);
  std::nth_element(Samples.begin(), Samples.begin() + I, Samples.end());
  return Samples[I];
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

size_t OpLedger::attempt() {
  Failed.push_back(false);
  return Failed.size() - 1;
}

void OpLedger::fail(size_t Op, const std::string &Why) {
  if (Op >= Failed.size() || Failed[Op])
    return;
  Failed[Op] = true;
  ++NumFailed;
  Reasons.push_back("op " + std::to_string(Op) + ": " + Why);
}

const std::vector<MetricDef> &perfbench::endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"op_ms_p50", "ms", Better::Lower},
      {"op_ms_p90", "ms", Better::Lower},
      {"ns_per_mcycle", "ns/Mcycle", Better::Lower},
      {"setup_s", "s", Better::Lower},
      {"peak_rss_mb", "MiB", Better::Lower},
      {"sim_mcycles", "Mcycle", Better::Lower},
      {"code_kb", "KiB", Better::Lower},
      {"opt_compile_mcycles", "Mcycle", Better::Lower},
  };
  return Defs;
}

const std::vector<MetricDef> &perfbench::perLayerMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"workload.build_ms", "ms", Better::Lower},
      {"workload.bytecodes", "count", Better::Lower},
      {"workload.ns_per_bytecode", "ns", Better::Lower},
      {"vm.exec_ms", "ms", Better::Lower},
      {"vm.exec_pct", "%", Better::Lower},
      {"vm.instructions", "count", Better::Lower},
      {"vm.ns_per_instr", "ns", Better::Lower},
      {"vm.calls", "count", Better::Lower},
      {"vm.inlined_calls", "count", Better::Higher},
      {"vm.calls_per_kinstr", "count", Better::Lower},
      {"vm.guard_tests", "count", Better::Lower},
      {"vm.guard_fallback_pct", "%", Better::Lower},
      {"cache.evictions", "count", Better::Lower},
      {"cache.recompiles", "count", Better::Lower},
      {"cache.recompile_pct", "%", Better::Lower},
      {"cache.peak_kb", "KiB", Better::Lower},
      {"osr.entries", "count", Better::Higher},
      {"osr.deopts", "count", Better::Lower},
      {"vm.install_ms", "ms", Better::Lower},
      {"vm.us_per_install", "us", Better::Lower},
      {"core.sample_ms", "ms", Better::Lower},
      {"core.samples", "count", Better::Lower},
      {"core.us_per_sample", "us", Better::Lower},
      {"core.overhead_pct", "%", Better::Lower},
      {"opt.compile_ms", "ms", Better::Lower},
      {"opt.compiles", "count", Better::Lower},
      {"opt.us_per_compile", "us", Better::Lower},
      {"opt.resident_kb", "KiB", Better::Lower},
      {"opt.generated_kb", "KiB", Better::Lower},
      {"share.hit_pct", "%", Better::Higher},
      {"share.publishes", "count", Better::Lower},
      {"share.duplicate_publishes", "count", Better::Lower},
      {"share.evictions", "count", Better::Lower},
      {"share.saved_mcycles", "Mcycle", Better::Higher},
      {"serve.rounds", "count", Better::Lower},
      {"serve.active_mean", "count", Better::Lower},
      {"trace.overhead_pct", "%", Better::Lower},
  };
  return Defs;
}

MetricValue perfbench::ratio(double Num, double Den, double Scale,
                             const char *NumName, const char *DenName) {
  return MetricValue{Den == 0 ? 0.0 : Num / Den * Scale,
                     aoci::formatString("%s %.6g / %s %.6g", NumName, Num,
                                        DenName, Den)};
}

std::string perfbench::formatMetricTable(const std::vector<MetricDef> &Defs,
                                         const MetricValues &Values) {
  std::string Out;
  for (const MetricDef &D : Defs) {
    auto It = Values.find(D.Name);
    if (It == Values.end())
      continue;
    Out += aoci::formatString(
        "  %-26s %16.6g %-10s %-14s %s\n", D.Name, It->second.Value, D.Unit,
        D.Dir == Better::Lower ? "lower=better" : "higher=better",
        It->second.Basis.c_str());
  }
  return Out;
}

std::string perfbench::formatResultJson(bool Correct, size_t Attempted,
                                        size_t Failed,
                                        const std::vector<MetricDef> &Defs,
                                        const MetricValues &Values,
                                        std::string &Error) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const MetricDef &D : Defs) {
    auto It = Values.find(D.Name);
    if (It == Values.end()) {
      Error = std::string("metric ") + D.Name + " was not measured";
      return "";
    }
    if (!std::isfinite(It->second.Value)) {
      Error = std::string("metric ") + D.Name + " is not finite";
      return "";
    }
    // %.17g round-trips a double: every digit as measured.
    Out += aoci::formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              First ? "" : ", ", D.Name, It->second.Value,
                              D.Unit);
    First = false;
  }
  Out += "}}";
  return Out;
}
