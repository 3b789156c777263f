//===- harness/CsvExport.h - Machine-readable result export -----*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat CSV export of grid results, one row per run (the cins baselines
/// plus every policy x depth cell), with the derived Figure 4/5 deltas
/// attached to the cell rows. Intended for plotting the paper's bar
/// charts from a spreadsheet or a notebook.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_CSVEXPORT_H
#define AOCI_HARNESS_CSVEXPORT_H

#include "harness/Experiment.h"

#include <string>

namespace aoci {

/// Renders \p Results as CSV. Columns:
///   workload,policy,max_depth,wall_cycles,opt_bytes_resident,
///   opt_bytes_generated,opt_compile_cycles,opt_compilations,
///   guard_fallbacks,inlined_calls,samples,
///   aos_listeners,aos_compilation,aos_decay,aos_ai,aos_method,
///   aos_controller,speedup_pct,code_size_pct,compile_time_pct
/// Baseline rows carry empty delta columns. Rows are ordered by
/// workload, then baseline first, then policies x depths as given.
std::string exportCsv(const GridResults &Results,
                      const std::vector<PolicyKind> &Policies,
                      const std::vector<unsigned> &Depths);

/// Renders the harness-side execution record (GridResults::metrics()),
/// each row joined with its run's RunResult counters, as CSV, one row per
/// run in grid order. Columns:
///   workload,policy,max_depth,kind,worker,queue_ns,host_ns,run_cycles,
///   steady,warmup_cycles,steady_cycles,warm_start,warm_applied,
///   warm_dropped,opt_compile_cycles,share_hits,share_publishes,
///   share_saved_cycles,shared_bytes,private_bytes,budget_spent,
///   budget_pruned,estimate_err_pct
/// `steady` is n/a for untraced runs (see SteadyState.h), else yes/no.
/// The share_* columns are the shared-code-cache ledger (zero outside
/// serve mode; see harness/Serve.h).
/// Kept separate from exportCsv(): simulated results are bit-identical
/// across thread counts, host timings and worker assignments are not.
std::string exportMetricsCsv(const GridResults &Results);

} // namespace aoci

#endif // AOCI_HARNESS_CSVEXPORT_H
