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

#include <span>
#include <string>
#include <string_view>

namespace aoci {

/// A CSV's counter columns, named once: one list of runCounters() columns
/// gives both the header and each row's cells, each after a comma. Both
/// throw std::invalid_argument for a name the table lacks.
std::string counterHeader(std::span<const std::string_view> Columns);
std::string counterCells(std::span<const std::string_view> Columns,
                         const RunResult &R);

/// Renders \p Results as CSV, one row per run: its identity, its counters,
/// the Figure 6 fractions, and the Figure 4/5 and compile-time deltas
/// (empty on baseline rows). Rows are ordered by workload, then baseline
/// first, then policies x depths as given.
std::string exportCsv(const GridResults &Results,
                      const std::vector<PolicyKind> &Policies,
                      const std::vector<unsigned> &Depths);

/// Renders the harness-side execution record (GridResults::metrics()),
/// each row joined with its run's RunResult counters, as CSV, one row per
/// run in grid order. `steady` is n/a for untraced runs (see
/// SteadyState.h), else yes/no.
/// Kept separate from exportCsv(): simulated results are bit-identical
/// across thread counts, host timings and worker assignments are not.
std::string exportMetricsCsv(const GridResults &Results);

} // namespace aoci

#endif // AOCI_HARNESS_CSVEXPORT_H
