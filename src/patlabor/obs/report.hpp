// Report layer: renders stats snapshots and drained trace events as
// aligned text tables (io::AsciiTable) and JSON.
//
// Lives in a separate library (pl_obs_report) from the core obs machinery
// so that instrumented low-level libraries (tree, dw, ...) can link pl_obs
// without pulling in pl_io.
#pragma once

#include <string>
#include <vector>

#include "patlabor/io/table.hpp"
#include "patlabor/obs/stats.hpp"
#include "patlabor/obs/trace.hpp"

namespace patlabor::obs {

/// Flat per-phase aggregate of the span tree.  `total_s` is inclusive
/// (sum of span durations with this name), `self_s` excludes time spent in
/// child spans.
struct PhaseRow {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Aggregates events by span name, computing inclusive and self time via
/// interval nesting per thread.  Rows are sorted by total time descending.
std::vector<PhaseRow> aggregate_phases(const std::vector<TraceEvent>& events);

/// Phase table:  Phase | Count | Total | Self | Self %.  Percentages are
/// of `wall_seconds` when > 0, else of the summed self time.
io::AsciiTable phase_table(const std::vector<PhaseRow>& phases,
                           double wall_seconds);

/// Counter + histogram table (one row per metric).
io::AsciiTable stats_table(const Snapshot& snap);

/// Prints both tables to stdout with captions; no-op rows are included so
/// the output shape is stable.
void print_report(const Snapshot& snap, const std::vector<PhaseRow>& phases,
                  double wall_seconds);

/// Machine-readable report: {"wall_seconds", "counters", "histograms",
/// "phases"}.  Parseable by obs::json::parse.
std::string report_json(const Snapshot& snap,
                        const std::vector<PhaseRow>& phases,
                        double wall_seconds);

/// Writes report_json to `path`; throws std::runtime_error on I/O failure.
void write_report_json(const std::string& path, const Snapshot& snap,
                       const std::vector<PhaseRow>& phases,
                       double wall_seconds);

}  // namespace patlabor::obs
