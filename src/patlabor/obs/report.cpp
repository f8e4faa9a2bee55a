#include "patlabor/obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "patlabor/obs/json.hpp"
#include "patlabor/util/str.hpp"
#include "patlabor/util/timer.hpp"

namespace patlabor::obs {

namespace {

std::string num_json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::vector<PhaseRow> aggregate_phases(const std::vector<TraceEvent>& events) {
  // Input is sorted by (tid, ts, depth) — drain_trace() order.  Within a
  // thread, the nearest still-open enclosing event is this event's parent;
  // charge each event's duration to its parent's child time.
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> stack;  // indices of open enclosing events
  std::uint32_t cur_tid = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.tid != cur_tid) {
      stack.clear();
      cur_tid = e.tid;
    }
    // Pop events that cannot enclose e: anything at e's depth or deeper
    // (an enclosing span is strictly shallower), and anything that ended
    // strictly before e started.  A true parent survives both checks even
    // under microsecond truncation.
    while (!stack.empty()) {
      const TraceEvent& top = events[stack.back()];
      if (top.depth >= e.depth || top.ts_us + top.dur_us < e.ts_us)
        stack.pop_back();
      else
        break;
    }
    if (!stack.empty())
      child_us[stack.back()] += static_cast<double>(e.dur_us);
    stack.push_back(i);
  }

  std::map<std::string, PhaseRow> agg;
  for (std::size_t i = 0; i < events.size(); ++i) {
    PhaseRow& row = agg[events[i].name];
    row.name = events[i].name;
    row.count += 1;
    row.total_s += static_cast<double>(events[i].dur_us) * 1e-6;
    row.self_s +=
        (static_cast<double>(events[i].dur_us) - child_us[i]) * 1e-6;
  }

  std::vector<PhaseRow> rows;
  rows.reserve(agg.size());
  for (auto& [name, row] : agg) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), [](const PhaseRow& a, const PhaseRow& b) {
    return a.total_s > b.total_s;
  });
  return rows;
}

io::AsciiTable phase_table(const std::vector<PhaseRow>& phases,
                           double wall_seconds) {
  double self_sum = 0.0;
  for (const PhaseRow& p : phases) self_sum += p.self_s;
  const double denom = wall_seconds > 0.0 ? wall_seconds : self_sum;

  io::AsciiTable table({"Phase", "Count", "Total", "Self", "Self %"});
  for (const PhaseRow& p : phases)
    table.add_row({p.name, util::with_commas(static_cast<std::int64_t>(p.count)),
                   util::format_duration(p.total_s),
                   util::format_duration(p.self_s),
                   denom > 0.0 ? util::percent(p.self_s / denom) : "-"});
  table.add_separator();
  table.add_row({"(sum of self)", "",
                 "", util::format_duration(self_sum),
                 denom > 0.0 ? util::percent(self_sum / denom) : "-"});
  if (wall_seconds > 0.0)
    table.add_row({"(wall)", "", "", util::format_duration(wall_seconds),
                   "100.0%"});
  return table;
}

io::AsciiTable stats_table(const Snapshot& snap) {
  io::AsciiTable table({"Metric", "Count", "Sum/Value", "Min", "Mean", "Max"});
  for (const auto& [name, value] : snap.counters)
    table.add_row({name, "",
                   util::with_commas(static_cast<std::int64_t>(value)), "", "",
                   ""});
  for (const auto& [name, h] : snap.histograms)
    table.add_row({name,
                   util::with_commas(static_cast<std::int64_t>(h.count)),
                   util::with_commas(static_cast<std::int64_t>(h.sum)),
                   util::with_commas(static_cast<std::int64_t>(h.min)),
                   util::fixed(h.mean(), 2),
                   util::with_commas(static_cast<std::int64_t>(h.max))});
  return table;
}

void print_report(const Snapshot& snap, const std::vector<PhaseRow>& phases,
                  double wall_seconds) {
  if (phases.empty()) {
    std::printf("[obs] no trace spans recorded\n");
  } else {
    phase_table(phases, wall_seconds).print("Phase breakdown");
  }
  if (snap.counters.empty() && snap.histograms.empty()) {
    std::printf("[obs] no counters recorded\n");
  } else {
    stats_table(snap).print("Counters & histograms");
  }
}

std::string report_json(const Snapshot& snap,
                        const std::vector<PhaseRow>& phases,
                        double wall_seconds) {
  std::string out = "{\"wall_seconds\":" + num_json(wall_seconds);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ",";
    first = false;
    json::append_json_string(name, out);
    out += ":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ",";
    first = false;
    json::append_json_string(name, out);
    out += ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) +
           ",\"mean\":" + num_json(h.mean()) + "}";
  }
  out += "},\"phases\":[";
  first = true;
  for (const PhaseRow& p : phases) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    json::append_json_string(p.name, out);
    out += ",\"count\":" + std::to_string(p.count) +
           ",\"total_s\":" + num_json(p.total_s) +
           ",\"self_s\":" + num_json(p.self_s) + "}";
  }
  out += "]}";
  return out;
}

void write_report_json(const std::string& path, const Snapshot& snap,
                       const std::vector<PhaseRow>& phases,
                       double wall_seconds) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open report file " + path);
  out << report_json(snap, phases, wall_seconds) << "\n";
  if (!out) throw std::runtime_error("failed writing report file " + path);
}

}  // namespace patlabor::obs
