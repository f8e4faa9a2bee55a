// Scoped trace spans: RAII timers recording hierarchical begin/end events
// into per-thread buffers, exported as Chrome trace_event JSON (loadable in
// chrome://tracing or https://ui.perfetto.dev) or aggregated into a flat
// per-phase table (see report.hpp).
//
// A span records one complete ("ph":"X") event when it is destroyed; spans
// still open when drain_trace() runs are not included.  Recording is gated
// on obs::enabled() at construction time and costs one mutex-protected
// vector push per span end — spans belong at phase granularity (a solver
// run, a net, a generation pass), not inside inner loops.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "patlabor/obs/stats.hpp"

namespace patlabor::obs {

/// One completed span.  Timestamps are microseconds since process start
/// (steady clock); depth is the span-nesting level within its thread
/// (0 = top-level).
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
};

/// Microseconds since process start on the steady clock.
std::uint64_t now_us() noexcept;

/// RAII scoped timer.  The name must outlive the span (string literals in
/// practice; the PL_SPAN macro enforces nothing but convention).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept;
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_us_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// Names the calling thread's lane in trace output (e.g. "pool.worker-3").
/// Safe to call whether or not recording is enabled; the last name set for
/// a thread wins.  Pool workers register themselves on startup.
void set_thread_name(std::string name);

/// Allocates a *virtual* lane: a named tid in the trace output that is not
/// bound to any thread.  For entities whose work is executed by varying
/// threads but should render as one timeline — the server gives every
/// client connection a lane ("serve.conn-3") and records request spans
/// into it from the dispatcher.  Lanes live for the process lifetime.
std::uint32_t alloc_lane(std::string name);

/// Records an already-timed complete event into a virtual lane (or any
/// tid) at the given nesting depth.  Thread-safe; no-op when recording is
/// disabled or the lane was never allocated.
void record_span_in_lane(std::uint32_t tid, std::string name,
                         std::uint64_t ts_us, std::uint64_t dur_us,
                         std::uint32_t depth = 0);

/// Snapshot of every (tid, name) pair registered via set_thread_name.
std::vector<std::pair<std::uint32_t, std::string>> thread_names();

/// Moves every completed event out of all per-thread buffers, sorted by
/// (tid, start time, depth).
std::vector<TraceEvent> drain_trace();

/// Discards all buffered events.
void clear_trace();

/// Chrome trace_event JSON ({"traceEvents": [...]}) for the given events.
std::string trace_json(const std::vector<TraceEvent>& events);

/// Writes trace_json(events) to `path`; throws std::runtime_error on I/O
/// failure.
void write_trace_json(const std::string& path,
                      const std::vector<TraceEvent>& events);

}  // namespace patlabor::obs
