// Bounded flight recorder for the routing service: the last N completed
// RequestTrace records (ring buffer) plus every in-flight one, so a wedged
// or slow daemon is diagnosable post-hoc *without* the event stream
// enabled.  It holds only requests admitted while obs::enabled() (which
// patlabord always sets).  patlabord dumps it as JSONL on SIGQUIT, and the server chains
// a dump into obs::add_flush_hook so a crash / escaped exception leaves
// the same artifact behind (DESIGN.md §6.3).
//
// Thread model: start() runs on reader threads, complete() on the
// dispatcher, dump()/snapshot() on any thread (signal loop, tests).
// One mutex serializes all of it — every operation is O(1)-ish on small
// structs, far off the routing hot path.  A dump is therefore atomic:
// each admitted request appears in exactly one of the two sets, so
// in_flight + completed always equals the number of requests admitted
// (minus ring evictions, which only ever drop *completed* records).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "patlabor/serve/request_trace.hpp"

namespace patlabor::serve {

class FlightRecorder {
 public:
  /// `capacity` bounds the completed-record ring; in-flight records are
  /// bounded by the admission queue + one batch by construction.
  explicit FlightRecorder(std::size_t capacity) : capacity_(capacity) {}

  /// Admission: the request is now in flight, keyed (conn_id, request_id).
  void start(const RequestTrace& t);

  /// Completion (response written or answered with an error): moves the
  /// request from in-flight to the completed ring, evicting the oldest
  /// completed record when full.
  void complete(const RequestTrace& t);

  struct DumpStats {
    std::size_t in_flight = 0;
    std::size_t completed = 0;
  };

  /// Writes every in-flight record, then the completed ring (oldest
  /// first), as JSONL to `path`.  Atomic with respect to start/complete.
  /// Returns what was written; throws std::runtime_error on I/O failure.
  DumpStats dump(const std::string& path) const;

  /// In-memory copy: in-flight records first, then the completed ring
  /// (oldest first), with the same atomicity as dump().
  std::vector<std::pair<RequestTrace, bool /*in_flight*/>> snapshot() const;

  std::size_t in_flight() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, RequestTrace> live_;
  std::deque<RequestTrace> ring_;
};

}  // namespace patlabor::serve
