// Per-request lifecycle record of the routing service: one timestamp per
// hop a request takes through the daemon —
//
//   frame read complete -> admission enqueue -> dispatcher pop (queue
//   wait) -> batch formation (batch id + occupancy) -> Engine::route_batch
//   returns -> reply encoded and handed to the connection's outbox
//
// — so every request can explain where its latency went.  The struct is
// the single source for all three surfacings (DESIGN.md §6.3): the
// serve.* stage histograms, the per-connection Chrome trace lanes, and
// the queue_wait_us / batch_id / batch_size / write_us fields of the
// tagged JSONL event record.  It is also what the flight recorder
// (flight_recorder.hpp) retains for post-hoc diagnosis and dumps as JSONL
// on SIGQUIT or crash.
//
// Timestamps are obs::now_us() (microseconds since process start, steady
// clock); a zero timestamp means the request has not reached that hop yet
// (in-flight records in the flight recorder).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "patlabor/obs/json.hpp"
#include "patlabor/obs/trace.hpp"

namespace patlabor::serve {

struct RequestTrace {
  std::uint64_t conn_id = 0;
  std::uint64_t request_id = 0;  ///< client-chosen, echoed in the response
  std::string tag;               ///< client identity (explicit or c<conn>)
  std::size_t degree = 0;

  std::uint64_t read_us = 0;     ///< frame fully read off the socket
  std::uint64_t enqueue_us = 0;  ///< admitted to the dispatch queue
  std::uint64_t dequeue_us = 0;  ///< popped by the dispatcher
  std::uint64_t batch_id = 0;    ///< which coalesced batch served it
  std::size_t batch_size = 0;    ///< occupancy of that batch
  std::uint64_t routed_us = 0;   ///< Engine::route_batch returned
  std::uint64_t written_us = 0;  ///< reply encoded, handed to the outbox
  bool error = false;            ///< answered with an error frame / dropped

  bool completed() const { return written_us != 0; }

  // Stage durations (0 until the closing hop happened).
  std::uint64_t queue_wait_us() const {
    return dequeue_us >= enqueue_us ? dequeue_us - enqueue_us : 0;
  }
  std::uint64_t route_us() const {
    return routed_us >= dequeue_us ? routed_us - dequeue_us : 0;
  }
  std::uint64_t write_us() const {
    return written_us >= routed_us ? written_us - routed_us : 0;
  }
};

/// Appends one JSONL line for the trace (flight-recorder dump format).
/// `in_flight` marks records that had not completed at dump time.
inline void append_trace_jsonl(const RequestTrace& t, bool in_flight,
                               std::string& out) {
  const auto kv = [&out](const char* key, std::uint64_t v, bool comma = true) {
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(v);
    if (comma) out += ',';
  };
  out += "{\"type\":\"request\",";
  kv("conn", t.conn_id);
  kv("id", t.request_id);
  out += "\"tag\":";
  obs::json::append_json_string(t.tag, out);
  out += ',';
  kv("degree", t.degree);
  out += "\"in_flight\":";
  out += in_flight ? "true," : "false,";
  kv("read_us", t.read_us);
  kv("enqueue_us", t.enqueue_us);
  kv("dequeue_us", t.dequeue_us);
  kv("batch_id", t.batch_id);
  kv("batch_size", t.batch_size);
  kv("routed_us", t.routed_us);
  kv("written_us", t.written_us);
  kv("queue_wait_us", t.queue_wait_us());
  kv("route_us", t.route_us());
  kv("write_us", t.write_us());
  out += "\"error\":";
  out += t.error ? "true" : "false";
  out += "}\n";
}

}  // namespace patlabor::serve
