// Client side of the routing service: connects to a patlabord AF_UNIX
// socket and speaks the proto.hpp frame protocol.
//
// Two usage styles:
//
//   * synchronous — route(net, request) / ping() / metrics() / reload():
//     send one frame, block until its reply arrives;
//   * pipelined — send_route() returns the auto-assigned request id
//     immediately; read_route_reply() blocks for the *next* response frame
//     and returns (id, response).  Because the daemon coalesces jobs into
//     batches, replies may arrive in any order relative to sends — match
//     them by request id.
//
// A Client is a single connection and is not generally thread-safe.  The
// one sanctioned concurrent split is pipelined half-duplex: one thread
// calling send_route() while another calls read_route_reply() — the write
// half (fd_, next_id_, tag_) and the read half (fd_ reads only) touch
// disjoint state, and the kernel orders socket reads against writes.  Any
// other sharing needs external locking.  Server-sent error frames surface
// as ServeError carrying
// the wire ErrorCode; transport failures (EOF, socket errors) surface as
// std::runtime_error.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "patlabor/engine/engine.hpp"
#include "patlabor/geom/net.hpp"
#include "patlabor/serve/proto.hpp"

namespace patlabor::serve {

/// An error frame from the server, rethrown client-side.
struct ServeError : std::runtime_error {
  ServeError(ErrorCode code_, const std::string& message)
      : std::runtime_error(std::string(error_code_name(code_)) + ": " +
                           message),
        code(code_) {}
  ErrorCode code;
};

class Client {
 public:
  /// Connects to the daemon socket; throws std::runtime_error on failure.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Optional identity stamped into every subsequent route request's tag
  /// (shows up in the daemon's event stream).  "" = let the daemon tag by
  /// connection id.
  void set_tag(std::string tag) { tag_ = std::move(tag); }

  // ---- synchronous helpers -------------------------------------------

  /// Routes one net and blocks for the reply.  Do not interleave with
  /// pipelined sends (an older pipelined reply would be mismatched).
  WireRouteResponse route(const geom::Net& net,
                          const engine::RouteRequest& request);

  /// Round-trips a ping frame; throws if the reply is not its pong.
  void ping();

  /// Fetches the daemon's Prometheus-style metrics exposition text.
  std::string metrics();

  /// Asks the daemon to reload its engine/table; returns when scheduled.
  void reload();

  /// Fetches the daemon's live service stats (queue depth, in-flight
  /// count, per-stage latency quantiles, per-client counters).
  WireStats stats();

  // ---- pipelined interface -------------------------------------------

  /// Sends a route request without waiting; returns its request id.
  std::uint64_t send_route(const geom::Net& net,
                           const engine::RouteRequest& request);

  /// Blocks for the next route response (any pending id).  A server error
  /// frame for a pending route request throws ServeError.
  std::pair<std::uint64_t, WireRouteResponse> read_route_reply();

  /// Pipelines every net and returns the replies in net order.  Sends on
  /// a second thread while this one reads: the daemon stops reading a
  /// connection whose replies pile up unread, so a client that sent
  /// everything before reading anything could wait forever.
  std::vector<WireRouteResponse> route_all(
      const std::vector<geom::Net>& nets, const engine::RouteRequest& request);

 private:
  /// Blocks for one frame; fills `header`, returns the payload bytes.
  std::vector<std::uint8_t> read_frame(FrameHeader& header);
  void send_bytes(const std::string& bytes);
  /// Reads frames until one with `id` arrives; throws ServeError on an
  /// error frame for that id, runtime_error on a type mismatch.
  std::vector<std::uint8_t> await_reply(std::uint64_t id, FrameType expect);

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::string tag_;
};

}  // namespace patlabor::serve
