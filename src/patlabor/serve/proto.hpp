// The versioned wire schema of the routing service (`patlabord`).
//
// This is the serializable form of the engine's in-process request/response
// API: one schema serves both embedding (engine::Engine::route) and RPC
// (serve::Server / serve::Client / tools/patlabor_client), so a client that
// byte-compares a daemon response against a direct Engine call compares the
// *same* encoding of the same structs.
//
// Transport: a stream of length-prefixed frames.  Every frame is a fixed
// 24-byte little-endian header followed by `payload_size` payload bytes:
//
//   offset  size  field         semantics
//   ------  ----  ------------  -------------------------------------------
//        0     4  magic         0x52424C50 ("PLBR" as bytes on the wire)
//        4     2  version       kProtoVersion; receivers reject mismatches
//        6     2  type          FrameType
//        8     8  request_id    chosen by the client, echoed verbatim in
//                               every response/error for that request
//       16     4  payload_size  bytes following the header; receivers
//                               enforce a cap (kDefaultMaxPayload)
//       20     4  reserved      writers send 0; receivers ignore (room for
//                               flags in a later version)
//
// Payload scalars are little-endian fixed-width integers; doubles travel as
// their IEEE-754 bit pattern in a u64; strings and arrays are a u32 count
// followed by the elements.  Decoders validate every length against the
// remaining payload and throw ProtoError (never read out of bounds), and
// route-response decoding re-checks the staircase invariant before adopting
// the frontier into a pareto::SolutionSet.
//
// Versioning contract: the header layout (through payload_size) is frozen
// forever; any payload change bumps kProtoVersion.  A server answering a
// frame whose version it does not speak replies with an Error frame
// (kBadVersion) carrying its own version in the header, then closes — so an
// old client always learns the server's version instead of hanging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "patlabor/engine/engine.hpp"
#include "patlabor/geom/net.hpp"
#include "patlabor/pareto/solution_set.hpp"

namespace patlabor::serve {

inline constexpr std::uint32_t kMagic = 0x52424C50u;  // "PLBR"
/// Version history: 1 = initial (route/ping/metrics/reload);
/// 2 = adds the Stats frame pair (kStatsRequest/kStatsResponse).
inline constexpr std::uint16_t kProtoVersion = 2;
inline constexpr std::size_t kHeaderSize = 24;
/// Default payload cap enforced by both sides (a degree-1000 net is ~16 KB;
/// a metrics dump a few hundred KB — 16 MiB is generous headroom).
inline constexpr std::uint32_t kDefaultMaxPayload = 16u << 20;

enum class FrameType : std::uint16_t {
  kRouteRequest = 1,
  kRouteResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kMetricsRequest = 6,   ///< empty payload; response carries exposition text
  kMetricsResponse = 7,  ///< payload: string (Prometheus text format)
  kReloadRequest = 8,    ///< ask the daemon to rebuild its engine/table
  kReloadResponse = 9,   ///< ack: the reload is scheduled (async)
  kStatsRequest = 10,    ///< v2: empty payload; asks for live service stats
  kStatsResponse = 11,   ///< v2: payload: WireStats
};

enum class ErrorCode : std::uint32_t {
  kBadMagic = 1,        ///< stream out of sync; connection is closed
  kBadVersion = 2,      ///< kProtoVersion mismatch; connection is closed
  kOversizePayload = 3, ///< payload_size above the cap; connection is closed
  kTruncated = 4,       ///< EOF mid-frame (diagnosed locally, never sent)
  kBadPayload = 5,      ///< malformed payload bytes; connection survives
  kUnknownType = 6,     ///< unrecognized FrameType; connection survives
  kBadRequest = 7,      ///< well-formed but unserviceable (bad method, ...)
  kInternal = 8,        ///< routing threw; connection survives
  kShuttingDown = 9,    ///< request arrived after drain began
};

const char* error_code_name(ErrorCode code);

/// Decode failure: carries the error code a server should answer with.
struct ProtoError : std::runtime_error {
  ProtoError(ErrorCode c, const std::string& msg)
      : std::runtime_error(msg), code(c) {}
  ErrorCode code;
};

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtoVersion;
  FrameType type = FrameType::kPing;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t reserved = 0;
};

/// One routing request as it travels: the net plus the same RouteRequest
/// the in-process API takes, and the request's λ expectation (0 = accept
/// the server's configured λ; a nonzero mismatch is refused with
/// kBadRequest rather than silently answered under different exactness).
struct WireRouteRequest {
  geom::Net net;
  engine::RouteRequest request;
  std::uint32_t lambda = 0;
};

/// One routing response as it travels: the engine::RouteResponse minus the
/// trees (the staircase is the service's deliverable; trees stay
/// embedding-only) plus the server-side wall time.
struct WireRouteResponse {
  pareto::SolutionSet frontier;
  std::int32_t iterations = 0;
  bool cache_hit = false;
  std::uint64_t wall_us = 0;
};

struct WireError {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Latency summary of one service stage (microsecond quantiles computed
/// server-side from the serve.* histograms; all zero while recording is
/// disabled).
struct WireStageStats {
  std::uint64_t count = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
};

/// Per-client counters, keyed by tag.  Sorted by tag on the wire so the
/// encoding of a given server state is deterministic.
struct WireClientStats {
  std::string tag;
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;  ///< request payload in + response frames out
  std::uint64_t errors = 0;
};

/// v2: live service introspection (kStatsResponse payload) — the answer to
/// "what is the daemon doing right now": admission queue depth, in-flight
/// count, lifetime totals, per-stage latency quantiles, per-client usage.
struct WireStats {
  std::uint64_t queue_depth = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t errors = 0;
  std::uint64_t batches = 0;
  std::uint64_t reloads = 0;
  WireStageStats queue_wait;
  WireStageStats route;
  WireStageStats write;
  std::vector<WireClientStats> clients;
};

// --- header codec ---------------------------------------------------------

/// Appends the 24-byte header encoding to `out`.
void encode_header(const FrameHeader& header, std::string& out);

/// Decodes a header from exactly kHeaderSize bytes.  Throws ProtoError with
/// kBadMagic / kBadVersion; payload_size is NOT checked against any cap
/// (the receiver owns that policy).
FrameHeader decode_header(std::span<const std::uint8_t> bytes);

// --- frame builders (header + payload in one buffer) ----------------------

std::string encode_route_request(std::uint64_t request_id,
                                 const WireRouteRequest& request);

/// Serializes the in-process response.  `wall_us` is stamped by the server;
/// pass 0 for deterministic byte-compares against a direct Engine call.
std::string encode_route_response(std::uint64_t request_id,
                                  const engine::RouteResponse& response,
                                  std::uint64_t wall_us);

std::string encode_error(std::uint64_t request_id, ErrorCode code,
                         const std::string& message);

/// Payload-less frame (Ping / Pong / MetricsRequest / ReloadRequest /
/// ReloadResponse).
std::string encode_empty(FrameType type, std::uint64_t request_id);

/// Frame whose payload is one string (MetricsResponse).
std::string encode_text(FrameType type, std::uint64_t request_id,
                        const std::string& text);

/// v2: StatsResponse frame.
std::string encode_stats_response(std::uint64_t request_id,
                                  const WireStats& stats);

// --- payload decoders -----------------------------------------------------

WireRouteRequest decode_route_request(std::span<const std::uint8_t> payload);
WireRouteResponse decode_route_response(std::span<const std::uint8_t> payload);
WireError decode_error(std::span<const std::uint8_t> payload);
std::string decode_text(std::span<const std::uint8_t> payload);
WireStats decode_stats(std::span<const std::uint8_t> payload);

}  // namespace patlabor::serve
