#include "patlabor/serve/proto.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace patlabor::serve {

namespace {

// Hard caps on element counts inside a payload, independent of the byte
// cap: a malicious count field must not drive a huge reserve() before the
// per-element bounds checks run.
constexpr std::uint32_t kMaxStringLen = 1u << 20;
constexpr std::uint32_t kMaxPins = 1u << 20;
constexpr std::uint32_t kMaxParams = 1u << 10;
constexpr std::uint32_t kMaxFrontier = 1u << 20;
/// |pin coordinate| cap: the router's int64 length sums of any net under
/// kMaxPins stay far from overflow.
constexpr std::int64_t kMaxCoord = std::int64_t{1} << 36;

class WireWriter {
 public:
  explicit WireWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v), 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

 private:
  void le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }

  std::string& out_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(le(8)); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t n = u32();
    if (n > kMaxStringLen)
      throw ProtoError(ErrorCode::kBadPayload,
                       "string length " + std::to_string(n) + " over cap");
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// A count field bounded both by `cap` and by the bytes actually left
  /// for `elem_size`-byte elements.
  std::uint32_t count(std::uint32_t cap, std::size_t elem_size,
                      const char* what) {
    const std::uint32_t n = u32();
    if (n > cap || static_cast<std::uint64_t>(n) * elem_size > remaining())
      throw ProtoError(ErrorCode::kBadPayload,
                       std::string(what) + " count " + std::to_string(n) +
                           " exceeds payload");
    return n;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

  void require_done(const char* what) const {
    if (pos_ != bytes_.size())
      throw ProtoError(ErrorCode::kBadPayload,
                       std::string(what) + ": " +
                           std::to_string(bytes_.size() - pos_) +
                           " trailing payload bytes");
  }

 private:
  void need(std::size_t n) const {
    if (n > remaining())
      throw ProtoError(ErrorCode::kBadPayload, "payload truncated");
  }

  std::uint64_t le(int bytes) {
    need(static_cast<std::size_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Stamps the header's payload_size once the payload has been appended
/// after a kHeaderSize-byte placeholder.
std::string finish_frame(std::string frame, const FrameHeader& header) {
  FrameHeader h = header;
  h.payload_size = static_cast<std::uint32_t>(frame.size() - kHeaderSize);
  std::string head;
  head.reserve(kHeaderSize);
  encode_header(h, head);
  std::memcpy(frame.data(), head.data(), kHeaderSize);
  return frame;
}

std::string start_frame(FrameType type, std::uint64_t request_id) {
  (void)type;
  (void)request_id;
  return std::string(kHeaderSize, '\0');
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic: return "bad-magic";
    case ErrorCode::kBadVersion: return "bad-version";
    case ErrorCode::kOversizePayload: return "oversize-payload";
    case ErrorCode::kTruncated: return "truncated";
    case ErrorCode::kBadPayload: return "bad-payload";
    case ErrorCode::kUnknownType: return "unknown-type";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

void encode_header(const FrameHeader& header, std::string& out) {
  WireWriter w(out);
  w.u32(header.magic);
  w.u16(header.version);
  w.u16(static_cast<std::uint16_t>(header.type));
  w.u64(header.request_id);
  w.u32(header.payload_size);
  w.u32(header.reserved);
}

FrameHeader decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kHeaderSize)
    throw ProtoError(ErrorCode::kTruncated,
                     "header needs " + std::to_string(kHeaderSize) +
                         " bytes, got " + std::to_string(bytes.size()));
  WireReader r(bytes);
  FrameHeader h;
  h.magic = r.u32();
  if (h.magic != kMagic)
    throw ProtoError(ErrorCode::kBadMagic, "bad frame magic");
  h.version = r.u16();
  if (h.version != kProtoVersion)
    throw ProtoError(ErrorCode::kBadVersion,
                     "protocol version " + std::to_string(h.version) +
                         " (this build speaks " +
                         std::to_string(kProtoVersion) + ")");
  h.type = static_cast<FrameType>(r.u16());
  h.request_id = r.u64();
  h.payload_size = r.u32();
  h.reserved = r.u32();  // ignored on receive (forward compatibility)
  return h;
}

std::string encode_route_request(std::uint64_t request_id,
                                 const WireRouteRequest& request) {
  std::string frame = start_frame(FrameType::kRouteRequest, request_id);
  WireWriter w(frame);
  w.str(request.request.method);
  w.u32(static_cast<std::uint32_t>(request.request.params.size()));
  for (double p : request.request.params) w.f64(p);
  w.str(request.request.tag);
  w.u32(request.lambda);
  w.str(request.net.name);
  w.u32(static_cast<std::uint32_t>(request.net.pins.size()));
  for (const geom::Point& p : request.net.pins) {
    w.i64(p.x);
    w.i64(p.y);
  }
  return finish_frame(std::move(frame),
                      {.type = FrameType::kRouteRequest,
                       .request_id = request_id});
}

WireRouteRequest decode_route_request(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireRouteRequest req;
  req.request.method = r.str();
  const std::uint32_t nparams = r.count(kMaxParams, 8, "params");
  req.request.params.reserve(nparams);
  for (std::uint32_t i = 0; i < nparams; ++i)
    req.request.params.push_back(r.f64());
  req.request.tag = r.str();
  req.lambda = r.u32();
  req.net.name = r.str();
  const std::uint32_t npins = r.count(kMaxPins, 16, "pins");
  req.net.pins.reserve(npins);
  for (std::uint32_t i = 0; i < npins; ++i) {
    geom::Point p;
    p.x = r.i64();
    p.y = r.i64();
    if (std::max(p.x, p.y) > kMaxCoord || std::min(p.x, p.y) < -kMaxCoord)
      throw ProtoError(ErrorCode::kBadPayload, "pin coordinate beyond 2^36");
    req.net.pins.push_back(p);
  }
  r.require_done("route request");
  return req;
}

std::string encode_route_response(std::uint64_t request_id,
                                  const engine::RouteResponse& response,
                                  std::uint64_t wall_us) {
  std::string frame = start_frame(FrameType::kRouteResponse, request_id);
  WireWriter w(frame);
  w.u8(response.cache_hit ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(response.iterations));
  w.u64(wall_us);
  const std::span<const pareto::Objective> staircase = response.frontier;
  w.u32(static_cast<std::uint32_t>(staircase.size()));
  for (const pareto::Objective& s : staircase) {
    w.i64(s.w);
    w.i64(s.d);
  }
  return finish_frame(std::move(frame),
                      {.type = FrameType::kRouteResponse,
                       .request_id = request_id});
}

WireRouteResponse decode_route_response(
    std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireRouteResponse resp;
  resp.cache_hit = r.u8() != 0;
  resp.iterations = static_cast<std::int32_t>(r.u32());
  resp.wall_us = r.u64();
  const std::uint32_t n = r.count(kMaxFrontier, 16, "frontier");
  pareto::ObjVec points;
  points.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    pareto::Objective o;
    o.w = r.i64();
    o.d = r.i64();
    // The frontier travels as the staircase it left the engine as; a wire
    // peer that ships unsorted or dominated points is out of contract.
    if (!points.empty() && !(points.back().w < o.w && points.back().d > o.d))
      throw ProtoError(ErrorCode::kBadPayload,
                       "frontier is not a staircase at point " +
                           std::to_string(i));
    points.push_back(o);
  }
  r.require_done("route response");
  resp.frontier = pareto::SolutionSet::adopt_staircase(std::move(points));
  return resp;
}

std::string encode_error(std::uint64_t request_id, ErrorCode code,
                         const std::string& message) {
  std::string frame = start_frame(FrameType::kError, request_id);
  WireWriter w(frame);
  w.u32(static_cast<std::uint32_t>(code));
  w.str(message);
  return finish_frame(std::move(frame),
                      {.type = FrameType::kError, .request_id = request_id});
}

WireError decode_error(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireError e;
  e.code = static_cast<ErrorCode>(r.u32());
  e.message = r.str();
  r.require_done("error frame");
  return e;
}

std::string encode_empty(FrameType type, std::uint64_t request_id) {
  std::string frame = start_frame(type, request_id);
  return finish_frame(std::move(frame),
                      {.type = type, .request_id = request_id});
}

std::string encode_text(FrameType type, std::uint64_t request_id,
                        const std::string& text) {
  std::string frame = start_frame(type, request_id);
  WireWriter w(frame);
  w.str(text);
  return finish_frame(std::move(frame),
                      {.type = type, .request_id = request_id});
}

std::string decode_text(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  std::string s = r.str();
  r.require_done("text frame");
  return s;
}

namespace {

constexpr std::uint32_t kMaxClients = 1u << 16;

void write_stage(WireWriter& w, const WireStageStats& s) {
  w.u64(s.count);
  w.u64(s.p50_us);
  w.u64(s.p95_us);
  w.u64(s.p99_us);
}

WireStageStats read_stage(WireReader& r) {
  WireStageStats s;
  s.count = r.u64();
  s.p50_us = r.u64();
  s.p95_us = r.u64();
  s.p99_us = r.u64();
  return s;
}

}  // namespace

std::string encode_stats_response(std::uint64_t request_id,
                                  const WireStats& stats) {
  std::string frame = start_frame(FrameType::kStatsResponse, request_id);
  WireWriter w(frame);
  w.u64(stats.queue_depth);
  w.u64(stats.in_flight);
  w.u64(stats.connections);
  w.u64(stats.requests);
  w.u64(stats.responses);
  w.u64(stats.errors);
  w.u64(stats.batches);
  w.u64(stats.reloads);
  write_stage(w, stats.queue_wait);
  write_stage(w, stats.route);
  write_stage(w, stats.write);
  w.u32(static_cast<std::uint32_t>(stats.clients.size()));
  for (const WireClientStats& c : stats.clients) {
    w.str(c.tag);
    w.u64(c.requests);
    w.u64(c.bytes);
    w.u64(c.errors);
  }
  return finish_frame(std::move(frame),
                      {.type = FrameType::kStatsResponse,
                       .request_id = request_id});
}

WireStats decode_stats(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  WireStats s;
  s.queue_depth = r.u64();
  s.in_flight = r.u64();
  s.connections = r.u64();
  s.requests = r.u64();
  s.responses = r.u64();
  s.errors = r.u64();
  s.batches = r.u64();
  s.reloads = r.u64();
  s.queue_wait = read_stage(r);
  s.route = read_stage(r);
  s.write = read_stage(r);
  // Element floor: tag length prefix (4) + three u64 counters (24).
  const std::uint32_t n = r.count(kMaxClients, 28, "clients");
  s.clients.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WireClientStats c;
    c.tag = r.str();
    c.requests = r.u64();
    c.bytes = r.u64();
    c.errors = r.u64();
    s.clients.push_back(std::move(c));
  }
  r.require_done("stats response");
  return s;
}

}  // namespace patlabor::serve
