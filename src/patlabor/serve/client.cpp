#include "patlabor/serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <thread>

namespace patlabor::serve {

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("serve: socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw std::runtime_error(std::string("serve: socket(): ") +
                             std::strerror(errno));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve: connect(" + socket_path +
                             "): " + std::strerror(err));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_bytes(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: send(): ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

std::vector<std::uint8_t> Client::read_frame(FrameHeader& header) {
  const auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, dst + got, n - got, 0);
      if (r == 0)
        throw std::runtime_error(
            "serve: connection closed by daemon (mid-frame after " +
            std::to_string(got) + " bytes)");
      if (r < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("serve: recv(): ") +
                                 std::strerror(errno));
      }
      got += static_cast<std::size_t>(r);
    }
  };

  std::uint8_t head[kHeaderSize];
  read_exact(head, kHeaderSize);
  header = decode_header(std::span<const std::uint8_t>(head, kHeaderSize));
  std::vector<std::uint8_t> payload(header.payload_size);
  read_exact(payload.data(), payload.size());
  return payload;
}

std::vector<std::uint8_t> Client::await_reply(std::uint64_t id,
                                              FrameType expect) {
  for (;;) {
    FrameHeader header;
    std::vector<std::uint8_t> payload = read_frame(header);
    if (header.type == FrameType::kError) {
      const WireError err = decode_error(payload);
      // An error with id 0 is connection-scoped (bad magic/version): it
      // concerns every pending request on this socket.
      if (header.request_id == id || header.request_id == 0)
        throw ServeError(err.code, err.message);
      continue;  // stale error for an abandoned request
    }
    if (header.request_id != id) continue;  // out-of-order pipelined reply
    if (header.type != expect)
      throw std::runtime_error("serve: expected frame type " +
                               std::to_string(static_cast<unsigned>(expect)) +
                               ", got " +
                               std::to_string(
                                   static_cast<unsigned>(header.type)));
    return payload;
  }
}

std::uint64_t Client::send_route(const geom::Net& net,
                                 const engine::RouteRequest& request) {
  WireRouteRequest wire;
  wire.net = net;
  wire.request = request;
  if (wire.request.tag.empty()) wire.request.tag = tag_;
  const std::uint64_t id = next_id_++;
  send_bytes(encode_route_request(id, wire));
  return id;
}

std::pair<std::uint64_t, WireRouteResponse> Client::read_route_reply() {
  for (;;) {
    FrameHeader header;
    std::vector<std::uint8_t> payload = read_frame(header);
    if (header.type == FrameType::kError) {
      const WireError err = decode_error(payload);
      throw ServeError(err.code, err.message);
    }
    if (header.type != FrameType::kRouteResponse) continue;  // e.g. stale pong
    return {header.request_id, decode_route_response(payload)};
  }
}

std::vector<WireRouteResponse> Client::route_all(
    const std::vector<geom::Net>& nets, const engine::RouteRequest& request) {
  const std::uint64_t first = next_id_;  // ids are handed out in send order
  std::exception_ptr send_failure;
  std::thread sender([&] {
    try {
      for (const geom::Net& net : nets) send_route(net, request);
    } catch (...) {
      send_failure = std::current_exception();
    }
  });
  std::vector<WireRouteResponse> out(nets.size());
  std::vector<char> seen(nets.size(), 0);
  try {
    for (std::size_t got = 0; got < nets.size(); ++got) {
      auto [id, response] = read_route_reply();
      if (id < first || id - first >= nets.size() || seen[id - first] != 0)
        throw std::runtime_error("serve: daemon answered unknown request id " +
                                 std::to_string(id));
      seen[id - first] = 1;
      out[id - first] = std::move(response);
    }
  } catch (...) {
    ::shutdown(fd_, SHUT_RDWR);  // unblocks a sender the daemon stopped reading
    sender.join();
    throw;
  }
  sender.join();
  if (send_failure) std::rethrow_exception(send_failure);
  return out;
}

WireRouteResponse Client::route(const geom::Net& net,
                                const engine::RouteRequest& request) {
  const std::uint64_t id = send_route(net, request);
  return decode_route_response(await_reply(id, FrameType::kRouteResponse));
}

void Client::ping() {
  const std::uint64_t id = next_id_++;
  send_bytes(encode_empty(FrameType::kPing, id));
  (void)await_reply(id, FrameType::kPong);
}

std::string Client::metrics() {
  const std::uint64_t id = next_id_++;
  send_bytes(encode_empty(FrameType::kMetricsRequest, id));
  return decode_text(await_reply(id, FrameType::kMetricsResponse));
}

void Client::reload() {
  const std::uint64_t id = next_id_++;
  send_bytes(encode_empty(FrameType::kReloadRequest, id));
  (void)await_reply(id, FrameType::kReloadResponse);
}

WireStats Client::stats() {
  const std::uint64_t id = next_id_++;
  send_bytes(encode_empty(FrameType::kStatsRequest, id));
  return decode_stats(await_reply(id, FrameType::kStatsResponse));
}

}  // namespace patlabor::serve
