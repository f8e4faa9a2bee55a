// The service layer (src/patlabor/serve/): wire codec roundtrips, framing
// edge cases (truncation, oversize, version/type mismatches), the daemon
// contract — byte-identical responses to a direct Engine call, request-id
// echo under pipelining, concurrent interleaved clients, graceful drain,
// reload — and the observability surface: per-client tag attribution and
// daemon/direct parity of the event stream, the kStatsRequest wire frame,
// per-stage latency attribution against the client-observed wall, the
// flight recorder dump, and the SIGUSR1 metrics dump — and the I/O
// thread: frames split or packed arbitrarily across reads, mutated
// streams, a client that never reads, and idle connections.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "patlabor/engine/engine.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/obs/events.hpp"
#include "patlabor/obs/json.hpp"
#include "patlabor/obs/metrics.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/serve/client.hpp"
#include "patlabor/serve/proto.hpp"
#include "patlabor/serve/server.hpp"
#include "patlabor/util/rng.hpp"

namespace {

using namespace patlabor;

// ---- shared workload ------------------------------------------------------

const lut::LookupTable& shared_table() {
  static const lut::LookupTable table = lut::LookupTable::generate(4);
  return table;
}

std::vector<geom::Net> make_nets(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<geom::Net> nets;
  const std::size_t degrees[] = {4, 6, 9, 13};
  for (std::size_t i = 0; i < count; ++i) {
    geom::Net net = netgen::uniform_net(rng, degrees[i % 4]);
    net.name = "n" + std::to_string(i);
    nets.push_back(std::move(net));
  }
  return nets;
}

/// Unique short AF_UNIX path (sun_path is ~108 bytes; keep well under).
std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/pl_serve_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

serve::ServerOptions base_options() {
  serve::ServerOptions options;
  options.socket_path = fresh_socket_path();
  options.engine.lambda = 7;
  options.engine.table = &shared_table();
  options.engine.jobs = 2;
  return options;
}

/// Raw byte-level peer for framing edge cases the Client cannot produce.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t r =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(r, 0);
      sent += static_cast<std::size_t>(r);
    }
  }

  /// Reads exactly n bytes; returns fewer only on EOF.
  std::vector<std::uint8_t> read_up_to(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, out.data() + got, n - got, 0);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    out.resize(got);
    return out;
  }

  /// Reads one well-formed frame; fails the test on a short read.
  std::pair<serve::FrameHeader, std::vector<std::uint8_t>> read_frame() {
    auto head = read_up_to(serve::kHeaderSize);
    EXPECT_EQ(head.size(), serve::kHeaderSize);
    const serve::FrameHeader header = serve::decode_header(head);
    auto payload = read_up_to(header.payload_size);
    EXPECT_EQ(payload.size(), header.payload_size);
    return {header, payload};
  }

  bool at_eof() { return read_up_to(1).empty(); }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

std::span<const std::uint8_t> payload_of(const std::string& frame) {
  return {reinterpret_cast<const std::uint8_t*>(frame.data()) +
              serve::kHeaderSize,
          frame.size() - serve::kHeaderSize};
}

// ---- wire codec -----------------------------------------------------------

TEST(Proto, HeaderRoundtrip) {
  serve::FrameHeader h;
  h.type = serve::FrameType::kRouteRequest;
  h.request_id = 0x1122334455667788ull;
  h.payload_size = 41;
  std::string bytes;
  serve::encode_header(h, bytes);
  ASSERT_EQ(bytes.size(), serve::kHeaderSize);
  const serve::FrameHeader back = serve::decode_header(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  EXPECT_EQ(back.magic, serve::kMagic);
  EXPECT_EQ(back.version, serve::kProtoVersion);
  EXPECT_EQ(back.type, serve::FrameType::kRouteRequest);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.payload_size, 41u);
}

TEST(Proto, RouteRequestRoundtrip) {
  serve::WireRouteRequest req;
  req.net = make_nets(3, 1)[0];
  req.request.method = "salt";
  req.request.params = {0.5, 1.25};
  req.request.tag = "client-a";
  req.lambda = 7;
  const std::string frame = serve::encode_route_request(42, req);
  const serve::FrameHeader header = serve::decode_header(
      {reinterpret_cast<const std::uint8_t*>(frame.data()),
       serve::kHeaderSize});
  EXPECT_EQ(header.type, serve::FrameType::kRouteRequest);
  EXPECT_EQ(header.request_id, 42u);
  const serve::WireRouteRequest back =
      serve::decode_route_request(payload_of(frame));
  EXPECT_EQ(back.net.name, req.net.name);
  EXPECT_EQ(back.net.pins, req.net.pins);
  EXPECT_EQ(back.request.method, "salt");
  EXPECT_EQ(back.request.params, req.request.params);
  EXPECT_EQ(back.request.tag, "client-a");
  EXPECT_EQ(back.lambda, 7u);
}

TEST(Proto, RouteResponseRoundtripPreservesStaircase) {
  engine::EngineOptions opt;
  opt.table = &shared_table();
  opt.lambda = 7;
  const engine::Engine eng(opt);
  const engine::RouteResponse direct = eng.route(make_nets(5, 1)[0]);
  ASSERT_GT(direct.frontier.size(), 0u);

  const std::string frame = serve::encode_route_response(9, direct, 123);
  const serve::WireRouteResponse back =
      serve::decode_route_response(payload_of(frame));
  EXPECT_EQ(back.frontier, direct.frontier);
  EXPECT_EQ(back.iterations, direct.iterations);
  EXPECT_EQ(back.cache_hit, direct.cache_hit);
  EXPECT_EQ(back.wall_us, 123u);
}

TEST(Proto, DecodeRejectsNonStaircaseFrontier) {
  // A dominated second point violates the staircase contract.
  engine::RouteResponse r;
  pareto::ObjVec pts;
  pts.push_back({10, 50});
  pts.push_back({12, 40});
  r.frontier = pareto::SolutionSet::adopt_staircase(std::move(pts));
  std::string frame = serve::encode_route_response(1, r, 0);
  // Corrupt the second point's delay so it no longer descends (w=12,d=50).
  // Payload layout: u8 hit, u32 iters, u64 wall, u32 count, then (w,d) i64
  // pairs — the second pair's d is the last 8 bytes.
  const std::size_t d2 = frame.size() - 8;
  frame[d2] = 50;
  for (std::size_t i = 1; i < 8; ++i) frame[d2 + i] = 0;
  EXPECT_THROW(serve::decode_route_response(payload_of(frame)),
               serve::ProtoError);
}

TEST(Proto, DecodeRejectsTruncatedAndTrailingPayloads) {
  serve::WireRouteRequest req;
  req.net = make_nets(7, 1)[0];
  const std::string frame = serve::encode_route_request(1, req);
  const auto payload = payload_of(frame);
  // Every strict prefix must be rejected, never read out of bounds.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                payload.size() / 2, payload.size() - 1})
    EXPECT_THROW(serve::decode_route_request(payload.first(cut)),
                 serve::ProtoError)
        << "prefix of " << cut << " bytes";
  // Trailing garbage is out of contract too.
  std::vector<std::uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  EXPECT_THROW(serve::decode_route_request(padded), serve::ProtoError);
}

TEST(Proto, DecodeRejectsLyingCountField) {
  serve::WireRouteRequest req;
  req.net = make_nets(9, 1)[0];
  std::string frame = serve::encode_route_request(1, req);
  // The pin count is the u32 right after the net name; bump it far past
  // the bytes that follow.  (method "patlabor" str, 0 params, "" tag,
  // lambda, name str, count.)
  const std::size_t count_at = serve::kHeaderSize + (4 + 8) + 4 + (4 + 0) +
                               4 + (4 + req.net.name.size());
  frame[count_at + 3] = 0x7F;  // count |= 0x7F000000
  EXPECT_THROW(serve::decode_route_request(payload_of(frame)),
               serve::ProtoError);
}

TEST(Proto, ErrorAndTextRoundtrip) {
  const std::string frame =
      serve::encode_error(77, serve::ErrorCode::kBadRequest, "nope");
  const serve::WireError err = serve::decode_error(payload_of(frame));
  EXPECT_EQ(err.code, serve::ErrorCode::kBadRequest);
  EXPECT_EQ(err.message, "nope");

  const std::string text =
      serve::encode_text(serve::FrameType::kMetricsResponse, 5, "a\nb");
  EXPECT_EQ(serve::decode_text(payload_of(text)), "a\nb");
}

// ---- server: framing edge cases ------------------------------------------

TEST(ServeFraming, TruncatedFrameDropsConnectionWithoutReply) {
  serve::Server server(base_options());
  RawConn raw(server.socket_path());
  std::string junk(10, 'x');  // shorter than a header
  raw.send_all(junk);
  raw.shutdown_write();
  // Nothing to answer: the server closes without writing a frame.
  EXPECT_TRUE(raw.at_eof());
  server.stop();
  EXPECT_GE(server.stats().errors, 1u);
}

TEST(ServeFraming, OversizePayloadRefusedWithCleanErrorThenClose) {
  serve::ServerOptions options = base_options();
  options.max_payload = 1024;
  serve::Server server(options);
  RawConn raw(server.socket_path());
  serve::FrameHeader h;
  h.type = serve::FrameType::kRouteRequest;
  h.request_id = 31;
  h.payload_size = 4096;  // over the cap; body never sent
  std::string bytes;
  serve::encode_header(h, bytes);
  raw.send_all(bytes);
  auto [header, payload] = raw.read_frame();
  EXPECT_EQ(header.type, serve::FrameType::kError);
  EXPECT_EQ(header.request_id, 31u);  // echoed even on refusal
  EXPECT_EQ(serve::decode_error(payload).code,
            serve::ErrorCode::kOversizePayload);
  EXPECT_TRUE(raw.at_eof());
}

TEST(ServeFraming, UnknownVersionAnsweredWithServersVersionThenClose) {
  serve::Server server(base_options());
  RawConn raw(server.socket_path());
  std::string bytes;
  serve::encode_header({.request_id = 7}, bytes);
  bytes[4] = 99;  // version u16 at offset 4
  bytes[5] = 0;
  raw.send_all(bytes);
  auto [header, payload] = raw.read_frame();
  // The reply frame speaks the server's version — an old client always
  // learns what the server runs instead of hanging.
  EXPECT_EQ(header.version, serve::kProtoVersion);
  EXPECT_EQ(header.type, serve::FrameType::kError);
  EXPECT_EQ(serve::decode_error(payload).code, serve::ErrorCode::kBadVersion);
  EXPECT_TRUE(raw.at_eof());
}

TEST(ServeFraming, UnknownFrameTypeKeepsConnectionServing) {
  serve::Server server(base_options());
  RawConn raw(server.socket_path());
  raw.send_all(serve::encode_empty(static_cast<serve::FrameType>(999), 11));
  {
    auto [header, payload] = raw.read_frame();
    EXPECT_EQ(header.type, serve::FrameType::kError);
    EXPECT_EQ(header.request_id, 11u);
    EXPECT_EQ(serve::decode_error(payload).code,
              serve::ErrorCode::kUnknownType);
  }
  // Framing stayed in sync: a ping on the same connection still works.
  raw.send_all(serve::encode_empty(serve::FrameType::kPing, 12));
  auto [header, payload] = raw.read_frame();
  EXPECT_EQ(header.type, serve::FrameType::kPong);
  EXPECT_EQ(header.request_id, 12u);
}

TEST(ServeFraming, MalformedPayloadAnsweredPerRequestConnectionSurvives) {
  serve::Server server(base_options());
  RawConn raw(server.socket_path());
  serve::FrameHeader h;
  h.type = serve::FrameType::kRouteRequest;
  h.request_id = 21;
  h.payload_size = 4;
  std::string bytes;
  serve::encode_header(h, bytes);
  bytes += std::string(4, '\xff');  // method length 0xffffffff: over cap
  raw.send_all(bytes);
  auto [header, payload] = raw.read_frame();
  EXPECT_EQ(header.type, serve::FrameType::kError);
  EXPECT_EQ(header.request_id, 21u);
  EXPECT_EQ(serve::decode_error(payload).code, serve::ErrorCode::kBadPayload);
  raw.send_all(serve::encode_empty(serve::FrameType::kPing, 22));
  EXPECT_EQ(raw.read_frame().first.type, serve::FrameType::kPong);
}

/// A route reply re-encoded at wall 0: comparable byte for byte with a
/// direct Engine response encoded the same way.
std::string reencode(std::uint64_t id, std::span<const std::uint8_t> payload) {
  const serve::WireRouteResponse r = serve::decode_route_response(payload);
  engine::RouteResponse local;
  local.frontier = r.frontier;
  local.iterations = r.iterations;
  local.cache_hit = r.cache_hit;
  return serve::encode_route_response(id, local, 0);
}

TEST(ServeFraming, FramesSplitByteWiseOrPackedInOneSendAnsweredLikeDirect) {
  serve::ServerOptions options = base_options();
  options.engine.cache.enabled = false;  // answers independent of order
  serve::Server server(options);
  const engine::Engine direct(options.engine);
  const std::vector<geom::Net> nets = make_nets(79, 201);
  const auto expect = [&](std::uint64_t id) {
    return serve::encode_route_response(id, direct.route(nets[id - 1]), 0);
  };

  {  // one route frame, one byte per send()
    RawConn raw(server.socket_path());
    serve::WireRouteRequest req;
    req.net = nets[0];
    for (const char byte : serve::encode_route_request(1, req))
      raw.send_all(std::string(1, byte));
    auto [header, payload] = raw.read_frame();
    ASSERT_EQ(header.type, serve::FrameType::kRouteResponse);
    EXPECT_EQ(reencode(header.request_id, payload), expect(1));
  }

  RawConn raw(server.socket_path());  // 200 frames in a single send()
  std::string stream;
  for (std::uint64_t id = 2; id <= nets.size(); ++id) {
    serve::WireRouteRequest req;
    req.net = nets[id - 1];
    stream += serve::encode_route_request(id, req);
  }
  ASSERT_EQ(::send(raw.fd(), stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(stream.size()));
  std::set<std::uint64_t> answered;
  for (std::size_t i = 1; i < nets.size(); ++i) {
    auto [header, payload] = raw.read_frame();
    ASSERT_EQ(header.type, serve::FrameType::kRouteResponse);
    EXPECT_EQ(reencode(header.request_id, payload), expect(header.request_id))
        << header.request_id;
    answered.insert(header.request_id);
  }
  EXPECT_EQ(answered.size(), nets.size() - 1);
}

TEST(ServeFraming, MutatedStreamsAreAnsweredOrClosed) {
  // Flip, truncate and splice valid frame streams: for every stream the
  // server answers what it can and closes the connection, and it keeps
  // serving everyone else.
  serve::Server server(base_options());
  const std::vector<geom::Net> nets = make_nets(83, 3);
  std::string valid;
  for (std::uint64_t i = 0; i < nets.size(); ++i) {
    serve::WireRouteRequest req;
    req.net = nets[i];
    req.request.tag = "fuzz";
    valid += serve::encode_route_request(2 * i + 1, req);
    valid += serve::encode_empty(i == 1 ? serve::FrameType::kStatsRequest
                                        : serve::FrameType::kPing,
                                 2 * i + 2);
  }
  util::Rng rng(2027);
  const auto cut = [&] { return rng.index(valid.size() + 1); };
  for (int s = 0; s < 300; ++s) {
    std::string stream = valid;
    if (s % 3 == 0) {
      for (std::size_t k = 1 + rng.index(4); k > 0; --k)
        stream[rng.index(stream.size())] ^=
            static_cast<char>(1 + rng.index(255));
    } else if (s % 3 == 1) {
      stream.resize(cut());
    } else {
      stream = valid.substr(0, cut()) + valid.substr(cut());
    }
    RawConn raw(server.socket_path());
    raw.send_all(stream);
    raw.shutdown_write();
    while (raw.read_up_to(4096).size() == 4096) {
    }
  }
  serve::Client good(server.socket_path());
  engine::EngineOptions eopt = base_options().engine;
  EXPECT_EQ(good.route(nets[0], {}).frontier,
            engine::Engine(eopt).route(nets[0]).frontier);
}

// ---- server: admission validation ----------------------------------------

TEST(ServeAdmission, BadMethodLambdaMismatchAndDegenerateNetRefused) {
  serve::Server server(base_options());
  serve::Client client(server.socket_path());
  const geom::Net net = make_nets(11, 1)[0];

  engine::RouteRequest bad_method;
  bad_method.method = "no-such-router";
  EXPECT_THROW(
      {
        try {
          client.route(net, bad_method);
        } catch (const serve::ServeError& e) {
          EXPECT_EQ(e.code, serve::ErrorCode::kBadRequest);
          // The same diagnostic the CLI prints for an unknown --method.
          EXPECT_NE(std::string(e.what()).find(
                        "unknown method 'no-such-router' (valid: patlabor pd "
                        "pdii salt ysd rsmt rsma)"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      serve::ServeError);

  serve::WireRouteRequest pinned;
  pinned.net = net;
  pinned.lambda = 5;  // server runs 7
  RawConn raw(server.socket_path());
  raw.send_all(serve::encode_route_request(2, pinned));
  EXPECT_EQ(serve::decode_error(raw.read_frame().second).code,
            serve::ErrorCode::kBadRequest);

  geom::Net degenerate;
  degenerate.pins = {{0, 0}};
  EXPECT_THROW(client.route(degenerate, {}), serve::ServeError);

  // Coordinates whose sums could overflow the router's int64 lengths.
  geom::Net far = net;
  far.pins.back().x = std::int64_t{1} << 60;
  EXPECT_THROW(client.route(far, {}), serve::ServeError);

  // The connection survived all four refusals.
  engine::EngineOptions eopt;
  eopt.lambda = 7;
  eopt.table = &shared_table();
  EXPECT_EQ(client.route(net, {}).frontier,
            engine::Engine(eopt).route(net).frontier);
}

// ---- server: the routing contract ----------------------------------------

TEST(Serve, ResponsesByteIdenticalToDirectEngine) {
  // The acceptance bar: for every net, cache on and off, the daemon's
  // response payload re-encoded at wall=0 equals the direct Engine
  // response encoded at wall=0 — byte-level, not just value-level.
  const std::vector<geom::Net> nets = make_nets(17, 8);
  for (const bool cache_on : {true, false}) {
    serve::ServerOptions options = base_options();
    options.engine.cache.enabled = cache_on;
    serve::Server server(options);
    serve::Client client(server.socket_path());

    engine::EngineOptions eopt = options.engine;
    const engine::Engine direct(eopt);

    for (const geom::Net& net : nets) {
      const serve::WireRouteResponse remote = client.route(net, {});
      const engine::RouteResponse local = direct.route(net);
      engine::RouteResponse remote_as_local;
      remote_as_local.frontier = remote.frontier;
      remote_as_local.iterations = remote.iterations;
      remote_as_local.cache_hit = remote.cache_hit;
      EXPECT_EQ(serve::encode_route_response(1, remote_as_local, 0),
                serve::encode_route_response(1, local, 0))
          << net.name << " cache=" << cache_on;
    }
    server.stop();
  }
}

TEST(Serve, RequestIdsEchoedUnderPipelining) {
  serve::Server server(base_options());
  serve::Client client(server.socket_path());
  const std::vector<geom::Net> nets = make_nets(23, 12);

  std::vector<std::uint64_t> sent;
  for (const geom::Net& net : nets) sent.push_back(client.send_route(net, {}));
  std::vector<std::uint64_t> received;
  for (std::size_t i = 0; i < nets.size(); ++i)
    received.push_back(client.read_route_reply().first);

  // Every id comes back exactly once (order may differ: batching).
  std::sort(sent.begin(), sent.end());
  std::sort(received.begin(), received.end());
  EXPECT_EQ(sent, received);
}

TEST(Serve, ConcurrentInterleavedClientsEachGetTheirOwnAnswers) {
  serve::Server server(base_options());
  engine::EngineOptions eopt = base_options().engine;
  const engine::Engine direct(eopt);

  const std::vector<geom::Net> nets = make_nets(29, 12);
  std::vector<pareto::SolutionSet> expected;
  for (const geom::Net& net : nets) expected.push_back(direct.route(net).frontier);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client(server.socket_path());
      // Each client pipelines the nets in its own shuffled order, so the
      // admission queue interleaves all four clients' jobs into shared
      // batches.
      std::vector<std::size_t> order(nets.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      util::Rng rng(100 + static_cast<std::uint64_t>(c));
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

      std::map<std::uint64_t, std::size_t> id_to_net;
      for (const std::size_t n : order)
        id_to_net[client.send_route(nets[n], {})] = n;
      for (std::size_t i = 0; i < order.size(); ++i) {
        auto [id, response] = client.read_route_reply();
        const auto it = id_to_net.find(id);
        if (it == id_to_net.end() ||
            !(response.frontier == expected[it->second])) {
          failures.fetch_add(1);
          continue;
        }
        id_to_net.erase(it);
      }
      if (!id_to_net.empty()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().requests, nets.size() * kClients);
  // A client can observe its last reply a beat before the dispatcher
  // bumps the response counter; give the stat a moment to settle.
  for (int i = 0; i < 100 && server.stats().responses < nets.size() * kClients;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.stats().responses, nets.size() * kClients);
}

TEST(Serve, DrainAnswersEveryInFlightRequest) {
  serve::Server server(base_options());
  serve::Client client(server.socket_path());
  const std::vector<geom::Net> nets = make_nets(31, 10);

  for (const geom::Net& net : nets) client.send_route(net, {});
  server.begin_drain();  // races the sends: everything accepted is owed
  std::size_t answered = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    auto [id, response] = client.read_route_reply();
    EXPECT_GT(response.frontier.size(), 0u);
    ++answered;
  }
  EXPECT_EQ(answered, nets.size());
  server.stop();
  EXPECT_EQ(server.stats().responses, nets.size());
}

TEST(Serve, ReloadSwapsEngineBetweenBatchesWithoutChangingAnswers) {
  // Reload needs a lut_path (the reloadable configuration).
  const std::string lut_file =
      "/tmp/pl_serve_test_lut_" + std::to_string(::getpid()) + ".bin";
  shared_table().save(lut_file);
  serve::ServerOptions options = base_options();
  options.engine.table = nullptr;
  options.lut_path = lut_file;
  serve::Server server(options);
  serve::Client client(server.socket_path());

  const geom::Net net = make_nets(37, 1)[0];
  const serve::WireRouteResponse before = client.route(net, {});
  client.reload();
  // The swap happens between batches on the dispatcher; wait for it.
  for (int i = 0; i < 200 && server.stats().reloads == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.stats().reloads, 1u);
  const serve::WireRouteResponse after = client.route(net, {});
  EXPECT_EQ(before.frontier, after.frontier);
  server.stop();
  std::remove(lut_file.c_str());
}

TEST(Serve, PerClientTagsLandInTheEventStream) {
  const std::string events_file =
      "/tmp/pl_serve_test_events_" + std::to_string(::getpid()) + ".jsonl";
  obs::EventSink sink(events_file, {.deterministic = true});
  serve::ServerOptions options = base_options();
  options.engine.events = &sink;
  {
    serve::Server server(options);
    const std::vector<geom::Net> nets = make_nets(41, 3);
    serve::Client alice(server.socket_path());
    alice.set_tag("alice");
    serve::Client anon(server.socket_path());
    for (const geom::Net& net : nets) {
      alice.route(net, {});
      anon.route(net, {});
    }
    server.stop();
  }
  sink.flush();

  std::ifstream in(events_file);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string contents = buf.str();
  // Explicit client tags pass through; untagged clients are attributed by
  // connection id.
  EXPECT_NE(contents.find("\"tag\":\"alice\""), std::string::npos);
  EXPECT_NE(contents.find("\"tag\":\"c1\""), std::string::npos);
  std::remove(events_file.c_str());
}

TEST(Serve, StalePathReboundAndUnlinkedOnStop) {
  serve::ServerOptions options = base_options();
  {
    serve::Server first(options);
    first.stop();
  }
  // A crashed daemon leaves a stale socket file; a new one must rebind.
  // (stop() unlinks, so recreate the stale file by hand.)
  {
    std::ofstream stale(options.socket_path);
  }
  serve::Server second(options);
  serve::Client client(second.socket_path());
  client.ping();
  second.stop();
  EXPECT_NE(::access(options.socket_path.c_str(), F_OK), 0);
}

TEST(Serve, SlowReaderDoesNotStallOthers) {
  // A client pipelines requests and reads none.  Its replies pile up in
  // its own outbox until the server stops reading it; everyone else is
  // still served, and stop() does not wait for it to read.
  serve::Server server(base_options());
  // The degree-5 net with the most frontier points of a few hundred: big
  // replies fill the outbox fast.
  engine::EngineOptions eopt = base_options().engine;
  const engine::Engine direct(eopt);
  util::Rng rng(5);
  geom::Net net = netgen::clustered_net(rng, 5);
  for (int i = 0; i < 600; ++i) {
    geom::Net other = netgen::clustered_net(rng, 5);
    if (direct.route(other).frontier.size() > direct.route(net).frontier.size())
      net = std::move(other);
  }
  const std::size_t reply =
      serve::encode_route_response(0, direct.route(net), 0).size();

  // The first kFirst replies come to 3 MiB, over the 2 MiB outbox cap even
  // after the kernel's socket buffer took its share.  The last 10,000
  // requests go out once those are answered (or never, if the cap already
  // stopped the reading), so they meet a connection nobody reads.
  const std::size_t kFirst =
      std::max<std::size_t>(20000, (std::size_t{3} << 20) / reply + 1);
  const std::size_t kFlood = kFirst + 10000;
  serve::Client bad(server.socket_path());
  std::atomic<bool> stopping{false};
  std::thread flood([&] {
    try {
      for (std::size_t i = 0; i < kFlood; ++i) {
        while (i == kFirst && !stopping.load() &&
               server.stats().responses < kFirst)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        bad.send_route(net, {});
      }
    } catch (const std::exception&) {
      // stop() closed the connection under a blocked send.
    }
  });
  // Settled: no request admitted and none in flight for 200 ms.
  std::uint64_t admitted = 0;
  for (int quiet = 0, spin = 0; quiet < 20 && spin < 3000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const serve::Server::Stats s = server.stats();
    quiet = s.requests == admitted && s.in_flight == 0 ? quiet + 1 : 0;
    admitted = s.requests;
  }
  EXPECT_LT(admitted, kFlood);  // backpressure: the rest was never read

  serve::Client good(server.socket_path());
  const std::vector<geom::Net> nets = make_nets(89, 4);
  std::vector<double> ms;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const serve::WireRouteResponse r = good.route(nets[i % nets.size()], {});
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    EXPECT_GT(r.frontier.size(), 0u);
  }
  std::sort(ms.begin(), ms.end());
  EXPECT_LT(ms[197], 250.0) << "p99 of the good client's round trips";

  const auto t0 = std::chrono::steady_clock::now();
  stopping = true;
  server.stop();  // the bad client still holds its connection
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  flood.join();
}

TEST(Serve, IdleConnectionsAddNoThreads) {
  const auto threads = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  serve::Server server(base_options());
  serve::Client probe(server.socket_path());
  probe.ping();
  const auto before = threads();
  std::vector<std::unique_ptr<RawConn>> idle;
  for (int i = 0; i < 64; ++i)
    idle.push_back(std::make_unique<RawConn>(server.socket_path()));
  for (int i = 0; i < 2000 && server.stats().connections < 65; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.stats().connections, 65u);
  EXPECT_EQ(threads(), before);
  probe.ping();
}

// ---- service observability ------------------------------------------------

TEST(Proto, StatsRoundtrip) {
  serve::WireStats s;
  s.queue_depth = 3;
  s.in_flight = 5;
  s.connections = 2;
  s.requests = 100;
  s.responses = 95;
  s.errors = 1;
  s.batches = 40;
  s.reloads = 2;
  s.queue_wait = {.count = 95, .p50_us = 120, .p95_us = 900, .p99_us = 2500};
  s.route = {.count = 95, .p50_us = 3000, .p95_us = 9000, .p99_us = 12000};
  s.write = {.count = 95, .p50_us = 15, .p95_us = 40, .p99_us = 80};
  s.clients.push_back({.tag = "alice", .requests = 60, .bytes = 4096,
                       .errors = 0});
  s.clients.push_back({.tag = "c1", .requests = 40, .bytes = 2048,
                       .errors = 1});
  const std::string frame = serve::encode_stats_response(9, s);
  const serve::FrameHeader header = serve::decode_header(
      {reinterpret_cast<const std::uint8_t*>(frame.data()),
       serve::kHeaderSize});
  EXPECT_EQ(header.type, serve::FrameType::kStatsResponse);
  EXPECT_EQ(header.request_id, 9u);
  const serve::WireStats back = serve::decode_stats(payload_of(frame));
  EXPECT_EQ(back.queue_depth, 3u);
  EXPECT_EQ(back.in_flight, 5u);
  EXPECT_EQ(back.requests, 100u);
  EXPECT_EQ(back.reloads, 2u);
  EXPECT_EQ(back.queue_wait.p99_us, 2500u);
  EXPECT_EQ(back.route.p50_us, 3000u);
  EXPECT_EQ(back.write.count, 95u);
  ASSERT_EQ(back.clients.size(), 2u);
  EXPECT_EQ(back.clients[0].tag, "alice");
  EXPECT_EQ(back.clients[0].bytes, 4096u);
  EXPECT_EQ(back.clients[1].tag, "c1");
  EXPECT_EQ(back.clients[1].errors, 1u);
  // Truncation is rejected like every other payload.
  const auto payload = payload_of(frame);
  EXPECT_THROW(serve::decode_stats(payload.first(payload.size() - 1)),
               serve::ProtoError);
}

TEST(ServeObs, StatsFrameReportsTotalsStagesAndClients) {
  obs::set_enabled(true);
  serve::Server server(base_options());
  serve::Client alice(server.socket_path());
  alice.set_tag("alice");
  serve::Client anon(server.socket_path());
  const std::vector<geom::Net> nets = make_nets(43, 4);
  for (const geom::Net& net : nets) {
    alice.route(net, {});
    anon.route(net, {});
  }
  const std::uint64_t expect = 2 * nets.size();
  // The dispatcher bumps responses/in-flight a beat after the client reads
  // its last reply; poll until the totals settle.
  serve::WireStats stats = alice.stats();
  for (int i = 0;
       i < 200 && (stats.responses < expect || stats.in_flight != 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = alice.stats();
  }
  EXPECT_EQ(stats.requests, expect);
  EXPECT_EQ(stats.responses, expect);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.connections, 2u);
  // Tagged client under its tag, untagged under its connection id; the
  // wire list is sorted by tag.
  ASSERT_EQ(stats.clients.size(), 2u);
  EXPECT_EQ(stats.clients[0].tag, "alice");
  EXPECT_EQ(stats.clients[0].requests, nets.size());
  EXPECT_GT(stats.clients[0].bytes, 0u);
  EXPECT_EQ(stats.clients[0].errors, 0u);
  EXPECT_EQ(stats.clients[1].tag, "c1");
  EXPECT_EQ(stats.clients[1].requests, nets.size());
  // Stage histograms are process-global: this server contributed at least
  // its own samples.
  EXPECT_GE(stats.queue_wait.count, expect);
  EXPECT_GE(stats.route.count, expect);
  EXPECT_GE(stats.write.count, expect);
  EXPECT_GE(stats.route.p99_us, stats.route.p50_us);
  server.stop();
}

TEST(ServeObs, ClientFamiliesAreBounded) {
  // Every short-lived untagged connection is a new "c<conn>" tag; past
  // kMaxClientEntries they all fold into the one overflow entry.
  obs::set_enabled(true);
  constexpr std::size_t kMax = serve::Server::kMaxClientEntries;
  constexpr std::size_t kExtra = 50;
  auto client_families = [] {
    std::set<std::string> families;
    for (const auto& [name, value] :
         obs::StatsRegistry::instance().snapshot().counters)
      if (name.starts_with("serve.client") && name.ends_with(".requests"))
        families.insert(name);
    return families;
  };
  const std::set<std::string> before = client_families();
  serve::Server server(base_options());
  const geom::Net net = make_nets(47, 1)[0];
  for (std::size_t i = 0; i < kMax + kExtra; ++i) {
    serve::Client client(server.socket_path());
    client.route(net, {});
  }
  const serve::WireStats stats = serve::Client(server.socket_path()).stats();
  ASSERT_EQ(stats.clients.size(), kMax + 1);
  EXPECT_EQ(stats.clients[0].tag, "");  // the overflow entry sorts first
  EXPECT_EQ(stats.clients[0].requests, kExtra);
  for (std::size_t i = 1; i <= kMax; ++i)
    EXPECT_EQ(stats.clients[i].requests, 1u) << stats.clients[i].tag;
  std::size_t added = 0;
  for (const std::string& name : client_families())
    added += before.count(name) == 0 ? 1 : 0;
  EXPECT_LE(added, kMax + 1);
  EXPECT_EQ(client_families().count("serve.client_overflow.requests"), 1u);
  server.stop();
}

TEST(ServeObs, Sigusr1DumpsMetricsWithServeFamilies) {
  obs::set_enabled(true);
  serve::Server server(base_options());
  serve::Client client(server.socket_path());
  for (const geom::Net& net : make_nets(61, 3)) client.route(net, {});

  const std::string prom_file =
      "/tmp/pl_serve_test_metrics_" + std::to_string(::getpid()) + ".prom";
  obs::MetricsExporterOptions mopt;
  mopt.path = prom_file;
  // Long interval: any dump observed below is the signal's, not the timer's.
  mopt.interval = std::chrono::milliseconds(60000);
  mopt.dump_on_signal = true;
  obs::MetricsExporter exporter(std::move(mopt));
  const std::size_t before = exporter.dumps();
  ASSERT_EQ(::kill(::getpid(), SIGUSR1), 0);
  for (int i = 0; i < 2000 && exporter.dumps() == before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GT(exporter.dumps(), before);

  // The dump is atomic (tmp + rename): the file is always a complete
  // exposition, never a partial write.
  std::ifstream in(prom_file);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("# TYPE patlabor_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("patlabor_serve_responses"), std::string::npos);
  EXPECT_NE(text.find("patlabor_serve_queue_wait_us"), std::string::npos);
  EXPECT_NE(text.find("patlabor_serve_route_us"), std::string::npos);
  EXPECT_NE(text.find("patlabor_serve_write_us"), std::string::npos);
  exporter.stop();
  server.stop();
  std::remove(prom_file.c_str());
}

/// Drops the optional `,"tag":"..."` field from a JSONL event line.
std::string strip_tag(std::string line) {
  const std::size_t pos = line.find(",\"tag\":\"");
  if (pos == std::string::npos) return line;
  const std::size_t close = line.find('"', pos + 8);
  EXPECT_NE(close, std::string::npos);
  line.erase(pos, close - pos + 1);
  return line;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ServeObs, DeterministicDaemonEventsMatchDirectEngineModuloTags) {
  const std::string suffix = std::to_string(::getpid()) + ".jsonl";
  const std::string direct_file = "/tmp/pl_serve_test_direct_" + suffix;
  const std::string daemon_file = "/tmp/pl_serve_test_daemon_" + suffix;
  const std::vector<geom::Net> nets = make_nets(47, 6);

  {
    obs::EventSink sink(direct_file, {.deterministic = true});
    engine::EngineOptions eopt = base_options().engine;
    eopt.events = &sink;
    const engine::Engine direct(eopt);
    const std::vector<engine::RouteRequest> requests(nets.size());
    direct.route_batch(nets, requests);
    sink.flush();
  }
  {
    obs::EventSink sink(daemon_file, {.deterministic = true});
    serve::ServerOptions options = base_options();
    options.engine.events = &sink;
    serve::Server server(options);
    serve::Client alice(server.socket_path());
    alice.set_tag("alice");
    serve::Client bob(server.socket_path());
    // Synchronous alternating routes: admission order equals net order, so
    // the sink stamps the same 0..N-1 index sequence as the direct batch.
    for (std::size_t i = 0; i < nets.size(); ++i)
      (i % 2 == 0 ? alice : bob).route(nets[i], {});
    server.stop();
    sink.flush();
  }

  const std::vector<std::string> direct_lines = read_lines(direct_file);
  const std::vector<std::string> daemon_lines = read_lines(daemon_file);
  ASSERT_EQ(direct_lines.size(), nets.size());
  ASSERT_EQ(daemon_lines.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    // The daemon attributes every record to a client...
    const char* expect_tag = (i % 2 == 0) ? "\"tag\":\"alice\"" : "\"tag\":\"c1\"";
    EXPECT_NE(daemon_lines[i].find(expect_tag), std::string::npos) << i;
    // ...and in deterministic mode omits the scheduling-dependent service
    // fields entirely, so stripping the tag restores the direct bytes.
    EXPECT_EQ(daemon_lines[i].find("queue_wait_us"), std::string::npos) << i;
    EXPECT_EQ(strip_tag(daemon_lines[i]), direct_lines[i]) << i;
  }
  std::remove(direct_file.c_str());
  std::remove(daemon_file.c_str());
}

TEST(ServeObs, NonDeterministicEventsCarryServeLifecycleFields) {
  // Telemetry off: the lifecycle stamps the events need are taken anyway.
  obs::set_enabled(false);
  const std::string events_file = "/tmp/pl_serve_test_lifecycle_" +
                                  std::to_string(::getpid()) + ".jsonl";
  {
    obs::EventSink sink(events_file, {});
    serve::ServerOptions options = base_options();
    options.engine.events = &sink;
    serve::Server server(options);
    serve::Client client(server.socket_path());
    for (const geom::Net& net : make_nets(67, 3)) client.route(net, {});
    server.stop();
    sink.flush();
  }
  for (const std::string& line : read_lines(events_file)) {
    EXPECT_NE(line.find("\"queue_wait_us\":"), std::string::npos);
    EXPECT_NE(line.find("\"batch_id\":"), std::string::npos);
    EXPECT_NE(line.find("\"batch_size\":"), std::string::npos);
    EXPECT_NE(line.find("\"write_us\":"), std::string::npos);
    EXPECT_NE(line.find("\"wall_us\":"), std::string::npos);
    // Synchronous client: every batch holds exactly one job, ids from 1.
    EXPECT_NE(line.find("\"batch_size\":1"), std::string::npos);
    EXPECT_EQ(line.find("\"batch_id\":0"), std::string::npos);
  }
  EXPECT_EQ(read_lines(events_file).size(), 3u);
  std::remove(events_file.c_str());
}

TEST(ServeObs, StageSumsMatchLifetimeAndBoundClientObservedWall) {
  obs::set_enabled(true);
  serve::Server server(base_options());
  serve::Client client(server.socket_path());
  const std::vector<geom::Net> nets = make_nets(53, 4);
  std::vector<std::uint64_t> t0(nets.size()), t1(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const std::uint64_t id = i + 1;  // Client request ids count from 1
    t0[i] = obs::now_us();
    client.route(nets[i], {});
    // Close the wall only once the recorder shows the request completed:
    // the server stamps written_us after send() returns, which can race a
    // fast client read by a few microseconds.
    bool done = false;
    for (int spin = 0; spin < 2000 && !done; ++spin) {
      for (const auto& [trace, in_flight] : server.flight_snapshot())
        if (!in_flight && trace.request_id == id) done = true;
      if (!done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(done) << "request " << id << " never completed";
    t1[i] = obs::now_us();
  }

  std::size_t checked = 0;
  for (const auto& [trace, in_flight] : server.flight_snapshot()) {
    ASSERT_FALSE(in_flight);
    ASSERT_GE(trace.request_id, 1u);
    ASSERT_LE(trace.request_id, nets.size());
    const std::size_t i = static_cast<std::size_t>(trace.request_id) - 1;
    // The three stages tile the enqueue→written lifetime exactly...
    const std::uint64_t stages =
        trace.queue_wait_us() + trace.route_us() + trace.write_us();
    EXPECT_EQ(stages, trace.written_us - trace.enqueue_us) << i;
    // ...and that lifetime sits inside the client-observed wall.
    EXPECT_GE(trace.enqueue_us, t0[i]) << i;
    EXPECT_LE(stages, t1[i] - t0[i]) << i;
    EXPECT_GE(trace.enqueue_us, trace.read_us) << i;
    EXPECT_FALSE(trace.error) << i;
    ++checked;
  }
  EXPECT_EQ(checked, nets.size());
  server.stop();
}

TEST(ServeObs, FlightDumpCoversEveryAdmittedRequest) {
  obs::set_enabled(true);
  serve::ServerOptions options = base_options();
  options.flight_capacity = 64;
  serve::Server server(options);
  serve::Client client(server.socket_path());
  constexpr std::size_t kRequests = 12;
  for (const geom::Net& net : make_nets(59, kRequests))
    client.send_route(net, {});

  const std::string dump_file =
      "/tmp/pl_serve_test_flight_" + std::to_string(::getpid()) + ".jsonl";
  // Dump mid-load: wait until at least one request was admitted, then
  // snapshot while the pipeline races.
  for (int i = 0; i < 2000 && server.flight_snapshot().empty(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const auto mid = server.dump_flight(dump_file);
  EXPECT_GE(mid.in_flight + mid.completed, 1u);
  std::size_t in_flight_lines = 0;
  const std::vector<std::string> mid_lines = read_lines(dump_file);
  for (const std::string& line : mid_lines) {
    // Structural JSONL check: one complete object per line with the
    // request-trace schema.
    EXPECT_EQ(line.rfind("{\"type\":\"request\",", 0), 0u);
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"id\":"), std::string::npos);
    EXPECT_NE(line.find("\"in_flight\":"), std::string::npos);
    EXPECT_NE(line.find("\"queue_wait_us\":"), std::string::npos);
    if (line.find("\"in_flight\":true") != std::string::npos)
      ++in_flight_lines;
  }
  // The dump is taken under one lock: it holds exactly the in-flight set
  // plus the completed ring at that instant.
  EXPECT_EQ(mid_lines.size(), mid.in_flight + mid.completed);
  EXPECT_EQ(in_flight_lines, mid.in_flight);

  for (std::size_t i = 0; i < kRequests; ++i) client.read_route_reply();
  server.stop();
  // Every admitted request completed; the ring (capacity 64 > 12) retains
  // them all.
  const auto final_dump = server.dump_flight(dump_file);
  EXPECT_EQ(final_dump.in_flight, 0u);
  EXPECT_EQ(final_dump.completed, kRequests);
  const std::vector<std::string> final_lines = read_lines(dump_file);
  ASSERT_EQ(final_lines.size(), kRequests);
  for (std::size_t id = 1; id <= kRequests; ++id) {
    const std::string needle = "\"id\":" + std::to_string(id) + ",";
    bool found = false;
    for (const std::string& line : final_lines)
      if (line.find(needle) != std::string::npos) found = true;
    EXPECT_TRUE(found) << "request " << id << " missing from final dump";
  }
  std::remove(dump_file.c_str());
}

TEST(ServeObs, FlightDumpKeepsEveryTagCharacter) {
  obs::set_enabled(true);
  serve::Server server(base_options());
  serve::Client client(server.socket_path());
  // Tags are client-chosen bytes: quotes, backslashes and control
  // characters must survive the dump's JSON encoding.
  const std::string tag = "a\"b\\c\n\x01";
  engine::RouteRequest request;
  request.tag = tag;
  client.route(make_nets(83, 1)[0], request);
  server.stop();

  const std::string dump_file =
      "/tmp/pl_serve_test_tag_" + std::to_string(::getpid()) + ".jsonl";
  server.dump_flight(dump_file);
  const std::vector<std::string> lines = read_lines(dump_file);
  std::remove(dump_file.c_str());
  ASSERT_EQ(lines.size(), 1u);
  const std::optional<obs::json::Value> record = obs::json::parse(lines[0]);
  ASSERT_TRUE(record.has_value()) << lines[0];
  const obs::json::Value* got = record->find("tag");
  ASSERT_NE(got, nullptr) << lines[0];
  EXPECT_EQ(got->str, tag);
}

TEST(ServeObs, TelemetryOffRecordsNoFlightEntries) {
  obs::set_enabled(false);
  serve::Server server(base_options());
  serve::Client client(server.socket_path());
  constexpr std::size_t kRequests = 8;
  for (const geom::Net& net : make_nets(71, kRequests))
    client.route(net, {});
  // Every reply is in; the dispatcher has finished with each request.
  for (int i = 0; i < 200 && server.stats().in_flight != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server.stats().responses, kRequests);
  EXPECT_TRUE(server.flight_snapshot().empty());
  server.stop();
  EXPECT_TRUE(server.flight_snapshot().empty());
}

}  // namespace
