#include "patlabor/serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "patlabor/lut/lut.hpp"
#include "patlabor/obs/events.hpp"
#include "patlabor/obs/metrics.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/trace.hpp"
#include "patlabor/util/timer.hpp"

namespace patlabor::serve {

namespace {

constexpr int kPollMs = 50;
/// Polls a reader waits for the rest of a partially-received frame after
/// drain began before giving the frame up as truncated (~2 s).
constexpr int kDrainGracePolls = 40;

/// Outcome of trying to read exactly n bytes from a connection.
enum class ReadResult {
  kOk,        ///< all n bytes read
  kEof,       ///< peer closed before the first byte (clean frame boundary)
  kTruncated, ///< peer closed (or drain grace expired) mid-read
  kStopped,   ///< hard stop / idle drain: no frame in progress, exit loop
};

}  // namespace

struct Server::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::mutex write_mu;
  /// Writes must stop: the peer hung up, a write failed, or a protocol
  /// error closed the connection.  NOT set on the drain exit — a reader
  /// that stops reading leaves the connection open for the dispatcher's
  /// in-flight responses.
  std::atomic<bool> dead{false};
  std::thread reader;
  /// Virtual Chrome-trace lane of this connection (obs::alloc_lane),
  /// allocated lazily on the first route request admitted with telemetry
  /// on; 0 = none yet.
  /// Written by the reader, read by the dispatcher: the admission queue
  /// push/pop pair orders the accesses.
  std::uint32_t lane = 0;
};

struct Server::Job {
  std::shared_ptr<Conn> conn;
  std::uint64_t request_id = 0;
  geom::Net net;
  engine::RouteRequest request;
  /// Timestamps always; identity fields only when `recorded`.
  RequestTrace trace;
  /// Telemetry was on at admission: the request is in the flight recorder
  /// and gets lane spans.  Decided once so start and complete pair up.
  bool recorded = false;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), flight_(options_.flight_capacity) {
  if (options_.socket_path.empty())
    throw std::runtime_error("serve: socket_path is required");

  // The server owns event emission (see ServerOptions::engine doc): take
  // the sink away from the engine so batches never double-emit.
  sink_ = options_.engine.events;
  options_.engine.events = nullptr;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("serve: socket path too long: " +
                             options_.socket_path);
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("serve: socket(): ") +
                             std::strerror(errno));
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("serve: bind(" + options_.socket_path +
                             "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
    throw std::runtime_error(std::string("serve: listen(): ") +
                             std::strerror(err));
  }

  engine_ = make_engine();  // throws on a bad lut_path before serving
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });

  // Crash forensics: chain a flight-recorder dump into obs::flush_all()
  // so a terminate/abort (whose handlers flush the event sinks) also
  // leaves the last-requests JSONL behind.  Unregistered in stop().
  if (!options_.flight_dump_path.empty()) {
    flush_hook_token_ = obs::add_flush_hook([this] {
      try {
        flight_.dump(options_.flight_dump_path);
      } catch (...) {
        // A failed dump must never turn a flush into a second crash.
      }
    });
  }
}

Server::~Server() { stop(); }

std::unique_ptr<engine::Engine> Server::make_engine() {
  auto eng = std::make_unique<engine::Engine>(options_.engine);
  // open() maps the table read-only: startup pays no deserialization, N
  // daemons share one physical copy, and a reload swaps to a fresh mapping
  // of the (possibly replaced) file while the old one lives until its last
  // in-flight batch drops it.
  if (!options_.lut_path.empty())
    eng->adopt_table(lut::LookupTable::open(options_.lut_path));
  return eng;
}

void Server::begin_drain() { draining_.store(true, std::memory_order_release); }

void Server::request_reload() {
  reload_requested_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections = stat_connections_.load(std::memory_order_relaxed);
  s.requests = stat_requests_.load(std::memory_order_relaxed);
  s.responses = stat_responses_.load(std::memory_order_relaxed);
  s.errors = stat_errors_.load(std::memory_order_relaxed);
  s.batches = stat_batches_.load(std::memory_order_relaxed);
  s.reloads = stat_reloads_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  return s;
}

namespace {

/// Quantile triple of one serve.* stage histogram; zeros when nothing was
/// recorded (recording disabled or no traffic yet).
WireStageStats stage_stats(const char* name) {
  WireStageStats out;
  const obs::Histogram::Summary s =
      obs::StatsRegistry::instance().histogram(name).summary();
  out.count = s.count;
  out.p50_us = static_cast<std::uint64_t>(obs::histogram_quantile(s, 0.50));
  out.p95_us = static_cast<std::uint64_t>(obs::histogram_quantile(s, 0.95));
  out.p99_us = static_cast<std::uint64_t>(obs::histogram_quantile(s, 0.99));
  return out;
}

}  // namespace

WireStats Server::wire_stats() const {
  WireStats s;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = queue_.size();
  }
  const Stats base = stats();
  s.in_flight = base.in_flight;
  s.connections = base.connections;
  s.requests = base.requests;
  s.responses = base.responses;
  s.errors = base.errors;
  s.batches = base.batches;
  s.reloads = base.reloads;
  s.queue_wait = stage_stats("serve.queue_wait_us");
  s.route = stage_stats("serve.route_us");
  s.write = stage_stats("serve.write_us");
  std::lock_guard<std::mutex> lock(clients_mu_);
  s.clients.reserve(clients_.size());
  for (const auto& [tag, c] : clients_) {  // std::map: sorted by tag
    WireClientStats w;
    w.tag = tag;
    w.requests = c.requests;
    w.bytes = c.bytes;
    w.errors = c.errors;
    s.clients.push_back(std::move(w));
  }
  return s;
}

FlightRecorder::DumpStats Server::dump_flight(const std::string& path) const {
  const std::string& target =
      path.empty() ? options_.flight_dump_path : path;
  if (target.empty())
    throw std::runtime_error(
        "serve: no flight dump path (pass one or set flight_dump_path)");
  return flight_.dump(target);
}

void Server::request_event_sink(obs::EventSink* sink) {
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    pending_sink_ = sink;
  }
  sink_swap_requested_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
}

void Server::note_client(const std::string& tag, std::uint64_t requests,
                         std::uint64_t bytes, std::uint64_t errors) {
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    auto it = clients_.find(tag);
    if (it == clients_.end()) {
      const std::size_t named = clients_.size() - clients_.count({});
      it = clients_.try_emplace(named < kMaxClientEntries ? tag
                                                          : std::string())
               .first;
    }
    overflow = it->first.empty();
    ClientCounters& c = it->second;
    c.requests += requests;
    c.bytes += bytes;
    c.errors += errors;
  }
  // Dynamic metric names (PL_COUNT caches a static handle, so it only
  // fits literal names): register through the registry directly.
  if (obs::enabled()) {
    obs::StatsRegistry& reg = obs::StatsRegistry::instance();
    const std::string base =
        overflow ? std::string("serve.client_overflow") : "serve.client." + tag;
    if (requests != 0) reg.counter(base + ".requests").add(requests);
    if (bytes != 0) reg.counter(base + ".bytes").add(bytes);
    if (errors != 0) reg.counter(base + ".errors").add(errors);
  }
}

void Server::stop() {
  if (stopped_) return;
  // Unhook the crash-dump first: after stop() the recorder outlives its
  // usefulness, and the hook must never outlive `this`.
  if (flush_hook_token_ != 0) {
    obs::remove_flush_hook(flush_hook_token_);
    flush_hook_token_ = 0;
  }
  begin_drain();

  if (accept_thread_.joinable()) accept_thread_.join();

  // Readers: consume what clients already sent, then exit (see
  // reader_loop's drain conditions).  Joining them freezes the queue.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_)
      if (conn->reader.joinable()) conn->reader.join();
  }

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    dispatcher_stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) close_conn(*conn);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  stopped_ = true;
}

void Server::accept_loop() {
  // Accepts one pending connection if there is one; true = keep going.
  const auto try_accept = [&]() -> bool {
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 0) <= 0) return false;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return errno == EINTR || errno == ECONNABORTED;
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    stat_connections_.fetch_add(1, std::memory_order_relaxed);
    PL_COUNT("serve.connections", 1);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn->id = next_conn_id_++;
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conns_.push_back(std::move(conn));
    return true;
  };

  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kPollMs);
    if (pr < 0 && errno != EINTR) return;
    if (pr > 0) try_accept();
  }
  // Drain: a client whose connect() already succeeded may still be sitting
  // in the listen backlog, indistinguishable (to it) from an accepted
  // connection — sweep the backlog so everything established before the
  // drain began is owed an answer, then stop accepting for good.
  while (try_accept()) {
  }
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  // Reads exactly n bytes.  `frame_started` selects the drain policy: an
  // idle connection exits as soon as the drain begins, a partially-read
  // frame gets a grace window to complete (the bytes are in flight).
  const auto read_exact = [&](std::uint8_t* dst, std::size_t n,
                              bool frame_started) -> ReadResult {
    std::size_t got = 0;
    int drain_polls = 0;
    while (got < n) {
      if (hard_stop_.load(std::memory_order_acquire))
        return got == 0 && !frame_started ? ReadResult::kStopped
                                          : ReadResult::kTruncated;
      pollfd pfd{conn->fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, kPollMs);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return ReadResult::kTruncated;
      }
      if (pr == 0) {
        if (!draining_.load(std::memory_order_acquire)) continue;
        if (got == 0 && !frame_started) return ReadResult::kStopped;
        if (++drain_polls >= kDrainGracePolls) return ReadResult::kTruncated;
        continue;
      }
      const ssize_t r = ::recv(conn->fd, dst + got, n - got, 0);
      if (r == 0)
        return got == 0 && !frame_started ? ReadResult::kEof
                                          : ReadResult::kTruncated;
      if (r < 0) {
        if (errno == EINTR) continue;
        return ReadResult::kTruncated;
      }
      got += static_cast<std::size_t>(r);
    }
    return ReadResult::kOk;
  };

  std::uint8_t head[kHeaderSize];
  std::vector<std::uint8_t> payload;
  for (;;) {
    const ReadResult hr = read_exact(head, kHeaderSize, false);
    if (hr == ReadResult::kStopped) return;  // drain: keep open for writes
    if (hr == ReadResult::kEof) {
      close_conn(*conn);  // clean hangup; drop any not-yet-written replies
      return;
    }
    if (hr == ReadResult::kTruncated) {
      // EOF mid-frame: nothing to answer (the peer is gone or out of
      // contract); count it and drop the connection.
      stat_errors_.fetch_add(1, std::memory_order_relaxed);
      PL_COUNT("serve.truncated_frames", 1);
      close_conn(*conn);
      return;
    }

    FrameHeader header;
    try {
      header = decode_header(std::span<const std::uint8_t>(head, kHeaderSize));
    } catch (const ProtoError& e) {
      // Bad magic / version: the stream cannot be resynchronized (or the
      // payload dialect is unknown) — answer once and close.
      send_error(*conn, 0, e.code, e.what());
      close_conn(*conn);
      return;
    }
    if (header.payload_size > options_.max_payload) {
      send_error(*conn, header.request_id, ErrorCode::kOversizePayload,
                 "payload of " + std::to_string(header.payload_size) +
                     " bytes exceeds cap of " +
                     std::to_string(options_.max_payload));
      close_conn(*conn);  // reading past the cap would be the attack
      return;
    }

    payload.resize(header.payload_size);
    if (read_exact(payload.data(), payload.size(), true) != ReadResult::kOk) {
      stat_errors_.fetch_add(1, std::memory_order_relaxed);
      PL_COUNT("serve.truncated_frames", 1);
      close_conn(*conn);
      return;
    }
    handle_frame(conn, header, payload);
    if (conn->dead.load(std::memory_order_acquire)) return;
  }
}

void Server::close_conn(Conn& conn) {
  // dead-before-close under the write mutex: a concurrent write_frame
  // either finishes on the open fd first or observes dead and skips.
  std::lock_guard<std::mutex> lock(conn.write_mu);
  conn.dead.store(true, std::memory_order_release);
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn_ptr,
                          const FrameHeader& header,
                          std::span<const std::uint8_t> payload) {
  Conn& conn = *conn_ptr;
  switch (header.type) {
    case FrameType::kPing:
      write_frame(conn, encode_empty(FrameType::kPong, header.request_id));
      return;
    case FrameType::kMetricsRequest: {
      const std::string text =
          obs::expose_text(obs::StatsRegistry::instance().snapshot());
      write_frame(conn, encode_text(FrameType::kMetricsResponse,
                                    header.request_id, text));
      return;
    }
    case FrameType::kReloadRequest:
      request_reload();
      write_frame(conn,
                  encode_empty(FrameType::kReloadResponse, header.request_id));
      return;
    case FrameType::kStatsRequest:
      write_frame(conn,
                  encode_stats_response(header.request_id, wire_stats()));
      return;
    case FrameType::kRouteRequest: {
      // Stamp "frame read complete" before decode: the wire cost of the
      // request is part of its lifecycle, the parse is ours.
      const std::uint64_t read_us = obs::now_us();
      WireRouteRequest wire;
      try {
        wire = decode_route_request(payload);
      } catch (const ProtoError& e) {
        // Framing is intact (the length prefix was honored), so the
        // connection survives a malformed payload.
        send_error(conn, header.request_id, e.code, e.what());
        return;
      }
      // Per-client tagging: an explicit client tag wins, else the
      // connection id — either way every event record is attributable.
      const std::string tag = wire.request.tag.empty()
                                  ? "c" + std::to_string(conn.id)
                                  : wire.request.tag;
      // Admission validation: refuse early what routing would refuse late.
      try {
        engine::parse_method(wire.request.method);
      } catch (const std::invalid_argument& e) {
        send_error(conn, header.request_id, ErrorCode::kBadRequest, e.what(),
                   tag);
        return;
      }
      if (wire.net.degree() < 2) {
        send_error(conn, header.request_id, ErrorCode::kBadRequest,
                   "net needs at least 2 pins (source + sink)", tag);
        return;
      }
      if (wire.lambda != 0 && wire.lambda != options_.engine.lambda) {
        send_error(conn, header.request_id, ErrorCode::kBadRequest,
                   "server runs lambda=" +
                       std::to_string(options_.engine.lambda) +
                       ", request pinned lambda=" +
                       std::to_string(wire.lambda),
                   tag);
        return;
      }
      Job job;
      job.conn = conn_ptr;
      job.request_id = header.request_id;
      job.net = std::move(wire.net);
      job.request = std::move(wire.request);
      job.request.tag = tag;
      stat_requests_.fetch_add(1, std::memory_order_relaxed);
      PL_COUNT("serve.requests", 1);
      note_client(tag, 1, kHeaderSize + payload.size(), 0);
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      job.trace.read_us = read_us;
      job.trace.enqueue_us = obs::now_us();
      job.recorded = obs::enabled();
      if (job.recorded) {
        if (conn.lane == 0)
          conn.lane = obs::alloc_lane("serve.conn-" + std::to_string(conn.id));
        job.trace.conn_id = conn.id;
        job.trace.request_id = header.request_id;
        job.trace.tag = tag;
        job.trace.degree = job.net.degree();
        flight_.start(job.trace);
      }
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(std::move(job));
        PL_GAUGE_SET("serve.queue_depth", queue_.size());
      }
      queue_cv_.notify_one();
      return;
    }
    default:
      send_error(conn, header.request_id, ErrorCode::kUnknownType,
                 "unknown frame type " +
                     std::to_string(static_cast<unsigned>(header.type)));
      return;
  }
}

void Server::dispatch_loop() {
  std::vector<Job> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(kPollMs), [&] {
        return !queue_.empty() || dispatcher_stop_ ||
               reload_requested_.load(std::memory_order_acquire) ||
               sink_swap_requested_.load(std::memory_order_acquire);
      });
      if (sink_swap_requested_.exchange(false, std::memory_order_acq_rel)) {
        // Like reloads: the dispatcher is the only emitter, so swapping
        // between batches needs no synchronization with emission.
        std::lock_guard<std::mutex> slock(sink_mu_);
        sink_ = pending_sink_;
      }
      if (reload_requested_.exchange(false, std::memory_order_acq_rel)) {
        // Safe without further locking: this thread is the only one that
        // ever routes, so nothing is using the old engine concurrently.
        lock.unlock();
        try {
          engine_ = make_engine();
          stat_reloads_.fetch_add(1, std::memory_order_relaxed);
          PL_COUNT("serve.reloads", 1);
        } catch (const std::exception&) {
          // A failed reload (e.g. the table file vanished) keeps the old
          // engine serving.
          stat_errors_.fetch_add(1, std::memory_order_relaxed);
        }
        lock.lock();
      }
      if (queue_.empty()) {
        if (dispatcher_stop_) return;
        continue;
      }
      const std::size_t take = std::min(queue_.size(), options_.max_batch);
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.begin() +
                                           static_cast<std::ptrdiff_t>(take)));
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(take));
      PL_GAUGE_SET("serve.queue_depth", queue_.size());
    }
    dispatch_batch(batch);
    batch.clear();
  }
}

void Server::dispatch_batch(std::vector<Job>& jobs) {
  PL_SPAN("serve.batch");
  PL_HIST("serve.batch_size", jobs.size());
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t batch_id = ++next_batch_id_;

  std::vector<geom::Net> nets;
  std::vector<engine::RouteRequest> requests;
  nets.reserve(jobs.size());
  requests.reserve(jobs.size());
  for (Job& job : jobs) {
    nets.push_back(std::move(job.net));
    requests.push_back(job.request);
  }

  // Batch formation: every member left the queue and joined this batch at
  // the same instant (one clock read — queue wait ends here for all).
  const std::uint64_t dequeued = obs::now_us();
  for (Job& job : jobs) {
    job.trace.dequeue_us = dequeued;
    job.trace.batch_id = batch_id;
    job.trace.batch_size = jobs.size();
  }

  util::Timer wall;
  std::vector<engine::RouteResponse> responses;
  std::vector<obs::NetEvent> events;
  std::string failure;
  try {
    if (sink_ != nullptr)
      responses = engine_->route_batch_collect(nets, requests, events);
    else
      responses = engine_->route_batch(nets, requests);
  } catch (const std::exception& e) {
    failure = e.what();
  }
  const auto wall_us = static_cast<std::uint64_t>(wall.seconds() * 1e6);
  PL_HIST("serve.batch_wall_us", wall_us);
  const std::uint64_t routed = obs::now_us();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& job = jobs[i];
    if (job.conn == nullptr) continue;
    job.trace.routed_us = routed;
    if (!failure.empty()) {
      job.trace.error = true;
      send_error(*job.conn, job.request_id, ErrorCode::kInternal, failure,
                 job.request.tag);
    } else {
      const std::string frame =
          encode_route_response(job.request_id, responses[i], wall_us);
      if (write_frame(*job.conn, frame)) {
        stat_responses_.fetch_add(1, std::memory_order_relaxed);
        PL_COUNT("serve.responses", 1);
        note_client(job.request.tag, 0, frame.size(), 0);
      } else {
        job.trace.error = true;
        stat_errors_.fetch_add(1, std::memory_order_relaxed);
        note_client(job.request.tag, 0, 0, 1);
      }
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    job.trace.written_us = obs::now_us();
    PL_HIST("serve.queue_wait_us", job.trace.queue_wait_us());
    PL_HIST("serve.route_us", job.trace.route_us());
    PL_HIST("serve.write_us", job.trace.write_us());
    if (job.recorded) {
      flight_.complete(job.trace);
      // The connection's Chrome-trace lane: the whole request at depth 0,
      // its three stages as children.
      const std::uint32_t lane = job.conn->lane;
      const RequestTrace& t = job.trace;
      obs::record_span_in_lane(lane, "serve.request", t.enqueue_us,
                               t.written_us - t.enqueue_us, 0);
      obs::record_span_in_lane(lane, "serve.queue_wait", t.enqueue_us,
                               t.queue_wait_us(), 1);
      obs::record_span_in_lane(lane, "serve.route", t.dequeue_us,
                               t.route_us(), 1);
      obs::record_span_in_lane(lane, "serve.write", t.routed_us,
                               t.write_us(), 1);
    }
  }

  // Emission, in admission order, after the writes so the events carry
  // the complete lifecycle.  index=kNoIndex lets the sink stamp its own
  // emission sequence — the same indices a direct Engine::route_batch of
  // the same nets would produce, which is what the daemon/direct parity
  // contract (and the obsdiff-over-daemon gate) relies on.
  if (sink_ != nullptr && failure.empty() && events.size() == jobs.size()) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      obs::NetEvent& e = events[i];
      e.index = obs::NetEvent::kNoIndex;
      e.queue_wait_us = jobs[i].trace.queue_wait_us();
      e.batch_id = batch_id;
      e.batch_size = jobs.size();
      e.write_us = jobs[i].trace.write_us();
      sink_->emit(e);
    }
    sink_->flush();
  }
}

bool Server::write_frame(Conn& conn, const std::string& bytes) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.dead.load(std::memory_order_acquire) || conn.fd < 0) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r = ::send(conn.fd, bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      conn.dead.store(true, std::memory_order_release);
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

void Server::send_error(Conn& conn, std::uint64_t request_id, ErrorCode code,
                        const std::string& message, const std::string& tag) {
  stat_errors_.fetch_add(1, std::memory_order_relaxed);
  PL_COUNT("serve.errors", 1);
  note_client(tag.empty() ? "c" + std::to_string(conn.id) : tag, 0, 0, 1);
  write_frame(conn, encode_error(request_id, code, message));
}

}  // namespace patlabor::serve
