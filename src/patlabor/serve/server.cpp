#include "patlabor/serve/server.hpp"

#include <fcntl.h>
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

/// Outbox bytes above which the I/O thread stops reading a connection.
/// A perfbench serve_mixed burst (8,000 replies of <= 137 bytes) stays
/// under it even when nobody reads.
constexpr std::size_t kOutboxCap = std::size_t{2} << 20;
/// How long a partly read frame may take to complete once the drain
/// began, and how long stop() then keeps writing outboxes.
constexpr std::chrono::seconds kDrainGrace{2};

}  // namespace

/// A connection.  Everything but `dead` and `lane` is the I/O thread's.
struct Server::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::atomic<bool> dead{false};  ///< closed: replies to it count as errors
  /// Chrome-trace lane (obs::alloc_lane), allocated by the I/O thread on
  /// the first request admitted with telemetry on (0 = none yet); the
  /// admission queue orders the dispatcher's reads after that write.
  std::uint32_t lane = 0;
  std::vector<std::uint8_t> in;  ///< read buffer; the first in_len bytes
  std::size_t in_len = 0;        ///< are data: at most one partial frame
  std::string out;               ///< outbox: encoded frames to write
  std::size_t out_sent = 0;      ///< prefix of `out` already written
  std::size_t admitted = 0;      ///< route requests awaiting their reply
  bool blocked = false;          ///< the socket is full: await POLLOUT
  bool closing = false;          ///< no more reads: close once `out` is out

  std::size_t pending() const { return out.size() - out_sent; }

  void flush() {
    while (out_sent < out.size()) {
      const ssize_t r = ::send(fd, out.data() + out_sent, pending(),
                               MSG_NOSIGNAL);
      if (r >= 0) {
        out_sent += static_cast<std::size_t>(r);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        blocked = true;
        if (2 * out_sent >= out.size())
          out.erase(0, std::exchange(out_sent, 0));
        return;
      } else if (errno != EINTR) {
        closing = true;  // the peer is gone: nobody reads the rest
        break;
      }
    }
    out.clear();
    out_sent = 0;
  }

  void close() {
    dead.store(true, std::memory_order_release);
    ::close(std::exchange(fd, -1));
  }
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

  engine_ = make_engine();  // throws on a bad lut_path before serving

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("serve: socket path too long: " +
                             options_.socket_path);
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("serve: socket(): ") +
                             std::strerror(errno));
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0 ||
      ::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
    throw std::runtime_error("serve: cannot listen on " +
                             options_.socket_path + ": " + std::strerror(err));
  }
  io_thread_ = std::thread([this] { io_loop(); });
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
  // open() maps the table read-only: N daemons share one physical copy,
  // and a reload maps the (possibly replaced) file afresh.
  if (!options_.lut_path.empty())
    eng->adopt_table(lut::LookupTable::open(options_.lut_path));
  return eng;
}

void Server::begin_drain() {
  draining_.store(true, std::memory_order_release);
  wake();
}

void Server::wake() {
  [[maybe_unused]] const ssize_t r = ::write(wake_fds_[1], "", 1);
}

void Server::request_reload() {
  reload_requested_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
}

Server::Stats Server::stats() const {
  const auto get = [](const auto& v) {
    return v.load(std::memory_order_relaxed);
  };
  return {get(stat_connections_), get(stat_requests_), get(stat_responses_),
          get(stat_errors_),      get(stat_batches_),  get(stat_reloads_),
          get(in_flight_)};
}

namespace {

/// Quantile triple of one serve.* stage histogram; zeros when nothing was
/// recorded (recording disabled or no traffic yet).
WireStageStats stage_stats(const char* name) {
  const obs::Histogram::Summary s =
      obs::StatsRegistry::instance().histogram(name).summary();
  const auto q = [&](double p) {
    return static_cast<std::uint64_t>(obs::histogram_quantile(s, p));
  };
  return {s.count, q(0.50), q(0.95), q(0.99)};
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
  for (const auto& [tag, c] : clients_)  // std::map: sorted by tag
    s.clients.push_back({tag, c.requests, c.bytes, c.errors});
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
  begin_drain();  // the I/O thread runs the drain and stops the dispatcher
  if (io_thread_.joinable()) io_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  for (int* fd : {&listen_fd_, &wake_fds_[0], &wake_fds_[1]})
    if (*fd >= 0) ::close(std::exchange(*fd, -1));
  ::unlink(options_.socket_path.c_str());
  stopped_ = true;
}

void Server::io_loop() {
  using Clock = std::chrono::steady_clock;
  // Serve; then, once draining: read partly read frames until the grace
  // ends, route what is queued, write outboxes until the grace ends.
  enum class Phase { kServe, kRead, kRoute, kFlush } phase = Phase::kServe;
  Clock::time_point deadline{};
  std::vector<std::pair<std::shared_ptr<Conn>, std::string>> replies;
  std::vector<pollfd> fds;
  const auto partial = [](const auto& c) {
    return !c->closing && c->in_len != 0;
  };
  const auto readable = [&](const auto& c) {
    return !c->closing && c->pending() <= kOutboxCap &&
           c->admitted < kAdmitCap &&
           (phase == Phase::kServe || (phase == Phase::kRead && partial(c)));
  };
  const auto accept_all = [&] {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
      if (fd < 0) return;  // backlog empty (or out of descriptors)
      conns_.push_back(std::make_shared<Conn>());
      conns_.back()->fd = fd;
      conns_.back()->id = next_conn_id_++;
      stat_connections_.fetch_add(1, std::memory_order_relaxed);
      PL_COUNT("serve.connections", 1);
    }
  };

  for (;;) {
    std::unique_lock<std::mutex> hold(replies_mu_);
    replies.swap(replies_);
    const bool routed_all = dispatcher_done_;
    hold.unlock();
    for (auto& [conn, frame] : replies) {
      --conn->admitted;
      if (conn->fd >= 0) conn->out += frame;
    }
    replies.clear();

    const Clock::time_point now = Clock::now();
    if (phase == Phase::kServe && draining_.load(std::memory_order_acquire)) {
      // A client whose connect() succeeded is owed answers, and so is
      // everything clients sent before the drain: sweep both.
      accept_all();
      for (const auto& conn : conns_)
        while (readable(conn) && read_conn(conn) == kReadChunk) {
        }
      phase = Phase::kRead;
      deadline = now + kDrainGrace;
    }
    if (phase == Phase::kRead &&
        (now >= deadline ||
         std::none_of(conns_.begin(), conns_.end(), partial))) {
      for (const auto& conn : conns_)
        if (partial(conn)) drop_partial(*conn);
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        dispatcher_stop_ = true;
      }
      queue_cv_.notify_all();
      phase = Phase::kRoute;
    }
    if (phase == Phase::kRoute && routed_all) {
      phase = Phase::kFlush;
      deadline = now + kDrainGrace;
    }

    for (const auto& conn : conns_) {
      if (conn->pending() != 0 && !conn->blocked) conn->flush();
      if (conn->closing && conn->pending() == 0) conn->close();
    }
    std::erase_if(conns_, [](const auto& c) { return c->fd < 0; });
    if (phase == Phase::kFlush &&
        (now >= deadline ||
         std::all_of(conns_.begin(), conns_.end(),
                     [](const auto& c) { return c->pending() == 0; })))
      break;

    const short accepting = phase == Phase::kServe ? POLLIN : 0;
    fds.assign({{wake_fds_[0], POLLIN, 0}, {listen_fd_, accepting, 0}});
    for (const auto& conn : conns_)
      fds.push_back({conn->fd,
                     static_cast<short>((readable(conn) ? POLLIN : 0) |
                                        (conn->pending() != 0 ? POLLOUT : 0)),
                     0});
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - now).count();
    const bool timed = phase == Phase::kRead || phase == Phase::kFlush;
    ::poll(fds.data(), fds.size(), timed ? static_cast<int>(left) : -1);

    char drained[64];
    if (fds[0].revents != 0)
      while (::read(wake_fds_[0], drained, sizeof drained) > 0) {
      }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const std::shared_ptr<Conn>& conn = conns_[i - 2];
      if (fds[i].revents & POLLOUT) conn->blocked = false;
      if (fds[i].revents & POLLIN) {
        read_conn(conn);
      } else if (fds[i].revents & (POLLHUP | POLLERR)) {
        conn->closing = true;  // gone while not being read: drop its outbox
        conn->out_sent = conn->out.size();
      }
    }
    if (fds[1].revents & POLLIN) accept_all();
  }
  for (const auto& conn : conns_) conn->close();
}

std::size_t Server::read_conn(const std::shared_ptr<Conn>& conn_ptr) {
  Conn& conn = *conn_ptr;
  conn.in.resize(std::max(conn.in.size(), conn.in_len + kReadChunk));
  const ssize_t r =
      ::recv(conn.fd, conn.in.data() + conn.in_len, kReadChunk, 0);
  if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return 0;
  if (r <= 0) {
    // EOF or a dead socket.  A partial frame gets no answer; the outbox is
    // still written (the peer may only have shut down its sending side).
    if (conn.in_len != 0) drop_partial(conn);
    conn.closing = true;
    return 0;
  }
  conn.in_len += static_cast<std::size_t>(r);

  std::size_t used = 0;
  while (!conn.closing && conn.in_len - used >= kHeaderSize) {
    const std::span<const std::uint8_t> rest(conn.in.data() + used,
                                             conn.in_len - used);
    FrameHeader header;
    try {
      header = decode_header(rest.first(kHeaderSize));
    } catch (const ProtoError& e) {
      // Bad magic / version: the stream cannot be resynchronized (or the
      // payload dialect is unknown) — answer once and close.
      conn.out += error_frame(conn, 0, e.code, e.what());
      conn.closing = true;
      break;
    }
    if (header.payload_size > options_.max_payload) {
      // Reading past the cap would be the attack: refuse and close.
      conn.out += error_frame(
          conn, header.request_id, ErrorCode::kOversizePayload,
          "payload of " + std::to_string(header.payload_size) +
              " bytes exceeds cap of " + std::to_string(options_.max_payload));
      conn.closing = true;
      break;
    }
    if (rest.size() - kHeaderSize < header.payload_size) break;
    handle_frame(conn_ptr, header,
                 rest.subspan(kHeaderSize, header.payload_size));
    used += kHeaderSize + header.payload_size;
  }
  conn.in_len = conn.closing ? 0 : conn.in_len - used;
  std::memmove(conn.in.data(), conn.in.data() + used, conn.in_len);
  return static_cast<std::size_t>(r);
}

void Server::drop_partial(Conn& conn) {
  stat_errors_.fetch_add(1, std::memory_order_relaxed);
  PL_COUNT("serve.truncated_frames", 1);
  conn.in_len = 0;
  conn.closing = true;
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn_ptr,
                          const FrameHeader& header,
                          std::span<const std::uint8_t> payload) {
  Conn& conn = *conn_ptr;
  const auto refuse = [&](ErrorCode code, const std::string& why,
                          const std::string& tag = {}) {
    conn.out += error_frame(conn, header.request_id, code, why, tag);
  };
  switch (header.type) {
    case FrameType::kPing:
      conn.out += encode_empty(FrameType::kPong, header.request_id);
      return;
    case FrameType::kMetricsRequest:
      conn.out += encode_text(
          FrameType::kMetricsResponse, header.request_id,
          obs::expose_text(obs::StatsRegistry::instance().snapshot()));
      return;
    case FrameType::kReloadRequest:
      request_reload();
      conn.out += encode_empty(FrameType::kReloadResponse, header.request_id);
      return;
    case FrameType::kStatsRequest:
      conn.out += encode_stats_response(header.request_id, wire_stats());
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
        refuse(e.code, e.what());
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
        refuse(ErrorCode::kBadRequest, e.what(), tag);
        return;
      }
      if (wire.net.degree() < 2) {
        refuse(ErrorCode::kBadRequest,
               "net needs at least 2 pins (source + sink)", tag);
        return;
      }
      if (wire.lambda != 0 && wire.lambda != options_.engine.lambda) {
        refuse(ErrorCode::kBadRequest,
               "server runs lambda=" + std::to_string(options_.engine.lambda) +
                   ", request pinned lambda=" + std::to_string(wire.lambda),
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
      ++conn.admitted;
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
      refuse(ErrorCode::kUnknownType,
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
      queue_cv_.wait(lock, [&] {
        return !queue_.empty() || dispatcher_stop_ ||
               reload_requested_.load(std::memory_order_acquire);
      });
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
        if (dispatcher_stop_) break;
        continue;
      }
      const auto end =
          queue_.begin() + static_cast<std::ptrdiff_t>(
                               std::min(queue_.size(), options_.max_batch));
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(end));
      queue_.erase(queue_.begin(), end);
      PL_GAUGE_SET("serve.queue_depth", queue_.size());
    }
    dispatch_batch(batch);
    batch.clear();
  }
  {
    std::lock_guard<std::mutex> lock(replies_mu_);
    dispatcher_done_ = true;
  }
  wake();
}

void Server::dispatch_batch(std::vector<Job>& jobs) {
  PL_SPAN("serve.batch");
  PL_HIST("serve.batch_size", jobs.size());
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t batch_id = ++next_batch_id_;

  // Batch formation: every member left the queue and joined this batch at
  // the same instant (one clock read — queue wait ends here for all).
  const std::uint64_t dequeued = obs::now_us();
  std::vector<geom::Net> nets;
  std::vector<engine::RouteRequest> requests;
  nets.reserve(jobs.size());
  requests.reserve(jobs.size());
  for (Job& job : jobs) {
    nets.push_back(std::move(job.net));
    requests.push_back(job.request);
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

  // Encode every reply, then hand the batch's replies to the I/O thread
  // with one wake; `written_us` closes each request just before it.
  std::vector<std::pair<std::shared_ptr<Conn>, std::string>> replies;
  replies.reserve(jobs.size());
  for (Job& job : jobs) {
    job.trace.routed_us = routed;
    if (!failure.empty()) {
      job.trace.error = true;
      replies.emplace_back(job.conn, error_frame(*job.conn, job.request_id,
                                                 ErrorCode::kInternal, failure,
                                                 job.request.tag));
    } else if (job.conn->dead.load(std::memory_order_acquire)) {
      job.trace.error = true;  // the client hung up: nobody to answer
      stat_errors_.fetch_add(1, std::memory_order_relaxed);
      note_client(job.request.tag, 0, 0, 1);
    } else {
      std::string frame = encode_route_response(
          job.request_id, responses[&job - jobs.data()], wall_us);
      stat_responses_.fetch_add(1, std::memory_order_relaxed);
      PL_COUNT("serve.responses", 1);
      note_client(job.request.tag, 0, frame.size(), 0);
      replies.emplace_back(job.conn, std::move(frame));
    }
  }
  // Close every request before the handoff: once the I/O thread sees the
  // replies their connections may admit more, so in_flight must already
  // count these out (it stays within the admission caps), and a client
  // that saw in_flight reach 0 finds their stage samples recorded.
  const std::uint64_t written = obs::now_us();
  for (Job& job : jobs) {
    job.trace.written_us = written;
    PL_HIST("serve.queue_wait_us", job.trace.queue_wait_us());
    PL_HIST("serve.route_us", job.trace.route_us());
    PL_HIST("serve.write_us", job.trace.write_us());
    if (job.recorded) {
      flight_.complete(job.trace);
      // The connection's Chrome-trace lane: the whole request at depth 0,
      // its three stages as children.
      const RequestTrace& t = job.trace;
      const auto span = [&](const char* name, std::uint64_t at,
                            std::uint64_t us, int depth) {
        obs::record_span_in_lane(job.conn->lane, name, at, us, depth);
      };
      span("serve.request", t.enqueue_us, t.written_us - t.enqueue_us, 0);
      span("serve.queue_wait", t.enqueue_us, t.queue_wait_us(), 1);
      span("serve.route", t.dequeue_us, t.route_us(), 1);
      span("serve.write", t.routed_us, t.write_us(), 1);
    }
  }
  in_flight_.fetch_sub(jobs.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(replies_mu_);
    for (auto& reply : replies) replies_.push_back(std::move(reply));
  }
  wake();

  // Emission, in admission order, after the handoff so the events carry
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

std::string Server::error_frame(const Conn& conn, std::uint64_t request_id,
                                ErrorCode code, const std::string& message,
                                const std::string& tag) {
  stat_errors_.fetch_add(1, std::memory_order_relaxed);
  PL_COUNT("serve.errors", 1);
  note_client(tag.empty() ? "c" + std::to_string(conn.id) : tag, 0, 0, 1);
  return encode_error(request_id, code, message);
}

}  // namespace patlabor::serve
