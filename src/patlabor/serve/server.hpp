// The routing service: a long-lived server accepting concurrent client
// connections over an AF_UNIX stream socket, speaking the versioned frame
// protocol of proto.hpp.
//
// Architecture (three kinds of threads):
//
//   accept thread ──▶ one reader thread per connection ──▶ admission queue
//                                                              │
//                                          dispatcher thread ──┘
//
//   * readers parse frames and answer control traffic (ping, metrics,
//     reload-ack, protocol errors) inline; route requests are validated
//     (method, λ, degree) and pushed onto the admission queue;
//   * the single dispatcher pops every queued job (up to max_batch),
//     coalescing requests from *different* clients into one
//     Engine::route_batch call on the engine's thread pool — so offered
//     concurrency turns into batch parallelism, not per-request threads —
//     then writes each response frame back to its client;
//   * every job carries its client's tag, threaded through the per-net
//     RouteRequest into the JSONL event stream (obs::NetEvent::tag).
//
// Lifecycle: construction binds, listens and starts the threads; the
// server is serving when the constructor returns.  begin_drain() stops
// accepting, lets readers consume what clients already sent, answers
// everything queued, then stops — no accepted request is dropped
// (patlabord maps SIGTERM onto this).  request_reload() asks the
// dispatcher to rebuild the engine (and re-load the lookup table from
// disk) between batches; since the dispatcher is the only routing thread,
// the swap needs no synchronization with serving (SIGHUP in patlabord).
//
// Writes to a connection are serialized by a per-connection mutex (the
// dispatcher and that connection's reader interleave responses); a write
// failure marks the connection dead and its remaining responses are
// counted as errors, never blocking the batch.
//
// Observability (DESIGN.md §6.3): every admitted request carries a
// RequestTrace stamped at each lifecycle hop (frame read → enqueue →
// dispatcher pop → batch formation → routed → response written).  The
// stamps feed the serve.* stage histograms and the service-lifecycle
// fields of the JSONL event record.  A request admitted while
// obs::enabled() also gets a per-connection Chrome trace lane and a
// flight-recorder entry (dumped on SIGQUIT / crash).  Live introspection goes
// over the wire: kStatsRequest answers with queue depth, in-flight count,
// per-stage latency quantiles and per-client usage (wire_stats()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "patlabor/engine/engine.hpp"
#include "patlabor/serve/flight_recorder.hpp"
#include "patlabor/serve/proto.hpp"

namespace patlabor::obs {
class EventSink;
}

namespace patlabor::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket.  A stale file at the
  /// path is removed on bind; the file is unlinked again on shutdown.
  std::string socket_path;
  /// Engine configuration (λ, jobs, cache, policy).  `table` is honored
  /// like in direct embedding; prefer lut_path for a reloadable table.
  /// `events` is taken over by the server: the engine never emits — the
  /// dispatcher collects each batch's events, completes their service-
  /// lifecycle fields (queue_wait_us / batch_id / batch_size / write_us)
  /// and emits them itself, in admission order with sink-stamped indices,
  /// so a daemon deterministic event file is byte-identical to a direct
  /// Engine::route_batch of the same nets modulo the tag field.
  engine::EngineOptions engine;
  /// Optional lookup table attached at startup and re-attached on
  /// request_reload().  The file is memory-mapped read-only
  /// (lut::LookupTable::open) so every daemon process serving the same
  /// table shares one physical copy through the page cache, and a SIGHUP
  /// reload is an atomic remap swap between batches.  Empty = no table.
  std::string lut_path;
  /// Per-frame payload cap; frames above it are refused with
  /// kOversizePayload and the connection is closed.
  std::uint32_t max_payload = kDefaultMaxPayload;
  /// Most nets coalesced into one Engine::route_batch call.
  std::size_t max_batch = 256;
  /// Completed-request capacity of the flight recorder (the last N
  /// finished RequestTrace records kept for post-hoc diagnosis; in-flight
  /// records are always all retained).
  std::size_t flight_capacity = 256;
  /// When non-empty, the server chains a flight-recorder dump to this path
  /// into obs::flush_all() (add_flush_hook), so a crash or std::terminate
  /// leaves the last-requests JSONL behind.  patlabord additionally dumps
  /// here on SIGQUIT via dump_flight().
  std::string flight_dump_path;
};

class Server {
 public:
  /// Binds, listens and starts serving; throws std::runtime_error on
  /// socket errors (path too long, bind failure, ...).
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& socket_path() const { return options_.socket_path; }

  /// Stops accepting new connections and begins the graceful drain: data
  /// clients already sent is still read, queued work is still routed and
  /// answered.  Idempotent, returns immediately; stop() completes it.
  void begin_drain();

  /// begin_drain() then join every thread and close every connection.
  /// After stop() the socket file is gone.  Idempotent.
  void stop();

  /// Asks the dispatcher to rebuild the engine — re-loading the lookup
  /// table from lut_path — before the next batch.  Asynchronous; the ack
  /// means "scheduled".  In-flight responses are unaffected (the swap
  /// happens between batches on the only routing thread).
  void request_reload();

  struct Stats {
    std::uint64_t connections = 0;  ///< accepted over the lifetime
    std::uint64_t requests = 0;     ///< route requests admitted
    std::uint64_t responses = 0;    ///< route responses written
    std::uint64_t errors = 0;       ///< error frames sent + failed writes
    std::uint64_t batches = 0;      ///< Engine::route_batch calls
    std::uint64_t reloads = 0;      ///< engine rebuilds completed
    std::uint64_t in_flight = 0;    ///< admitted, not yet answered
  };
  Stats stats() const;

  /// Per-client usage is kept for the first kMaxClientEntries distinct
  /// tags (explicit ones or "c<conn>").  Later tags share one overflow
  /// entry: the empty tag in the stats frame, which admission never passes
  /// on, and the serve.client_overflow.* registry family.
  static constexpr std::size_t kMaxClientEntries = 64;

  /// The kStatsResponse payload: stats() plus queue depth, per-stage
  /// latency quantiles (from the serve.* histograms; zeros while recording
  /// is off) and per-client counters sorted by tag.
  WireStats wire_stats() const;

  /// Dumps the flight recorder as JSONL to `path` (empty = the configured
  /// flight_dump_path).  Callable from any thread at any time — this is
  /// what patlabord's SIGQUIT handler calls on a live, loaded daemon.
  /// Throws std::runtime_error on I/O failure or when no path is known.
  FlightRecorder::DumpStats dump_flight(const std::string& path = {}) const;

  /// In-memory flight-recorder contents (in-flight first); for tests.
  std::vector<std::pair<RequestTrace, bool>> flight_snapshot() const {
    return flight_.snapshot();
  }

  /// Asks the dispatcher to emit subsequent batches' events into `sink`
  /// (nullptr = stop emitting).  Applied between batches, like reloads, so
  /// it needs no synchronization with routing; the swap is visible once
  /// the next batch starts.  The sink must outlive its tenure.
  void request_event_sink(obs::EventSink* sink);

 private:
  struct Conn;
  struct Job;
  struct ClientCounters {
    std::uint64_t requests = 0;
    std::uint64_t bytes = 0;
    std::uint64_t errors = 0;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Conn> conn);
  void dispatch_loop();
  void dispatch_batch(std::vector<Job>& jobs);
  void handle_frame(const std::shared_ptr<Conn>& conn,
                    const FrameHeader& header,
                    std::span<const std::uint8_t> payload);
  /// Serialized frame write; on failure marks the connection dead.
  bool write_frame(Conn& conn, const std::string& bytes);
  /// Marks the connection dead and closes its fd (serialized against
  /// in-flight writes).  Idempotent.
  void close_conn(Conn& conn);
  /// `tag` attributes the error to a client for the per-client counters;
  /// empty falls back to the connection identity ("c<id>").
  void send_error(Conn& conn, std::uint64_t request_id, ErrorCode code,
                  const std::string& message, const std::string& tag = {});
  std::unique_ptr<engine::Engine> make_engine();
  /// Accumulates per-client usage (the stats frame + the dynamic
  /// serve.client.<tag>.* registry counters), bounded by
  /// kMaxClientEntries.
  void note_client(const std::string& tag, std::uint64_t requests,
                   std::uint64_t bytes, std::uint64_t errors);

  ServerOptions options_;
  std::unique_ptr<engine::Engine> engine_;  // dispatcher-owned after start
  FlightRecorder flight_;
  std::uint64_t flush_hook_token_ = 0;  // 0 = no hook registered

  // Event emission is server-owned (see ServerOptions::engine.events).
  // `sink_` is dispatcher-only after start; swaps go through the pending
  // slot and are applied between batches.
  obs::EventSink* sink_ = nullptr;
  std::mutex sink_mu_;
  obs::EventSink* pending_sink_ = nullptr;  // under sink_mu_
  std::atomic<bool> sink_swap_requested_{false};
  std::uint64_t next_batch_id_ = 0;  // dispatcher-only

  mutable std::mutex clients_mu_;
  std::map<std::string, ClientCounters> clients_;

  int listen_fd_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> hard_stop_{false};
  std::atomic<bool> reload_requested_{false};
  bool stopped_ = false;  // stop() ran to completion (main-thread only)

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 0;

  mutable std::mutex queue_mu_;  // wire_stats() reads the depth
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool dispatcher_stop_ = false;  // set under queue_mu_ once readers joined

  std::thread accept_thread_;
  std::thread dispatch_thread_;

  std::atomic<std::uint64_t> stat_connections_{0};
  std::atomic<std::uint64_t> stat_requests_{0};
  std::atomic<std::uint64_t> stat_responses_{0};
  std::atomic<std::uint64_t> stat_errors_{0};
  std::atomic<std::uint64_t> stat_batches_{0};
  std::atomic<std::uint64_t> stat_reloads_{0};
  std::atomic<std::uint64_t> in_flight_{0};
};

}  // namespace patlabor::serve
