// The routing service: a long-lived server accepting concurrent client
// connections over an AF_UNIX stream socket, speaking the versioned frame
// protocol of proto.hpp.  Two threads, whatever the number of connections:
//
//   * the I/O thread poll()s the listening socket, a wake pipe and every
//     connection.  It cuts whole frames out of each connection's
//     non-blocking read buffer, answers control traffic (ping, metrics,
//     stats, reload-ack, protocol errors) straight into the connection's
//     outbox, validates route requests and queues them for admission, and
//     writes outboxes whenever poll() says a socket takes bytes;
//   * the dispatcher pops every queued job (up to max_batch), coalescing
//     requests from *different* clients into one Engine::route_batch call
//     on the engine's thread pool, then hands the batch's encoded replies
//     to the I/O thread with one wake.  It never touches a socket.
//
// Backpressure: while a connection's outbox holds more than a fixed byte
// cap, or kAdmitCap of its route requests await their replies, the I/O
// thread stops reading it, so a client that sends and never reads stalls
// only itself and queues bounded work.  Every job carries its client's
// tag into the JSONL event stream (obs::NetEvent::tag).
//
// Lifecycle: the server is serving when the constructor returns.
// begin_drain() sweeps the listen backlog and reads what clients already
// sent (a partly read frame gets a ~2 s grace); everything queued is
// answered, outboxes are written for at most the same grace, then closed
// (patlabord maps SIGTERM onto this).  request_reload() rebuilds the
// engine (re-loading the lookup table) between batches on the only
// routing thread, so the swap needs no synchronization (SIGHUP).
//
// Observability (DESIGN.md §6.3): every admitted request carries a
// RequestTrace stamped at each hop (frame read → enqueue → dispatcher pop
// → batch formation → routed → reply handed to the outbox), feeding the
// serve.* stage histograms and the lifecycle fields of the event record.
// Admitted while obs::enabled(), it also gets a per-connection Chrome
// trace lane and a flight-recorder entry (dumped on SIGQUIT / crash).
// kStatsRequest answers with queue depth, in-flight count, per-stage
// latency quantiles and per-client usage (wire_stats()).
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

/// Route requests of one connection admitted and not yet answered into
/// its outbox, at which the I/O thread stops reading that connection.
/// Twice a perfbench serve_mixed burst (8,000 requests), which never
/// meets it.
inline constexpr std::size_t kAdmitCap = 16384;
/// Bytes the I/O thread reads from a connection at a time, so admission
/// can pass kAdmitCap by at most the frames of one read.
inline constexpr std::size_t kReadChunk = std::size_t{64} << 10;

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket.  A stale file at the
  /// path is removed on bind; the file is unlinked again on shutdown.
  std::string socket_path;
  /// Engine configuration (λ, jobs, cache, policy); prefer lut_path over
  /// `table` for a reloadable table.  `events` is taken over: the
  /// dispatcher completes each batch's events with their lifecycle fields
  /// (queue_wait_us / batch_id / batch_size / write_us) and emits them in
  /// admission order with sink-stamped indices, so a deterministic daemon
  /// event file is byte-identical to a direct Engine::route_batch of the
  /// same nets modulo the tag field.
  engine::EngineOptions engine;
  /// Optional lookup table, attached at startup and on request_reload().
  /// Memory-mapped read-only (lut::LookupTable::open): daemons serving one
  /// table share one physical copy, and a reload is a remap swap between
  /// batches.  Empty = no table.
  std::string lut_path;
  /// Per-frame payload cap; frames above it are refused with
  /// kOversizePayload and the connection is closed.
  std::uint32_t max_payload = kDefaultMaxPayload;
  /// Most nets coalesced into one Engine::route_batch call.
  std::size_t max_batch = 256;
  /// Completed-request capacity of the flight recorder (in-flight records
  /// are always all retained).
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

  /// begin_drain() then join both threads; every connection is closed.
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
    std::uint64_t responses = 0;    ///< route responses handed to an outbox
    std::uint64_t errors = 0;       ///< error frames + replies to closed conns
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

  /// Dumps the flight recorder as JSONL to `path` (empty = flight_dump_path)
  /// from any thread at any time, as patlabord does on SIGQUIT.  Throws
  /// std::runtime_error on I/O failure or when no path is known.
  FlightRecorder::DumpStats dump_flight(const std::string& path = {}) const;

  /// In-memory flight-recorder contents (in-flight first); for tests.
  std::vector<std::pair<RequestTrace, bool>> flight_snapshot() const {
    return flight_.snapshot();
  }

 private:
  struct Conn;
  struct Job;
  struct ClientCounters { std::uint64_t requests = 0, bytes = 0, errors = 0; };

  void io_loop();
  void dispatch_loop();
  void dispatch_batch(std::vector<Job>& jobs);
  /// One non-blocking read; every whole frame goes to handle_frame.
  std::size_t read_conn(const std::shared_ptr<Conn>& conn);
  void handle_frame(const std::shared_ptr<Conn>& conn,
                    const FrameHeader& header,
                    std::span<const std::uint8_t> payload);
  /// Counts an error reply for `tag` (empty = "c<id>"); returns its frame.
  std::string error_frame(const Conn& conn, std::uint64_t request_id,
                          ErrorCode code, const std::string& message,
                          const std::string& tag = {});
  /// Gives up a partly read frame (an error); the connection closes.
  void drop_partial(Conn& conn);
  void wake();  // the I/O thread, out of poll()
  std::unique_ptr<engine::Engine> make_engine();
  /// Accumulates per-client usage (the stats frame + the dynamic
  /// serve.client.<tag>.* registry counters), bounded by kMaxClientEntries.
  void note_client(const std::string& tag, std::uint64_t requests,
                   std::uint64_t bytes, std::uint64_t errors);

  ServerOptions options_;
  std::unique_ptr<engine::Engine> engine_;  // dispatcher-owned after start
  FlightRecorder flight_;
  std::uint64_t flush_hook_token_ = 0;  // 0 = no hook registered

  // Event emission is server-owned (ServerOptions::engine): only the
  // dispatcher emits into `sink_`.
  obs::EventSink* sink_ = nullptr;
  std::uint64_t next_batch_id_ = 0;  // dispatcher-only

  mutable std::mutex clients_mu_;
  std::map<std::string, ClientCounters> clients_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // pipe: [0] polled by the I/O thread
  std::atomic<bool> draining_{false};
  std::atomic<bool> reload_requested_{false};
  bool stopped_ = false;  // stop() ran to completion (main-thread only)

  std::vector<std::shared_ptr<Conn>> conns_;  // I/O thread only
  std::uint64_t next_conn_id_ = 0;            // I/O thread only

  // Dispatcher → I/O thread: encoded replies bound for their outboxes.
  std::mutex replies_mu_;
  std::vector<std::pair<std::shared_ptr<Conn>, std::string>> replies_;
  bool dispatcher_done_ = false;  // under replies_mu_: no reply will follow

  mutable std::mutex queue_mu_;  // wire_stats() reads the depth
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool dispatcher_stop_ = false;  // under queue_mu_: reading is over

  std::thread io_thread_;
  std::thread dispatch_thread_;

  std::atomic<std::uint64_t> stat_connections_{0}, stat_requests_{0},
      stat_responses_{0}, stat_errors_{0}, stat_batches_{0}, stat_reloads_{0},
      in_flight_{0};
};

}  // namespace patlabor::serve
