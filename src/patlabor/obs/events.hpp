// Structured result telemetry: one JSONL record per routed net.
//
// Where stats.hpp/trace.hpp answer "where did the time go?", the event sink
// answers "what did the router produce?" — per-net quality (frontier size,
// wirelength/delay extremes, hypervolume against the net's bounding-box
// reference point) and serving behaviour (regime, cache hit/miss, wall/CPU
// time), preceded by a run manifest (git sha, build flags, engine config)
// so two runs can be joined and diffed (tools/patlabor_obsdiff.cpp).
//
// Determinism: events carry the batch index and the engine flushes them in
// net order (par::OrderedSink), so the file layout is scheduling-
// independent.  Fields whose *values* depend on scheduling or environment
// — wall/CPU time, cache hit vs miss under parallel racing, the manifest's
// jobs / hostname / timestamp — are omitted in deterministic mode
// (Options::deterministic), making event files byte-identical across
// --jobs values for the same seed and net order.
//
// Robustness: every live sink is registered with an atexit + terminate
// flush hook (flush_all), so buffered records survive a CLI error exit or
// an exception escaping route_batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace patlabor::obs {

/// One routed net.  `index` is the position within a batch (kNoIndex for
/// single-net routes: the sink then stamps its own emission sequence).
struct NetEvent {
  static constexpr std::size_t kNoIndex = ~std::size_t{0};

  std::size_t index = kNoIndex;
  std::string net;            ///< net name ("" when unnamed)
  std::string tag;            ///< request origin (daemon client id); ""
                              ///< = untagged, field omitted from the record
  std::size_t degree = 0;
  std::uint64_t chash = 0;    ///< canonical-form hash (geom::canonicalize)
  std::string method;         ///< registry name ("patlabor", "salt", ...)
  std::string regime;         ///< "exact" | "local" | "sweep"
  bool cache_enabled = false;
  bool cache_hit = false;
  std::size_t frontier_size = 0;
  std::int64_t w_min = 0, w_max = 0;  ///< wirelength extremes over frontier
  std::int64_t d_min = 0, d_max = 0;  ///< delay extremes over frontier
  double hypervolume = 0.0;  ///< normalized vs bbox ref (eval::net_hypervolume)
  int iterations = 0;        ///< PatLabor local-search rounds
  std::uint64_t wall_us = 0, cpu_us = 0;  ///< omitted in deterministic mode

  /// Service lifecycle (filled by serve::Server for daemon-routed nets;
  /// batch_size == 0 means "not served" and the whole group is omitted).
  /// All four are scheduling-volatile, so like wall/cpu they are omitted in
  /// deterministic mode — which is what keeps a daemon's deterministic
  /// event file byte-identical (modulo tag) to a direct-engine run.
  std::uint64_t queue_wait_us = 0;  ///< admission enqueue -> dispatcher pop
  std::uint64_t batch_id = 0;       ///< which coalesced batch served it
  std::size_t batch_size = 0;       ///< occupancy of that batch
  std::uint64_t write_us = 0;       ///< response frame write duration
};

/// Run-level header written as the first JSONL line.  Defaults for git_sha
/// and build come from compile-time defines; hostname/timestamp are filled
/// by write_manifest unless already set.
struct RunManifest {
  std::string tool;    ///< e.g. "patlabor_cli route"
  std::string method;  ///< default method of the run
  std::string input;   ///< input file / workload label
  std::string git_sha;
  std::string build;   ///< e.g. "obs=on,type=RelWithDebInfo"
  std::size_t lambda = 0;
  std::size_t jobs = 0;       ///< omitted in deterministic mode
  std::uint64_t seed = 0;
  bool cache_enabled = false;
  std::size_t cache_capacity = 0;
  std::size_t cache_shards = 0;
  std::string hostname;   ///< omitted in deterministic mode
  std::string timestamp;  ///< omitted in deterministic mode
  /// Free-form extra key/value pairs appended verbatim (values as strings).
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Thread-safe JSONL writer.  emit() appends one "net" record under a
/// mutex; flush() forces buffered bytes to disk.  Construction registers
/// the sink for flush-on-exit (see flush_all).
class EventSink {
 public:
  struct Options {
    /// Omit scheduling/environment-dependent fields so files from the same
    /// seed/net order are byte-identical for every --jobs value.
    bool deterministic = false;
  };

  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit EventSink(const std::string& path) : EventSink(path, Options{}) {}
  EventSink(const std::string& path, Options options);
  ~EventSink();

  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;

  bool deterministic() const { return options_.deterministic; }
  const std::string& path() const { return path_; }

  /// Writes the manifest line.  Fills git_sha/build/hostname/timestamp
  /// defaults on a copy; call at most once, before the first emit().
  void write_manifest(const RunManifest& manifest);

  /// Appends one net record.  Thread-safe; callers needing a scheduling-
  /// independent record order serialize through par::OrderedSink.
  void emit(const NetEvent& event);

  /// Records emitted so far.
  std::size_t emitted() const;

  /// Flushes buffered bytes to the OS; safe to call concurrently.
  void flush();

  /// Flushes every live sink and runs every registered flush hook.
  /// Installed as an atexit hook and chained into std::terminate when the
  /// first sink is constructed, so event files survive error exits and
  /// escaped exceptions.
  static void flush_all() noexcept;

 private:
  void write_line(const std::string& line);

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  Options options_;
  std::size_t emitted_ = 0;
};

/// Registers a callback run by EventSink::flush_all() — i.e. at exit and
/// on an escaped exception — after the sinks themselves have flushed.
/// For subsystems with their own crash-time artifact (the server's flight
/// recorder dumps its ring here).  Returns a token for remove_flush_hook;
/// hooks must be removed before whatever they capture is destroyed.  The
/// hook must not throw.
std::uint64_t add_flush_hook(std::function<void()> hook);
void remove_flush_hook(std::uint64_t token);

/// Git revision baked in at configure time ("unknown" outside a checkout).
std::string build_git_sha();

/// Compile-time build description ("obs=on,type=RelWithDebInfo").
std::string build_flags();

/// Current machine name (gethostname), "unknown" on failure.
std::string hostname();

/// Current UTC time, ISO 8601 ("2026-08-06T12:34:56Z").
std::string iso8601_utc_now();

}  // namespace patlabor::obs
