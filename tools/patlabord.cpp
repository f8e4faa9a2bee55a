// patlabord — the routing daemon: serves engine::Engine over an AF_UNIX
// socket speaking the versioned frame protocol (src/patlabor/serve/).
//
//   patlabord <socket_path> [--lut <path>] [--lambda N]
//             [--jobs N] [--no-cache] [--max-batch N] [--events <out.jsonl>]
//             [--events-deterministic] [--metrics-dump <out.prom>]
//             [--flight-dump <out.jsonl>]
//
// --lut memory-maps the format-v2 table read-only (lut::LookupTable::open,
// which verifies its checksums): the daemon starts without parsing the
// table, queries serve from the page cache, and N daemons pointed at the
// same file share one physical copy.
//
// The daemon accepts concurrent client connections (tools/patlabor_client,
// serve::Client, or patlabor_cli route --remote), coalescing in-flight
// requests from all clients into Engine::route_batch calls on the
// engine's thread pool.  Responses are bit-identical to a direct embedded
// Engine::route of the same request — same λ, cache on or off.
//
// --events streams one JSONL record per routed net, each stamped with the
// originating client's tag (the "tag" field), so one shared event file
// attributes every record.  --metrics-dump periodically rewrites a
// Prometheus exposition of the serve.* / engine.* counters; the same text
// is available to any client over the wire (patlabor_client metrics).
//
// Signals (handled synchronously via sigwait on the main thread):
//   SIGTERM / SIGINT  graceful drain: stop accepting, answer everything
//                     already accepted, then exit 0 — no request is
//                     dropped;
//   SIGHUP            rebuild the engine, re-attaching the --lut table —
//                     an atomic remap swap of the (possibly replaced) file
//                     — between batches (config/table reload without a
//                     restart);
//   SIGQUIT           dump the flight recorder (the last N completed
//                     requests plus everything in flight) as JSONL to the
//                     --flight-dump path (default <socket>.flight.jsonl)
//                     and KEEP SERVING — live diagnosis of a loaded or
//                     wedged daemon.  The same dump is chained into the
//                     crash/terminate flush hooks.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "patlabor/obs/events.hpp"
#include "patlabor/obs/metrics.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/serve/server.hpp"
#include "patlabor/util/str.hpp"

namespace {

using namespace patlabor;

int usage() {
  std::fprintf(
      stderr,
      "usage: patlabord <socket_path> [--lut <path>] [--lambda N] "
      "[--jobs N] "
      "[--no-cache] [--max-batch N] [--events <out.jsonl>] "
      "[--events-deterministic] [--metrics-dump <out.prom>] "
      "[--flight-dump <out.jsonl>]\n");
  return 2;
}

std::size_t parse_size(const char* arg, const char* what,
                       std::size_t min_value) {
  const auto v = util::parse_u64(arg);
  if (!v || *v < min_value) {
    std::fprintf(stderr, "error: invalid %s '%s' (expected integer >= %zu)\n",
                 what, arg, min_value);
    std::exit(2);
  }
  return static_cast<std::size_t>(*v);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  serve::ServerOptions options;
  options.socket_path = argv[1];
  std::string events_path, metrics_path;
  bool events_deterministic = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lut") == 0 && i + 1 < argc) {
      options.lut_path = argv[++i];
    } else if (std::strcmp(argv[i], "--lambda") == 0 && i + 1 < argc) {
      options.engine.lambda = parse_size(argv[++i], "lambda", 1);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      options.engine.jobs = parse_size(argv[++i], "jobs", 1);
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      options.engine.cache.enabled = false;
    } else if (std::strcmp(argv[i], "--max-batch") == 0 && i + 1 < argc) {
      options.max_batch = parse_size(argv[++i], "max-batch", 1);
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events_path = argv[++i];
    } else if (std::strcmp(argv[i], "--events-deterministic") == 0) {
      events_deterministic = true;
    } else if (std::strcmp(argv[i], "--metrics-dump") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-dump") == 0 && i + 1 < argc) {
      options.flight_dump_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (options.flight_dump_path.empty())
    options.flight_dump_path = options.socket_path + ".flight.jsonl";

  // Route every signal we handle through sigwait on this thread.  The mask
  // is installed before the server spawns its threads, so they inherit it
  // and the kernel has exactly one delivery target — no async handlers, no
  // async-signal-safety constraints on shutdown work.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGHUP);
  sigaddset(&mask, SIGQUIT);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::fprintf(stderr, "error: pthread_sigmask failed\n");
    return 1;
  }

  try {
    std::unique_ptr<obs::EventSink> events;
    std::unique_ptr<obs::MetricsExporter> exporter;
    // A daemon always collects stats: the serve.*/engine.* counters back
    // both the wire metrics frame and --metrics-dump.
    obs::set_enabled(true);
    if (!events_path.empty()) {
      obs::EventSink::Options sopt;
      sopt.deterministic = events_deterministic;
      events = std::make_unique<obs::EventSink>(events_path, sopt);
      obs::RunManifest manifest;
      manifest.tool = "patlabord";
      manifest.method = "patlabor";
      manifest.input = options.socket_path;
      manifest.lambda = options.engine.lambda;
      manifest.jobs = options.engine.jobs;
      manifest.cache_enabled = engine::cache_is_enabled(options.engine.cache);
      manifest.cache_capacity = options.engine.cache.capacity;
      manifest.cache_shards = options.engine.cache.shards;
      events->write_manifest(manifest);
      options.engine.events = events.get();
    }
    if (!metrics_path.empty()) {
      obs::MetricsExporterOptions mopt;
      mopt.path = metrics_path;
      exporter = std::make_unique<obs::MetricsExporter>(std::move(mopt));
    }

    serve::Server server(options);
    std::fprintf(stderr, "patlabord: serving on %s (lambda=%zu, max_batch=%zu)\n",
                 options.socket_path.c_str(), options.engine.lambda,
                 options.max_batch);

    for (;;) {
      int sig = 0;
      if (sigwait(&mask, &sig) != 0) continue;
      if (sig == SIGHUP) {
        std::fprintf(stderr, "patlabord: SIGHUP, reloading engine/table\n");
        server.request_reload();
        continue;
      }
      if (sig == SIGQUIT) {
        try {
          const auto dump = server.dump_flight();
          std::fprintf(stderr,
                       "patlabord: SIGQUIT, flight recorder dumped to %s "
                       "(%zu in flight, %zu completed)\n",
                       options.flight_dump_path.c_str(), dump.in_flight,
                       dump.completed);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "patlabord: flight dump failed: %s\n",
                       e.what());
        }
        continue;  // keep serving: the dump is a diagnostic, not a drain
      }
      std::fprintf(stderr, "patlabord: signal %d, draining\n", sig);
      break;
    }

    server.stop();
    const serve::Server::Stats stats = server.stats();
    std::fprintf(stderr,
                 "patlabord: drained (%llu connections, %llu requests, "
                 "%llu responses, %llu batches, %llu errors, %llu reloads)\n",
                 static_cast<unsigned long long>(stats.connections),
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.responses),
                 static_cast<unsigned long long>(stats.batches),
                 static_cast<unsigned long long>(stats.errors),
                 static_cast<unsigned long long>(stats.reloads));
    if (events) events->flush();
    if (exporter) exporter->stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "patlabord: error: %s\n", e.what());
    return 1;
  }
}
