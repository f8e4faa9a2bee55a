// patlabor_cli — command-line front end to the library.
//
//   patlabor_cli gen  <uniform|clustered|smoothed> <count> <degree> <out.nets>
//                     [seed] [kappa]
//   patlabor_cli route <in.nets> [--method <name>] [--params a,b,...]
//                      [--lut <path>] [--lambda N] [--jobs N]
//                      [--no-cache] [--csv <out.csv>] [--stats]
//                      [--trace <out.json>] [--events <out.jsonl>]
//                      [--events-deterministic] [--metrics-dump <out.prom>]
//   patlabor_cli route --list-methods
//   patlabor_cli lutgen <max_degree> <out.bin> [--jobs N] [--stats]
//                       [--trace <out.json>] [--checkpoint <ck.bin>]
//                       [--checkpoint-every N] [--resume]
//   patlabor_cli lut info <table.bin>   (alias: lutinfo)
//
// route --lut maps the format-v2 table read-only (open(), which verifies
// its checksums): queries serve straight from the page cache and
// concurrent processes share one physical copy.  lutgen --checkpoint
// makes generation atomically checkpoint its progress so a killed run
// continues with --resume, producing a content_hash-identical table; the
// PATLABOR_LUTGEN_ABORT_AFTER=N env var aborts after N merged patterns
// (exit code 75) to exercise exactly that path.
//
// lut info prints the container header, per-degree stats, section sizes
// and the content hash of a table or checkpoint file without loading any
// topology into the heap; for a checkpoint, also how far generation got.
//
// To route through a running patlabord instead, use patlabor_client route.
//
// route serves every request through engine::Engine: --method picks any
// registered constructor (--list-methods enumerates them), --params
// overrides its sweep parameters, and repeated PatLabor net shapes are
// answered from the canonicalization-keyed frontier cache (--no-cache or
// PATLABOR_CACHE=0 disables it; output is bit-identical either way).
//
// --jobs N (or the PATLABOR_JOBS env var) sets the thread-pool size for
// batch routing and LUT generation; the default is the hardware
// concurrency, and the output is bit-identical for every setting.
//
// --stats prints a per-phase time table plus every counter/histogram after
// the command; --trace additionally writes Chrome trace_event JSON openable
// in chrome://tracing or https://ui.perfetto.dev.  Either flag enables the
// observability runtime (see src/patlabor/obs/).
//
// --events writes one JSONL record per routed net (run manifest first; see
// src/patlabor/obs/events.hpp) for run-to-run diffing with
// patlabor_obsdiff; --events-deterministic omits timing/host fields so two
// runs of the same input are byte-identical for any --jobs value.
// --metrics-dump exposes the StatsRegistry in Prometheus text format,
// rewritten periodically while the command runs (SIGUSR1 forces a dump)
// and once more on exit.  Telemetry files are flushed even when the CLI
// exits on an error (atexit/terminate hooks).
//
// Net file format: see src/patlabor/io/netfile.hpp.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "patlabor/lut/lut_format.hpp"
#include "patlabor/obs/events.hpp"
#include "patlabor/obs/metrics.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/obs/report.hpp"
#include "patlabor/patlabor.hpp"

namespace {

using namespace patlabor;

/// Bad command line: message plus usage text, exit code 2.
struct CliError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  patlabor_cli gen <uniform|clustered|smoothed> <count> <degree> "
      "<out.nets> [seed] [kappa]\n"
      "  patlabor_cli route <in.nets> [--method <name>] [--params a,b,...] "
      "[--lut <path>] [--lambda N] [--jobs N] [--no-cache] "
      "[--csv <out.csv>] [--stats] [--trace <out.json>] "
      "[--events <out.jsonl>] [--events-deterministic] "
      "[--metrics-dump <out.prom>]\n"
      "  patlabor_cli route --list-methods\n"
      "  patlabor_cli lutgen <max_degree> <out.bin> [--jobs N] [--stats] "
      "[--trace <out.json>] [--checkpoint <ck.bin>] [--checkpoint-every N] "
      "[--resume]\n"
      "  patlabor_cli lut info <table.bin>\n");
  return 2;
}

std::uint64_t parse_count(const char* arg, const char* what,
                          std::uint64_t min_value = 0) {
  const auto v = util::parse_u64(arg);
  if (!v)
    throw CliError(std::string("invalid ") + what + " '" + arg +
                   "' (expected a non-negative integer)");
  if (*v < min_value)
    throw CliError(std::string(what) + " must be at least " +
                   std::to_string(min_value) + " (got '" + arg + "')");
  return *v;
}

double parse_real(const char* arg, const char* what) {
  const auto v = util::parse_double(arg);
  if (!v)
    throw CliError(std::string("invalid ") + what + " '" + arg +
                   "' (expected a number)");
  return *v;
}

/// Shared --stats/--trace/--metrics-dump handling: enables the obs runtime
/// up front, prints/writes the collected telemetry at scope exit.
///
/// finish() is idempotent and also runs from the destructor and from an
/// atexit hook, so the report is still written when an exception escapes
/// the command or something calls std::exit (the companion hook for
/// --events lives in obs::EventSink::flush_all).
class ObsSession {
 public:
  ObsSession(bool stats, std::string trace_path, std::string metrics_path = "")
      : stats_(stats),
        trace_path_(std::move(trace_path)),
        metrics_path_(std::move(metrics_path)) {
    if (!active()) return;
    obs::StatsRegistry::instance().reset();
    obs::clear_trace();
    obs::set_enabled(true);
    if (!metrics_path_.empty()) {
      obs::MetricsExporterOptions mopt;
      mopt.path = metrics_path_;
      mopt.dump_on_signal = true;
      exporter_ = std::make_unique<obs::MetricsExporter>(std::move(mopt));
    }
    g_active = this;
    static const bool hook_installed = [] {
      return std::atexit([] {
               if (g_active != nullptr) g_active->finish();
             }) == 0;
    }();
    (void)hook_installed;
  }

  ~ObsSession() { finish(); }

  bool active() const {
    return stats_ || !trace_path_.empty() || !metrics_path_.empty();
  }

  /// Call after the root span has closed.
  void finish() {
    if (finished_ || !active()) return;
    finished_ = true;
    g_active = nullptr;
    if (exporter_) {
      exporter_->stop();  // writes the final snapshot
      exporter_.reset();
      std::printf("metrics written to %s\n", metrics_path_.c_str());
    }
    obs::set_enabled(false);
    const auto events = obs::drain_trace();
    const auto phases = obs::aggregate_phases(events);
    if (stats_)
      obs::print_report(obs::StatsRegistry::instance().snapshot(), phases,
                        timer_.seconds());
    if (!trace_path_.empty()) {
      obs::write_trace_json(trace_path_, events);
      std::printf("trace written to %s (%zu spans)\n", trace_path_.c_str(),
                  events.size());
    }
  }

 private:
  static inline ObsSession* g_active = nullptr;

  bool stats_;
  bool finished_ = false;
  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<obs::MetricsExporter> exporter_;
  util::Timer timer_;
};

int cmd_gen(int argc, char** argv) {
  if (argc < 6) return usage();
  const std::string kind = argv[2];
  const auto count = static_cast<std::size_t>(
      parse_count(argv[3], "net count", /*min_value=*/1));
  const auto degree = static_cast<std::size_t>(
      parse_count(argv[4], "degree", /*min_value=*/2));
  const std::string out = argv[5];
  const std::uint64_t seed = argc >= 7 ? parse_count(argv[6], "seed") : 1;
  const double kappa = argc >= 8 ? parse_real(argv[7], "kappa") : 4.0;
  if (kind != "uniform" && kind != "clustered" && kind != "smoothed")
    throw CliError("unknown net kind '" + kind +
                   "' (expected uniform, clustered or smoothed)");

  util::Rng rng(seed);
  std::vector<geom::Net> nets;
  nets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    geom::Net net;
    if (kind == "uniform") {
      net = netgen::uniform_net(rng, degree);
    } else if (kind == "clustered") {
      net = netgen::clustered_net(rng, degree);
    } else {
      net = netgen::smoothed_net(rng, degree, kappa);
    }
    net.name = kind + "_" + std::to_string(i);
    nets.push_back(std::move(net));
  }
  io::write_nets(out, nets);
  std::printf("wrote %zu %s degree-%zu nets to %s\n", count, kind.c_str(),
              degree, out.c_str());
  return 0;
}

int list_methods() {
  std::printf("%-10s %-9s %-9s %s\n", "method", "frontier", "param",
              "description");
  for (const engine::MethodInfo& m : engine::kMethods) {
    const std::string param(m.sweep_param.empty() ? "-" : m.sweep_param);
    std::printf("%-10s %-9s %-9s %s\n", std::string(m.name).c_str(),
                m.produces_frontier      ? "yes"
                : m.sweep_param.empty() ? "single"
                                         : "sweep",
                param.c_str(), std::string(m.description).c_str());
  }
  return 0;
}

int cmd_route(int argc, char** argv) {
  // --list-methods anywhere on the line answers without routing.
  for (int i = 2; i < argc; ++i)
    if (std::strcmp(argv[i], "--list-methods") == 0) return list_methods();
  if (argc < 3) return usage();
  const std::string in = argv[2];
  std::string lut_path, csv_path, trace_path, events_path, metrics_path;
  engine::RouteRequest request;
  bool stats = false;
  bool no_cache = false;
  bool events_deterministic = false;
  std::size_t lambda = 9;
  std::size_t jobs = 0;  // 0 = default (PATLABOR_JOBS env / hardware)
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lut") == 0 && i + 1 < argc) {
      lut_path = argv[++i];
    } else if (std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
      request.method = argv[++i];
      try {
        engine::parse_method(request.method);
      } catch (const std::invalid_argument& e) {
        throw CliError(e.what());
      }
    } else if (std::strcmp(argv[i], "--params") == 0 && i + 1 < argc) {
      const std::string list = argv[++i];
      for (const std::string& field : util::split(list, ','))
        request.params.push_back(parse_real(field.c_str(), "sweep parameter"));
    } else if (std::strcmp(argv[i], "--lambda") == 0 && i + 1 < argc) {
      lambda = static_cast<std::size_t>(
          parse_count(argv[++i], "lambda", /*min_value=*/1));
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(
          parse_count(argv[++i], "jobs", /*min_value=*/1));
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      no_cache = true;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events_path = argv[++i];
    } else if (std::strcmp(argv[i], "--events-deterministic") == 0) {
      events_deterministic = true;
    } else if (std::strcmp(argv[i], "--metrics-dump") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (events_deterministic && events_path.empty())
    throw CliError("--events-deterministic requires --events <out.jsonl>");

  ObsSession obs_session(stats, trace_path, metrics_path);
  util::Timer timer;
  std::size_t points = 0, net_count = 0, hits = 0;
  engine::CacheStats cache_stats;
  bool cache_on = false;
  std::unique_ptr<obs::EventSink> events_sink;
  {
    PL_SPAN("cli.route");

    engine::EngineOptions eopt;
    eopt.lambda = lambda;
    if (no_cache) eopt.cache.enabled = false;
    if (jobs != 0) par::set_jobs(jobs);

    if (!events_path.empty()) {
      obs::EventSink::Options sopt;
      sopt.deterministic = events_deterministic;
      events_sink = std::make_unique<obs::EventSink>(events_path, sopt);
      obs::RunManifest manifest;
      manifest.tool = "patlabor_cli route";
      manifest.method = request.method;
      manifest.input = in;
      manifest.lambda = lambda;
      manifest.jobs = jobs;
      manifest.cache_enabled = engine::cache_is_enabled(eopt.cache);
      manifest.cache_capacity = eopt.cache.capacity;
      manifest.cache_shards = eopt.cache.shards;
      events_sink->write_manifest(manifest);
      eopt.events = events_sink.get();
    }

    engine::Engine eng(eopt);
    if (!lut_path.empty()) {
      PL_SPAN("lut.load");
      eng.adopt_table(lut::LookupTable::open(lut_path));
    }

    std::vector<geom::Net> nets;
    {
      PL_SPAN("io.read_nets");
      nets = io::read_nets(in);
    }
    net_count = nets.size();

    std::unique_ptr<io::CsvWriter> csv;
    if (!csv_path.empty())
      csv = std::make_unique<io::CsvWriter>(
          csv_path,
          std::vector<std::string>{"net", "degree", "wirelength", "delay"});

    const auto results = eng.route_batch(nets, request);
    for (std::size_t n = 0; n < nets.size(); ++n) {
      const geom::Net& net = nets[n];
      const auto& r = results[n];
      hits += r.cache_hit ? 1 : 0;
      std::printf("%s (degree %zu): %zu frontier points\n",
                  net.name.empty() ? "<net>" : net.name.c_str(), net.degree(),
                  r.frontier.size());
      for (const auto& s : r.frontier) {
        std::printf("  w=%lld d=%lld\n", static_cast<long long>(s.w),
                    static_cast<long long>(s.d));
        if (csv) csv->row({net.name, std::to_string(net.degree()),
                           io::CsvWriter::num(static_cast<long long>(s.w)),
                           io::CsvWriter::num(static_cast<long long>(s.d))});
        ++points;
      }
    }
    cache_stats = eng.cache_stats();
    cache_on = eng.cache_enabled();
  }
  std::printf("routed %zu nets (%zu frontier points) in %s\n", net_count,
              points, util::format_duration(timer.seconds()).c_str());
  if (events_sink) {
    events_sink->flush();
    std::printf("events written to %s (%zu records)\n",
                events_sink->path().c_str(), events_sink->emitted());
  }
  if (stats && cache_on)
    std::printf("frontier cache: %zu/%zu nets served from cache "
                "(%llu hits, %llu misses, %llu evictions)\n",
                hits, net_count,
                static_cast<unsigned long long>(cache_stats.hits),
                static_cast<unsigned long long>(cache_stats.misses),
                static_cast<unsigned long long>(cache_stats.evictions));
  obs_session.finish();
  return 0;
}

int cmd_lutgen(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto max_degree = static_cast<int>(
      parse_count(argv[2], "max_degree", /*min_value=*/4));
  if (max_degree > lut::kMaxLutDegree)
    throw CliError("max_degree must be in [4, " +
                   std::to_string(lut::kMaxLutDegree) + "]");
  const std::string out = argv[3];
  std::string trace_path;
  bool stats = false;
  lut::LookupTable::GenerateOptions gopt;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      par::set_jobs(static_cast<std::size_t>(
          parse_count(argv[++i], "jobs", /*min_value=*/1)));
    } else if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc) {
      gopt.checkpoint_path = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 &&
               i + 1 < argc) {
      gopt.checkpoint_every =
          parse_count(argv[++i], "checkpoint interval", /*min_value=*/1);
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      gopt.resume = true;
    } else {
      return usage();
    }
  }
  if (gopt.resume && gopt.checkpoint_path.empty())
    throw CliError("--resume requires --checkpoint <ck.bin>");
  if (const char* abort_env = std::getenv("PATLABOR_LUTGEN_ABORT_AFTER"))
    gopt.abort_after_patterns = parse_count(
        abort_env, "PATLABOR_LUTGEN_ABORT_AFTER", /*min_value=*/1);

  ObsSession obs_session(stats, trace_path);
  try {
    PL_SPAN("cli.lutgen");
    const lut::LookupTable table =
        lut::LookupTable::generate(max_degree, gopt);
    {
      PL_SPAN("lut.save");
      table.save(out);
    }
    // The finished table supersedes the checkpoint.
    if (!gopt.checkpoint_path.empty())
      std::remove(gopt.checkpoint_path.c_str());
  } catch (const lut::GenerationAborted& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::fprintf(stderr, "checkpoint left at %s; continue with --resume\n",
                 gopt.checkpoint_path.c_str());
    obs_session.finish();
    return 75;  // EX_TEMPFAIL: partial progress saved, rerun to continue
  }
  std::printf("lookup table (degrees 4..%d) saved to %s\n", max_degree,
              out.c_str());
  obs_session.finish();
  return 0;
}

/// lut info: container metadata straight off the file — header fields,
/// per-degree stats, section table, checksums, content hash — through a
/// read-only mapping, with no topology ever loaded into the heap.
int cmd_lutinfo(int argc, char** argv, int path_arg) {
  if (argc < path_arg + 1) return usage();
  const std::string path = argv[path_arg];
  const lut::TableFileReport rep = lut::inspect_table_file(path);
  std::printf("%s: PatLabor lookup table, format v%u%s\n", path.c_str(),
              lut::kFormatVersion,
              rep.checkpoint ? " (generation checkpoint)" : "");
  std::printf("  file size      %s bytes\n",
              util::with_commas(static_cast<std::int64_t>(rep.file_size))
                  .c_str());
  std::printf("  lambda         %u\n", rep.lambda);
  std::printf("  max degree     %d\n", rep.max_degree);
  std::printf("  content hash   %016llx (stored), %016llx (computed)%s\n",
              static_cast<unsigned long long>(rep.stored_content_hash),
              static_cast<unsigned long long>(rep.computed_content_hash),
              rep.stored_content_hash == rep.computed_content_hash
                  ? ""
                  : "  ** MISMATCH **");
  if (rep.checkpoint && !rep.stats.empty()) {
    // The resume point counts the merged patterns of the highest degree.
    const auto& [degree, st] = *rep.stats.rbegin();
    std::printf("  checkpoint     degree %d %s, %llu/%llu patterns merged\n",
                degree,
                rep.completed_patterns < st.patterns ? "in progress"
                                                     : "complete",
                static_cast<unsigned long long>(rep.completed_patterns),
                static_cast<unsigned long long>(st.patterns));
  }

  io::AsciiTable st_out({"Degree", "#Index", "#Topo avg", "Size (MB)",
                         "Gen time", "LP calls"});
  for (const auto& [degree, st] : rep.stats)
    st_out.add_row({std::to_string(degree),
                    util::with_commas(static_cast<std::int64_t>(st.indices)),
                    util::fixed(st.avg_topologies(), 2),
                    util::fixed(static_cast<double>(st.bytes) / 1e6, 3),
                    util::format_duration(st.gen_seconds),
                    util::with_commas(st.lp_calls)});
  st_out.print("per-degree stats");

  if (!rep.sections.empty()) {
    io::AsciiTable sec_out(
        {"Section", "Degree", "Entries", "Index B", "Blob B", "Checksums"});
    int si = 0;
    for (const auto& s : rep.sections) {
      sec_out.add_row(
          {std::to_string(si++), std::to_string(s.degree),
           util::with_commas(static_cast<std::int64_t>(s.entries)),
           util::with_commas(static_cast<std::int64_t>(s.index_bytes)),
           util::with_commas(static_cast<std::int64_t>(s.blob_bytes)),
           s.checksums_ok ? "ok" : "MISMATCH"});
    }
    sec_out.print("sections");
  }
  for (const auto& s : rep.sections)
    if (!s.checksums_ok) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "route") return cmd_route(argc, argv);
    if (cmd == "lutgen") return cmd_lutgen(argc, argv);
    if (cmd == "lutinfo") return cmd_lutinfo(argc, argv, 2);
    if (cmd == "lut" && argc >= 3 && std::strcmp(argv[2], "info") == 0)
      return cmd_lutinfo(argc, argv, 3);
    return usage();
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const io::NetFileError& e) {
    // Malformed input file: the message carries <path>:<line>.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
