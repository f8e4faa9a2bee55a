// patlabor_client — command-line client for a running patlabord.
//
//   patlabor_client <socket> route <in.nets> [--method <name>]
//                   [--params a,b,...] [--csv <out.csv>] [--tag <id>]
//   patlabor_client <socket> ping
//   patlabor_client <socket> metrics
//   patlabor_client <socket> stats [--watch [interval_s]]
//   patlabor_client <socket> reload
//
// stats prints the daemon's live service introspection (queue depth,
// in-flight count, per-stage latency quantiles, per-client usage) from the
// kStatsRequest wire frame; --watch re-fetches and reprints every
// interval_s seconds (default 1) until interrupted.
//
// route pipelines every net in the file to the daemon (replies may arrive
// out of order; they are matched by request id) and prints the frontiers
// in net order, in the exact format of `patlabor_cli route`.  --csv writes
// the same CSV schema (net,degree,wirelength,delay) the CLI writes, so a
// daemon run and a direct run of the same input can be byte-compared:
//
//   patlabor_client /tmp/pl.sock route nets.nets --csv remote.csv
//   patlabor_cli route nets.nets --csv local.csv
//   cmp remote.csv local.csv
//
// --tag stamps every request with a client identity that shows up as the
// "tag" field of the daemon's JSONL event stream.
//
// Exit codes: 0 success, 1 transport/daemon error, 2 bad command line.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "patlabor/io/csv.hpp"
#include "patlabor/io/netfile.hpp"
#include "patlabor/serve/client.hpp"
#include "patlabor/util/str.hpp"
#include "patlabor/util/timer.hpp"

namespace {

using namespace patlabor;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  patlabor_client <socket> route <in.nets> [--method <name>] "
      "[--params a,b,...] [--csv <out.csv>] [--tag <id>]\n"
      "  patlabor_client <socket> ping\n"
      "  patlabor_client <socket> metrics\n"
      "  patlabor_client <socket> stats [--watch [interval_s]]\n"
      "  patlabor_client <socket> reload\n");
  return 2;
}

void print_stage(const char* name, const serve::WireStageStats& s) {
  std::printf("  %-12s count=%llu p50=%lluus p95=%lluus p99=%lluus\n", name,
              static_cast<unsigned long long>(s.count),
              static_cast<unsigned long long>(s.p50_us),
              static_cast<unsigned long long>(s.p95_us),
              static_cast<unsigned long long>(s.p99_us));
}

void print_stats(const serve::WireStats& s) {
  std::printf("queue_depth=%llu in_flight=%llu connections=%llu "
              "requests=%llu responses=%llu errors=%llu batches=%llu "
              "reloads=%llu\n",
              static_cast<unsigned long long>(s.queue_depth),
              static_cast<unsigned long long>(s.in_flight),
              static_cast<unsigned long long>(s.connections),
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.responses),
              static_cast<unsigned long long>(s.errors),
              static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.reloads));
  print_stage("queue_wait", s.queue_wait);
  print_stage("route", s.route);
  print_stage("write", s.write);
  for (const serve::WireClientStats& c : s.clients)
    std::printf("  client %-16s requests=%llu bytes=%llu errors=%llu\n",
                c.tag.empty() ? "(overflow)" : c.tag.c_str(),
                static_cast<unsigned long long>(c.requests),
                static_cast<unsigned long long>(c.bytes),
                static_cast<unsigned long long>(c.errors));
}

int cmd_stats(serve::Client& client, int argc, char** argv) {
  bool watch = false;
  double interval_s = 1.0;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--watch") == 0) {
      watch = true;
      if (i + 1 < argc) {
        const auto v = util::parse_double(argv[i + 1]);
        if (v && *v > 0) {
          interval_s = *v;
          ++i;
        }
      }
    } else {
      return usage();
    }
  }
  for (;;) {
    print_stats(client.stats());
    if (!watch) return 0;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}

int cmd_route(serve::Client& client, int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string in = argv[3];
  std::string csv_path;
  engine::RouteRequest request;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
      request.method = argv[++i];
    } else if (std::strcmp(argv[i], "--params") == 0 && i + 1 < argc) {
      for (const std::string& field : util::split(argv[++i], ',')) {
        const auto v = util::parse_double(field);
        if (!v) {
          std::fprintf(stderr, "error: invalid sweep parameter '%s'\n",
                       field.c_str());
          return 2;
        }
        request.params.push_back(*v);
      }
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tag") == 0 && i + 1 < argc) {
      client.set_tag(argv[++i]);
    } else {
      return usage();
    }
  }

  const std::vector<geom::Net> nets = io::read_nets(in);
  util::Timer timer;

  // Pipeline: all requests go out before any reply is read; the daemon is
  // free to coalesce them (plus other clients') into batches.  Replies are
  // matched back to their net by request id.
  std::map<std::uint64_t, std::size_t> id_to_index;
  for (std::size_t n = 0; n < nets.size(); ++n)
    id_to_index[client.send_route(nets[n], request)] = n;

  std::vector<serve::WireRouteResponse> responses(nets.size());
  for (std::size_t pending = nets.size(); pending > 0; --pending) {
    auto [id, response] = client.read_route_reply();
    const auto it = id_to_index.find(id);
    if (it == id_to_index.end())
      throw std::runtime_error("daemon answered unknown request id " +
                               std::to_string(id));
    responses[it->second] = std::move(response);
    id_to_index.erase(it);
  }

  std::unique_ptr<io::CsvWriter> csv;
  if (!csv_path.empty())
    csv = std::make_unique<io::CsvWriter>(
        csv_path,
        std::vector<std::string>{"net", "degree", "wirelength", "delay"});

  // Same per-net lines as `patlabor_cli route`, printed in net order.
  std::size_t points = 0, hits = 0;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const geom::Net& net = nets[n];
    const auto& r = responses[n];
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
  std::printf("routed %zu nets (%zu frontier points) in %s via daemon "
              "(%zu cache hits)\n",
              nets.size(), points,
              util::format_duration(timer.seconds()).c_str(), hits);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  try {
    serve::Client client(argv[1]);
    const std::string cmd = argv[2];
    if (cmd == "route") return cmd_route(client, argc, argv);
    if (cmd == "ping") {
      client.ping();
      std::printf("pong\n");
      return 0;
    }
    if (cmd == "metrics") {
      const std::string text = client.metrics();
      std::fwrite(text.data(), 1, text.size(), stdout);
      return 0;
    }
    if (cmd == "stats") return cmd_stats(client, argc, argv);
    if (cmd == "reload") {
      client.reload();
      std::printf("reload scheduled\n");
      return 0;
    }
    return usage();
  } catch (const serve::ServeError& e) {
    std::fprintf(stderr, "error (daemon): %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
