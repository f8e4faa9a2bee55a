// serve_mixed: an in-process serve::Server (engine jobs = 2) fed by one
// pipelined serve::Client connection.  Half the requests come from a 32-net
// hot set that the server's cache already holds; the other half are unique
// degree-4..6 nets, fresh for every burst.
//
// The timed repetition is a closed-loop pipelined burst (send everything,
// read every reply): its wall time and CPU are steady enough to bound.  The
// traced run adds the open-loop Poisson rate ladder, timed from each
// request's scheduled send time, with the server's stage quantiles from the
// public Client::stats() frame at every rate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "patlabor/eval/metrics.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/serve/client.hpp"
#include "patlabor/serve/server.hpp"
#include "patlabor/util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kServeJobs = 2;
constexpr std::size_t kHotNets = 32;
constexpr std::size_t kBurst = 8000;  ///< requests per timed burst
constexpr int kSetups = 3;
/// Open-loop ladder (requests/s); the nominal rate is the one whose
/// latency the traced run reports.
constexpr double kLadder[] = {1000, 2000, 4000, 8000, 12000};
constexpr double kNominalRps = 2000;
/// A rate is "ok" when its p99 stays under this and the backlog does not
/// grow (achieved rate within 3% of offered).
constexpr double kLatLimitMs = 5.0;
/// A rate point is invalid when the generator sent this late (p99).
constexpr double kGenLateLimitMs = 1.0;
constexpr std::uint64_t kHotSeed = 0x407ULL, kColdSeed = 0xc01dULL;

struct Burst {
  std::vector<geom::Net> nets;
  std::vector<double> due;  ///< scheduled send time (s); empty = ASAP
};

/// Half hot-set requests, half unique nets drawn for this burst only.
Burst make_burst(const std::vector<geom::Net>& hot, std::uint64_t seed,
                 std::size_t k, std::size_t count) {
  Burst b;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + k);
  std::string prefix = "b";
  prefix += std::to_string(k);
  prefix += '_';
  std::vector<geom::Net> cold = unique_small_nets(rng.next(), count / 2, prefix);
  std::size_t c = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (c < cold.size() && (rng.bernoulli(0.5) || i + cold.size() - c >= count))
      b.nets.push_back(std::move(cold[c++]));
    else
      b.nets.push_back(hot[rng.index(hot.size())]);
  }
  return b;
}

struct Replies {
  std::vector<serve::WireRouteResponse> out;
  std::vector<char> answered;
  std::vector<double> sent_late;  ///< actual minus scheduled send time (s)
  std::vector<double> latency;    ///< reply time minus scheduled send (s)
  std::uint64_t errors = 0;
  double wall_s = 0.0;
};

/// Sends the burst over one pipelined connection (sender on this thread,
/// reader on another) and collects every reply by request id.
Replies exchange(serve::Client& client, const Burst& b) {
  Replies r;
  const std::size_t n = b.nets.size();
  r.out.resize(n);
  r.answered.assign(n, 0);
  r.sent_late.assign(n, 0.0);
  r.latency.assign(n, 0.0);
  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(n * 2);

  const double t0 = now_s();
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread reader([&] {
    try {
      for (std::size_t got = 0; got < n; ++got) {
        try {
          auto [id, resp] = client.read_route_reply();
          const double now = now_s() - t0;
          std::size_t i = 0;
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return index.count(id) != 0; });
            i = index.at(id);
          }
          r.latency[i] = now - (b.due.empty() ? 0.0 : b.due[i]);
          r.out[i] = std::move(resp);
          r.answered[i] = 1;
        } catch (const serve::ServeError&) {
          ++r.errors;  // an error frame answers (and fails) one request
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: reader stopped: %s\n", e.what());
    }
    done.set_value();
  });
  try {
    for (std::size_t i = 0; i < n; ++i) {
      if (!b.due.empty()) {
        const double lead = b.due[i] - (now_s() - t0);
        if (lead > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(lead));
        r.sent_late[i] = std::max(0.0, (now_s() - t0) - b.due[i]);
      }
      const std::uint64_t id = client.send_route(b.nets[i], {});
      {
        std::lock_guard<std::mutex> lock(mu);
        index[id] = i;
      }
      cv.notify_all();
    }
  } catch (const std::exception& e) {
    // Unsent requests stay unanswered and count as failures.
    std::fprintf(stderr, "serve: sender stopped: %s\n", e.what());
  }
  // A reply that never comes must not hang the benchmark.
  if (finished.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "serve: replies missing after 60 s; aborting\n");
    std::fflush(stderr);
    std::_Exit(3);
  }
  reader.join();
  r.wall_s = now_s() - t0;
  return r;
}

/// Compares every reply with a direct Engine::route_batch of the same nets.
std::uint64_t mismatches(const engine::Engine& direct, const Burst& b,
                         const Replies& r) {
  const auto want = direct.route_batch(b.nets);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i)
    bad += r.answered[i] && r.out[i].frontier == want[i].frontier ? 0 : 1;
  return bad;
}

struct Service {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Client> client;
  std::optional<lut::LookupTable> table;
  std::unique_ptr<engine::Engine> direct;
  std::vector<geom::Net> hot;
};

void set_up(const Options& opt, Service& s) {
  s.client.reset();
  s.server.reset();
  s.direct.reset();
  serve::ServerOptions so;
  so.socket_path = opt.out_dir + "/serve.sock";
  so.engine = engine_options(nullptr, kServeJobs);
  so.lut_path = opt.table_path;
  s.server = std::make_unique<serve::Server>(so);
  s.client = std::make_unique<serve::Client>(so.socket_path);
  s.table.reset();
  s.table.emplace(lut::LookupTable::open(opt.table_path));
  // The reference runs inline on this thread with its cache off: cache on
  // and off are bit-identical by contract, so the check does not lean on
  // the cache it checks, and its allocations stay in one arena instead of
  // blurring peak_rss_mb.
  engine::EngineOptions direct = engine_options(&*s.table, 1);
  direct.cache.enabled = false;
  s.direct = std::make_unique<engine::Engine>(direct);
  s.hot = unique_small_nets(opt.seed ^ kHotSeed, kHotNets, "hot");
  for (const geom::Net& net : s.hot) (void)s.client->route(net, {});
  // Warm-up bursts on nets no timed burst uses, enough to fill the server's
  // cache so every timed burst runs in the evicting steady state.
  for (std::size_t k = 0; k < 2; ++k)
    (void)exchange(*s.client,
                   make_burst(s.hot, opt.seed ^ kColdSeed, (1u << 20) + k, kBurst));
}

void run_ladder(const Options& opt, Service& s, Result& result) {
  obs::set_enabled(true);
  const double per_point =
      std::max(1.0, opt.seconds / static_cast<double>(std::size(kLadder)));
  double max_ok = 0.0;
  std::printf("%10s %10s %9s %9s %9s %9s %9s %9s %7s\n", "offered",
              "achieved", "p50_ms", "p99_ms", "late_ms", "qwait_us", "route_us",
              "write_us", "batch");
  for (std::size_t p = 0; p < std::size(kLadder); ++p) {
    const double rate = kLadder[p];
    const auto count = static_cast<std::size_t>(rate * per_point);
    Burst b = make_burst(s.hot, opt.seed, 1000 + p, count);
    util::Rng rng(opt.seed + 77 * p);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      t += -std::log(1.0 - rng.uniform01()) / rate;
      b.due.push_back(t);
    }
    obs::StatsRegistry::instance().reset();
    const auto before = s.server->stats();
    const Replies r = exchange(*s.client, b);
    const auto after = s.server->stats();
    const serve::WireStats ws = s.client->stats();
    obs::clear_trace();
    result.check("ladder replies vs direct engine @" +
                     std::to_string(static_cast<int>(rate)),
                 count, mismatches(*s.direct, b, r));

    const double achieved = static_cast<double>(count) / r.wall_s;
    const double p50 = percentile(r.latency, 50) * 1e3;
    const double p99 = percentile(r.latency, 99) * 1e3;
    const double late = percentile(r.sent_late, 99) * 1e3;
    const double batches = static_cast<double>(after.batches - before.batches);
    const double batch_mean =
        batches > 0 ? static_cast<double>(after.responses - before.responses) /
                          batches
                    : 0.0;
    std::printf("%10.0f %10.0f %9.3f %9.3f %9.3f %9llu %9llu %9llu %7.2f\n",
                rate, achieved, p50, p99, late,
                static_cast<unsigned long long>(ws.queue_wait.p50_us),
                static_cast<unsigned long long>(ws.route.p50_us),
                static_cast<unsigned long long>(ws.write.p50_us), batch_mean);
    if (p99 <= kLatLimitMs && achieved >= 0.97 * rate && late <= kGenLateLimitMs)
      max_ok = rate;
    if (rate == kNominalRps) {
      std::size_t hits = 0;
      for (std::size_t i = 0; i < count; ++i) hits += r.out[i].cache_hit ? 1 : 0;
      result.set("serve.queue_wait_p50_us",
                 static_cast<double>(ws.queue_wait.p50_us), "us",
                 ws.queue_wait.count);
      result.set("serve.route_p50_us", static_cast<double>(ws.route.p50_us),
                 "us", ws.route.count);
      result.set("serve.write_p50_us", static_cast<double>(ws.write.p50_us),
                 "us", ws.write.count);
      result.set("serve.batch_size_mean", batch_mean, "count");
      result.set("serve.gen_late_p99_ms", late, "ms", count);
      result.set("serve.lat_p50_ms", p50, "ms", count);
      result.set("serve.lat_p99_ms", p99, "ms", count);
      result.set("serve.lat_samples", static_cast<double>(count), "count");
      result.set("engine.cache.hit_ratio",
                 static_cast<double>(hits) / static_cast<double>(count), "frac",
                 count);
      result.set("engine.cache.lookups", static_cast<double>(count), "count");
    }
  }
  obs::set_enabled(false);
  result.set("serve.max_ok_rps", max_ok, "1/s");
  result.context["serve_lat_limit_ms"] = std::to_string(kLatLimitMs);
  result.context["serve_nominal_rps"] = std::to_string(kNominalRps);
}

}  // namespace

int run_serve(const Options& opt, Result& result) {
  Service s;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    set_up(opt, s);
    setups.push_back(now_s() - t0);
  }
  result.context["table_content_hash"] = hex64(s.table->content_hash());

  if (opt.trace) {
    // Tracing overhead: one burst with the obs runtime off, one with it on
    // (each with its own unique nets, so neither replays the other).
    const Burst a = make_burst(s.hot, opt.seed, 0, kBurst);
    const Burst b = make_burst(s.hot, opt.seed, 1, kBurst);
    const Replies plain = exchange(*s.client, a);
    obs::set_enabled(true);
    const Replies traced = exchange(*s.client, b);
    obs::set_enabled(false);
    obs::clear_trace();
    result.check("burst replies vs direct engine", 2 * kBurst,
                 mismatches(*s.direct, a, plain) +
                     mismatches(*s.direct, b, traced));
    result.set("trace.untraced_wall_s", plain.wall_s, "s");
    result.set("trace.traced_wall_s", traced.wall_s, "s");
    result.set("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0,
               "frac");
    run_ladder(opt, s, result);
  } else {
    result.set("setup_s", median(setups), "s", setups.size());
    Burst burst;
    std::vector<std::uint64_t> first;
    double hv = 0.0;
    std::uint64_t sent = 0, bad = 0, errors = 0;
    const std::vector<Rep> reps = repeat_for(
        opt.seconds,
        [&](std::size_t k) { burst = make_burst(s.hot, opt.seed, k, kBurst); },
        [&](std::size_t k) {
          const double c0 = process_cpu_seconds();
          const Replies r = exchange(*s.client, burst);
          const Rep rep{r.wall_s, process_cpu_seconds() - c0};
          sent += burst.nets.size();
          errors += r.errors;
          bad += mismatches(*s.direct, burst, r);
          if (k == 0)
            for (std::size_t i = 0; i < burst.nets.size(); ++i) {
              engine::RouteResponse rr;
              rr.frontier = r.out[i].frontier;
              first.push_back(response_digest(rr));
              hv += eval::net_hypervolume(r.out[i].frontier, burst.nets[i]);
            }
          return rep;
        });
    result.check("replies vs direct Engine::route_batch", sent, bad);
    result.context["error_frames"] = std::to_string(errors);
    const std::uint64_t digest = combine(first);
    result.context["frontier_digest"] = hex64(digest);
    if (!opt.expect_digest.empty())
      result.check("frontier digest vs recorded " + opt.expect_digest,
                   first.size(),
                   hex64(digest) == opt.expect_digest ? 0 : first.size());
    set_rep_metrics(result, reps, static_cast<double>(kBurst));
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("hv_total", hv, "hv");
  }
  s.client.reset();
  s.server->stop();
  return 0;
}

}  // namespace perfbench
