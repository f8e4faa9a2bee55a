#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_set>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/geom/canonical.hpp"
#include "patlabor/io/netfile.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/util/rng.hpp"

namespace perfbench {

// ---- result ---------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m = {name, value, unit, samples};
      return;
    }
  metrics.push_back({name, value, unit, samples});
}

void Result::check(const std::string& what, std::uint64_t total,
                   std::uint64_t bad) {
  attempted += total;
  failed += bad;
  if (bad != 0)
    notes.push_back("FAIL " + what + ": " + std::to_string(bad) + " of " +
                    std::to_string(total));
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int emit(const Options& opt, Result& result) {
  std::map<std::string, std::string> ctx = result.context;
  ctx["workload"] = opt.workload;
  ctx["seed"] = std::to_string(opt.seed);
  ctx["trace"] = opt.trace ? "1" : "0";
  ctx["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  ctx["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  ctx["build_type"] = PERFBENCH_BUILD_TYPE;
  ctx["patlabor_obs_compiled"] = obs::compiled_in() ? "1" : "0";
  ctx["patlabor_obs_runtime"] = opt.trace ? "on-in-traced-phases" : "off";
  ctx["git_sha"] = opt.git_sha;
  ctx["source_sha"] = opt.source_sha;
  ctx["jobs"] = std::to_string(kJobs);
  ctx["lambda"] = std::to_string(kLambda);

  std::printf("\n%-32s %16s  %-8s %s\n", "metric", "value", "unit",
              "samples");
  for (const auto& m : result.metrics)
    std::printf("%-32s %16.6g  %-8s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  const double frac = result.attempted == 0
                          ? 1.0
                          : static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted);
  std::printf("fail_frac = %llu / %llu = %g\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted), frac);
  for (const auto& n : result.notes) std::printf("note: %s\n", n.c_str());

  std::string line = "context {";
  bool first = true;
  for (const auto& [k, v] : ctx) {
    line += (first ? "\"" : ", \"") + json_escape(k) + "\": \"" +
            json_escape(v) + "\"";
    first = false;
  }
  std::printf("%s}\n", line.c_str());

  const bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  first = true;
  for (const auto& m : result.metrics) {
    json += (first ? "\"" : ", \"") + json_escape(m.name) +
            "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---- probes -------------------------------------------------------------

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void set_rep_metrics(Result& result, const std::vector<Rep>& reps,
                     double items) {
  std::vector<double> wall, cpu;
  for (const Rep& r : reps) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
  }
  const double w = median(wall), c = median(cpu);
  std::string each = "repetition walls (s):";
  for (double x : wall) {
    each += ' ';
    each += std::to_string(x);
  }
  result.notes.push_back(each);
  result.set("wall_s", w, "s", reps.size());
  result.set("cpu_s", c, "s", reps.size());
  result.set("items_per_s", w > 0 ? items / w : 0.0, "1/s", reps.size());
  result.set("items_per_cpu_s", c > 0 ? items / c : 0.0, "1/s", reps.size());
}

// ---- digests and the oracle ---------------------------------------------

std::uint64_t response_digest(const engine::RouteResponse& r) {
  Digest d;
  d.add(r.frontier.size());
  for (const auto& o : r.frontier) {
    d.add(static_cast<std::uint64_t>(o.w));
    d.add(static_cast<std::uint64_t>(o.d));
  }
  for (const auto& t : r.trees) d.add(t.structural_hash());
  return d.h;
}

std::uint64_t combine(const std::vector<std::uint64_t>& per_net) {
  Digest d;
  for (std::uint64_t h : per_net) d.add(h);
  return d.h;
}

std::uint64_t oracle_check(const std::vector<geom::Net>& nets,
                           const std::vector<pareto::SolutionSet>& frontiers,
                           std::size_t lambda, std::size_t samples,
                           std::uint64_t seed, std::size_t* checked) {
  std::vector<std::size_t> exact;
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (nets[i].degree() <= lambda) exact.push_back(i);
  util::Rng rng(seed ^ 0x07ac1e5eedULL);
  const bool all = samples >= exact.size();
  std::uint64_t bad = 0;
  std::size_t n = 0;
  for (; n < (all ? exact.size() : samples); ++n) {
    const std::size_t i = all ? exact[n] : exact[rng.index(exact.size())];
    const dw::ParetoDwResult truth = dw::pareto_dw(nets[i]);
    if (!(truth.frontier == frontiers[i])) ++bad;
  }
  if (checked != nullptr) *checked = n;
  return bad;
}

// ---- inputs ---------------------------------------------------------------

namespace {

std::string label(char kind, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%c%zu", kind, index);
  return buf;
}

bool distinct_pins(const geom::Net& net) {
  std::vector<geom::Point> p = net.pins;
  std::sort(p.begin(), p.end());
  return std::adjacent_find(p.begin(), p.end()) == p.end();
}

}  // namespace

std::vector<geom::Net> unique_small_nets(std::uint64_t seed, std::size_t count,
                                         const std::string& prefix) {
  util::Rng rng(seed);
  std::unordered_set<std::uint64_t> keys;
  std::vector<geom::Net> nets;
  nets.reserve(count);
  while (nets.size() < count) {
    geom::Net net = netgen::clustered_net(rng, 4 + rng.index(3));
    if (!distinct_pins(net) || !keys.insert(geom::canonicalize(net).key).second)
      continue;
    net.name = prefix;
    net.name += std::to_string(nets.size());
    nets.push_back(std::move(net));
  }
  return nets;
}

std::vector<geom::Net> iccad_mix_nets(std::uint64_t seed, double scale) {
  util::Rng rng(seed);
  std::vector<geom::Net> base;
  for (const auto& spec : netgen::iccad15_profile())
    for (geom::Net& net : netgen::generate_design(rng, spec, scale))
      if (distinct_pins(net)) base.push_back(std::move(net));
  for (std::size_t i = base.size(); i > 1; --i)
    std::swap(base[i - 1], base[rng.index(i)]);

  // Before each fresh net, with probability 1/2 repeat an earlier one, so
  // repeats make up about a third of the list.
  std::vector<geom::Net> nets;
  nets.reserve(base.size() * 3 / 2 + 1);
  for (geom::Net& fresh : base) {
    if (!nets.empty() && rng.bernoulli(0.5)) {
      geom::Net again = nets[rng.index(nets.size())];
      if (rng.bernoulli(0.5)) {
        const geom::Point shift{rng.uniform_int(1, 100000),
                                rng.uniform_int(1, 100000)};
        for (geom::Point& p : again.pins) p = {p.x + shift.x, p.y + shift.y};
      }
      again.name = label('r', nets.size());
      nets.push_back(std::move(again));
    }
    fresh.name = label('n', nets.size());
    nets.push_back(std::move(fresh));
  }
  return nets;
}

std::string write_input(const Options& opt, const std::string& stem,
                        const std::vector<geom::Net>& nets) {
  const std::string path = opt.out_dir + "/" + stem + ".nets";
  io::write_nets(path, nets);
  return path;
}

engine::EngineOptions engine_options(const lut::LookupTable* table,
                                     std::size_t jobs) {
  engine::EngineOptions o;
  o.lambda = kLambda;
  o.table = table;
  o.jobs = jobs;
  o.cache.enabled = true;  // as shipped, regardless of PATLABOR_CACHE
  return o;
}

// ---- tracer ---------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_generation{0};

struct LaneBinding {
  std::uint64_t generation = 0;
  Tracer::Lane* lane = nullptr;
};
thread_local LaneBinding t_binding;

}  // namespace

Tracer::Tracer() { begin(); }
Tracer::~Tracer() = default;

std::int64_t Tracer::clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::begin() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.clear();
  generation_ = ++g_generation;
  begin_ns_ = end_ns_ = clock_ns();
}

void Tracer::end() { end_ns_ = clock_ns(); }

Tracer::Lane& Tracer::lane() {
  if (t_binding.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->spans.reserve(1 << 14);
    t_binding = {generation_, lanes_.back().get()};
  }
  return *t_binding.lane;
}

Tracer::Scope::Scope(Tracer& t, const char* name) : lane_(&t.lane()) {
  index_ = static_cast<std::int32_t>(lane_->spans.size());
  Span s;
  s.name = name;
  s.parent = lane_->open.empty() ? -1 : lane_->open.back();
  s.depth = static_cast<std::uint32_t>(lane_->open.size());
  lane_->open.push_back(index_);
  s.start_ns = clock_ns();
  lane_->spans.push_back(s);
}

Tracer::Scope::~Scope() {
  lane_->spans[static_cast<std::size_t>(index_)].end_ns = clock_ns();
  lane_->open.pop_back();
}

void Tracer::inject(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lanes_.empty()) lanes_.push_back(std::make_unique<Lane>());
  lanes_.front()->spans.push_back(s);
}

namespace {

std::vector<std::int64_t> child_time(const std::vector<Tracer::Span>& spans) {
  std::vector<std::int64_t> child(spans.size(), 0);
  for (const Tracer::Span& s : spans)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  return child;
}

}  // namespace

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> out;
  for (const auto& lane : lanes_) {
    const std::vector<std::int64_t> child = child_time(lane->spans);
    for (std::size_t i = 0; i < lane->spans.size(); ++i) {
      const Span& s = lane->spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      Totals& t = out[s.name];
      ++t.count;
      t.total_s += dur;
      t.self_s += dur - static_cast<double>(child[i]) * 1e-9;
      t.max_s = std::max(t.max_s, dur);
    }
  }
  return out;
}

std::size_t Tracer::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bad = 0;
  for (const auto& lane : lanes_) {
    const auto& spans = lane->spans;
    const std::vector<std::int64_t> child = child_time(spans);
    std::int64_t top_sum = 0, last_end = begin_ns_;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      if (dur < 0 || dur - child[i] < 0) ++bad;
      if (s.start_ns < begin_ns_ || s.end_ns > end_ns_) ++bad;
      if (s.parent >= 0) {
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) ++bad;
      } else {
        // Top-level spans of one lane are sequential: never overlapping.
        if (s.start_ns < last_end) ++bad;
        last_end = s.end_ns;
        top_sum += dur;
      }
    }
    // Self times of a lane sum to its top-level time, which must fit in
    // the window.
    if (top_sum > end_ns_ - begin_ns_) ++bad;
  }
  return bad;
}

double Tracer::unattributed(std::size_t lanes,
                            const std::vector<std::string>& containers) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto is_container = [&](const char* name) {
    return std::find(containers.begin(), containers.end(), name) !=
           containers.end();
  };
  std::int64_t layer = 0;
  for (const auto& lane : lanes_)
    for (const Span& s : lane->spans) {
      if (is_container(s.name)) continue;
      // Count only outermost layer spans so nested layer calls are not
      // counted twice.
      bool outermost = true;
      for (std::int32_t p = s.parent; p >= 0;
           p = lane->spans[static_cast<std::size_t>(p)].parent)
        if (!is_container(lane->spans[static_cast<std::size_t>(p)].name)) {
          outermost = false;
          break;
        }
      if (outermost) layer += s.end_ns - s.start_ns;
    }
  const double capacity =
      static_cast<double>(lanes) * static_cast<double>(end_ns_ - begin_ns_);
  return capacity <= 0 ? 1.0 : 1.0 - static_cast<double>(layer) / capacity;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t l = 0; l < lanes_.size(); ++l)
    for (const Span& s : lanes_[l]->spans) {
      out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << l
          << ", \"ts\": " << (s.start_ns - begin_ns_) / 1000.0
          << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000.0 << "}";
      first = false;
    }
  out << "\n]}\n";
}

}  // namespace perfbench
