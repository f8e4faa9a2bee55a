#include "patlabor/obs/events.hpp"

#include "patlabor/obs/json.hpp"
#include "patlabor/obs/obs.hpp"

#include <algorithm>
#include <cinttypes>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace patlabor::obs {

namespace {

/// Live sinks for the exit-time flush.  The registry outlives every sink
/// (sinks unregister in their destructor) and is never destroyed — the
/// terminate hook may run during static destruction.
struct SinkRegistry {
  std::mutex mu;
  std::vector<EventSink*> sinks;
};

SinkRegistry& sink_registry() {
  static SinkRegistry* r = new SinkRegistry;  // intentionally leaked
  return *r;
}

/// Crash-time callbacks run after the sinks flush (same lifetime rules as
/// SinkRegistry: leaked, because terminate may run during static
/// destruction).
struct HookRegistry {
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> hooks;
  std::uint64_t next_token = 1;
};

HookRegistry& hook_registry() {
  static HookRegistry* r = new HookRegistry;  // intentionally leaked
  return *r;
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void flushing_terminate() {
  EventSink::flush_all();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

void install_exit_hooks_once() {
  static const bool installed = [] {
    std::atexit([] { EventSink::flush_all(); });
    g_prev_terminate = std::set_terminate(flushing_terminate);
    return true;
  }();
  (void)installed;
}

void append_kv(std::string& out, const char* key, const std::string& value) {
  out += '"';
  out += key;
  out += "\":";
  json::append_json_string(value, out);
}

template <typename Int>
void append_kv_int(std::string& out, const char* key, Int value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld",
                static_cast<long long>(value));
  out += '"';
  out += key;
  out += "\":";
  out += buf;
}

}  // namespace

std::uint64_t add_flush_hook(std::function<void()> hook) {
  install_exit_hooks_once();
  HookRegistry& reg = hook_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const std::uint64_t token = reg.next_token++;
  reg.hooks.emplace_back(token, std::move(hook));
  return token;
}

void remove_flush_hook(std::uint64_t token) {
  HookRegistry& reg = hook_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.hooks.erase(std::remove_if(reg.hooks.begin(), reg.hooks.end(),
                                 [token](const auto& h) {
                                   return h.first == token;
                                 }),
                  reg.hooks.end());
}

std::string build_git_sha() {
#ifdef PATLABOR_GIT_SHA
  return PATLABOR_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string build_flags() {
  // Fixed text: instrumentation is always built in, and existing event
  // files and obsdiff joins carry "obs=on".
  std::string flags = "obs=on";
#ifdef PATLABOR_BUILD_TYPE
  flags += ",type=";
  flags += PATLABOR_BUILD_TYPE;
#endif
  return flags;
}

std::string hostname() {
#ifndef _WIN32
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#ifndef _WIN32
  gmtime_r(&now, &tm);
#else
  tm = *std::gmtime(&now);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

EventSink::EventSink(const std::string& path, Options options)
    : path_(path), options_(options) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr)
    throw std::runtime_error("cannot open event file " + path);
  install_exit_hooks_once();
  SinkRegistry& reg = sink_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.sinks.push_back(this);
}

EventSink::~EventSink() {
  {
    SinkRegistry& reg = sink_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.sinks.erase(std::remove(reg.sinks.begin(), reg.sinks.end(), this),
                    reg.sinks.end());
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

void EventSink::write_manifest(const RunManifest& manifest) {
  RunManifest m = manifest;
  if (m.git_sha.empty()) m.git_sha = build_git_sha();
  if (m.build.empty()) m.build = build_flags();
  if (m.hostname.empty()) m.hostname = obs::hostname();
  if (m.timestamp.empty()) m.timestamp = iso8601_utc_now();

  std::string line = "{\"type\":\"manifest\",\"version\":1,";
  append_kv(line, "tool", m.tool);
  line += ',';
  append_kv(line, "method", m.method);
  line += ',';
  append_kv(line, "input", m.input);
  line += ',';
  append_kv(line, "git_sha", m.git_sha);
  line += ',';
  append_kv(line, "build", m.build);
  line += ',';
  append_kv_int(line, "lambda", m.lambda);
  line += ',';
  append_kv_int(line, "seed", m.seed);
  line += ",\"cache\":{\"enabled\":";
  line += m.cache_enabled ? "true" : "false";
  line += ',';
  append_kv_int(line, "capacity", m.cache_capacity);
  line += ',';
  append_kv_int(line, "shards", m.cache_shards);
  line += '}';
  if (!options_.deterministic) {
    line += ',';
    append_kv_int(line, "jobs", m.jobs);
    line += ',';
    append_kv(line, "hostname", m.hostname);
    line += ',';
    append_kv(line, "timestamp", m.timestamp);
  }
  for (const auto& [key, value] : m.extra) {
    line += ',';
    json::append_json_string(key, line);
    line += ':';
    json::append_json_string(value, line);
  }
  line += "}\n";
  write_line(line);
}

void EventSink::emit(const NetEvent& e) {
  // One lock for the whole emission: the sequence stamp for kNoIndex
  // events, the line formatting, and the write stay consistent.
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  line.reserve(256);
  line = "{\"type\":\"net\",";
  append_kv_int(line, "index",
                e.index == NetEvent::kNoIndex ? emitted_ : e.index);
  line += ',';
  append_kv(line, "net", e.net);
  if (!e.tag.empty()) {
    // Optional so untagged (pre-daemon) event files stay byte-identical.
    line += ',';
    append_kv(line, "tag", e.tag);
  }
  line += ',';
  append_kv_int(line, "degree", e.degree);
  {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, e.chash);
    line += ",\"chash\":\"";
    line += buf;
    line += '"';
  }
  line += ',';
  append_kv(line, "method", e.method);
  line += ',';
  append_kv(line, "regime", e.regime);
  // Hit vs miss depends on scheduling under a parallel batch (racing
  // inserts), so deterministic mode reduces the field to the cache config.
  line += ",\"cache\":\"";
  if (options_.deterministic)
    line += e.cache_enabled ? "on" : "off";
  else
    line += !e.cache_enabled ? "off" : e.cache_hit ? "hit" : "miss";
  line += '"';
  line += ',';
  append_kv_int(line, "frontier", e.frontier_size);
  line += ',';
  append_kv_int(line, "w_min", e.w_min);
  line += ',';
  append_kv_int(line, "w_max", e.w_max);
  line += ',';
  append_kv_int(line, "d_min", e.d_min);
  line += ',';
  append_kv_int(line, "d_max", e.d_max);
  {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", e.hypervolume);
    line += ",\"hv\":";
    line += buf;
  }
  line += ',';
  append_kv_int(line, "iters", e.iterations);
  if (!options_.deterministic) {
    line += ',';
    append_kv_int(line, "wall_us", e.wall_us);
    line += ',';
    append_kv_int(line, "cpu_us", e.cpu_us);
    // Service lifecycle fields: present only for daemon-served nets
    // (batch_size != 0) and, like wall/cpu, never in deterministic mode —
    // queue wait and batch packing are scheduling artifacts.
    if (e.batch_size != 0) {
      line += ',';
      append_kv_int(line, "queue_wait_us", e.queue_wait_us);
      line += ',';
      append_kv_int(line, "batch_id", e.batch_id);
      line += ',';
      append_kv_int(line, "batch_size", e.batch_size);
      line += ',';
      append_kv_int(line, "write_us", e.write_us);
    }
  }
  line += "}\n";

  ++emitted_;
  if (file_ != nullptr)
    std::fwrite(line.data(), 1, line.size(), file_);
}

std::size_t EventSink::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

void EventSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

void EventSink::flush_all() noexcept {
  {
    SinkRegistry& reg = sink_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (EventSink* sink : reg.sinks) sink->flush();
  }
  HookRegistry& hooks = hook_registry();
  std::lock_guard<std::mutex> lock(hooks.mu);
  for (const auto& [token, hook] : hooks.hooks)
    if (hook) hook();
}

void EventSink::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr)
    std::fwrite(line.data(), 1, line.size(), file_);
}

}  // namespace patlabor::obs
