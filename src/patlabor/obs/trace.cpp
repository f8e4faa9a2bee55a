#include "patlabor/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "patlabor/obs/json.hpp"

namespace patlabor::obs {

namespace {

// Per-thread event buffer.  `depth` is touched only by the owning thread;
// `events` is shared with drain_trace()/clear_trace() and mutex-protected.
struct ThreadBuf {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::string name;  // lane name; set via set_thread_name, mu-protected
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
};

struct BufRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  std::uint32_t next_tid = 1;
};

// Immortal: pool workers may still register trace lanes while static
// destruction runs at exit, so the registry is never destroyed.
BufRegistry& buf_registry() {
  static BufRegistry* r = new BufRegistry;
  return *r;
}

ThreadBuf& local_buf() {
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    BufRegistry& r = buf_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    b->tid = r.next_tid++;
    r.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

/// Virtual-lane buffer by tid, nullptr for thread-bound or unknown tids.
std::shared_ptr<ThreadBuf> lane_buf(std::uint32_t tid) {
  BufRegistry& r = buf_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs)
    if (b->tid == tid) return b;
  return nullptr;
}

}  // namespace

void set_thread_name(std::string name) {
  ThreadBuf& b = local_buf();
  std::lock_guard<std::mutex> lock(b.mu);
  b.name = std::move(name);
}

std::uint32_t alloc_lane(std::string name) {
  auto b = std::make_shared<ThreadBuf>();
  b->name = std::move(name);
  BufRegistry& r = buf_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  b->tid = r.next_tid++;
  r.bufs.push_back(std::move(b));
  return r.bufs.back()->tid;
}

void record_span_in_lane(std::uint32_t tid, std::string name,
                         std::uint64_t ts_us, std::uint64_t dur_us,
                         std::uint32_t depth) {
  if (!enabled()) return;
  const std::shared_ptr<ThreadBuf> b = lane_buf(tid);
  if (b == nullptr) return;
  TraceEvent e;
  e.name = std::move(name);
  e.tid = tid;
  e.depth = depth;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  std::lock_guard<std::mutex> lock(b->mu);
  b->events.push_back(std::move(e));
}

std::vector<std::pair<std::uint32_t, std::string>> thread_names() {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  BufRegistry& r = buf_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    if (!b->name.empty()) out.emplace_back(b->tid, b->name);
  }
  return out;
}

std::uint64_t now_us() noexcept {
  static const auto t0 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

TraceSpan::TraceSpan(const char* name) noexcept : name_(name) {
  if (!enabled()) return;
  active_ = true;
  ThreadBuf& b = local_buf();
  depth_ = b.depth++;
  start_us_ = now_us();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const std::uint64_t end = now_us();
  ThreadBuf& b = local_buf();
  --b.depth;
  TraceEvent e;
  e.name = name_;
  e.tid = b.tid;
  e.depth = depth_;
  e.ts_us = start_us_;
  e.dur_us = end - start_us_;
  std::lock_guard<std::mutex> lock(b.mu);
  b.events.push_back(std::move(e));
}

std::vector<TraceEvent> drain_trace() {
  std::vector<TraceEvent> out;
  BufRegistry& r = buf_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    out.insert(out.end(), std::make_move_iterator(b->events.begin()),
               std::make_move_iterator(b->events.end()));
    b->events.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.depth < b.depth;
            });
  return out;
}

void clear_trace() {
  BufRegistry& r = buf_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->events.clear();
  }
}

std::string trace_json(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  // Lane names (pool workers etc.) as Chrome thread_name metadata events.
  for (const auto& [tid, name] : thread_names()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":";
    json::append_json_string(name, out);
    out += "}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    json::append_json_string(e.name, out);
    out += ",\"cat\":\"patlabor\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(e.ts_us);
    out += ",\"dur\":";
    out += std::to_string(e.dur_us);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"args\":{\"depth\":";
    out += std::to_string(e.depth);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void write_trace_json(const std::string& path,
                      const std::vector<TraceEvent>& events) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << trace_json(events) << "\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace patlabor::obs
