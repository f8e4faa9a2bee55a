#include "patlabor/serve/flight_recorder.hpp"

#include <cstdio>
#include <stdexcept>

namespace patlabor::serve {

void FlightRecorder::start(const RequestTrace& t) {
  std::lock_guard<std::mutex> lock(mu_);
  live_[{t.conn_id, t.request_id}] = t;
}

void FlightRecorder::complete(const RequestTrace& t) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase({t.conn_id, t.request_id});
  ring_.push_back(t);
  if (ring_.size() > capacity_) ring_.pop_front();
}

FlightRecorder::DumpStats FlightRecorder::dump(const std::string& path) const {
  std::string out;
  DumpStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve((live_.size() + ring_.size()) * 256);
    for (const auto& [key, t] : live_) append_trace_jsonl(t, true, out);
    for (const RequestTrace& t : ring_) append_trace_jsonl(t, false, out);
    stats.in_flight = live_.size();
    stats.completed = ring_.size();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("cannot open flight dump file " + path);
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = written == out.size() && std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("failed writing flight dump " + path);
  return stats;
}

std::vector<std::pair<RequestTrace, bool>> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<RequestTrace, bool>> out;
  out.reserve(live_.size() + ring_.size());
  for (const auto& [key, t] : live_) out.emplace_back(t, true);
  for (const RequestTrace& t : ring_) out.emplace_back(t, false);
  return out;
}

std::size_t FlightRecorder::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

}  // namespace patlabor::serve
