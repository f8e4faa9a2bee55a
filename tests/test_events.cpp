// Event sink: JSONL shape, manifest fields, deterministic byte-identical
// output across pool sizes (cache on and off), timing fields in full mode,
// and the flush-on-exit registry.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "patlabor/engine/engine.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/obs/events.hpp"
#include "patlabor/obs/json.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/util/rng.hpp"

namespace patlabor {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<obs::json::Value> parse_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<obs::json::Value> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto v = obs::json::parse(line);
    EXPECT_TRUE(v.has_value()) << path << ": bad JSON line: " << line;
    if (v) out.push_back(std::move(*v));
  }
  return out;
}

std::vector<geom::Net> mixed_nets(std::size_t count) {
  util::Rng rng(99);
  std::vector<geom::Net> nets;
  for (std::size_t i = 0; i < count; ++i) {
    geom::Net net = netgen::clustered_net(rng, 4 + i % 8);  // degrees 4..11
    net.name = "n" + std::to_string(i);
    nets.push_back(std::move(net));
  }
  return nets;
}

/// Routes `nets` through an engine with an attached sink and returns the
/// file path.  `jobs` sizes the private pool.
std::string route_with_events(const std::vector<geom::Net>& nets,
                              const std::string& path, std::size_t jobs,
                              bool deterministic, bool cache) {
  obs::EventSink::Options sopt;
  sopt.deterministic = deterministic;
  obs::EventSink sink(path, sopt);
  obs::RunManifest manifest;
  manifest.tool = "test_events";
  manifest.method = "patlabor";
  manifest.input = "mixed_nets";
  manifest.lambda = 6;
  manifest.jobs = jobs;
  manifest.seed = 99;
  manifest.cache_enabled = cache;
  sink.write_manifest(manifest);

  engine::EngineOptions eopt;
  eopt.lambda = 6;
  eopt.jobs = jobs;
  eopt.cache.enabled = cache;
  eopt.events = &sink;
  const engine::Engine eng(eopt);
  eng.route_batch(nets);
  sink.flush();
  return path;
}

TEST(EventSink, EmitsOneValidJsonRecordPerNetPlusManifest) {
  if (!obs::compiled_in())
    GTEST_SKIP() << "built without PATLABOR_OBS: engine emits no events";
  const auto nets = mixed_nets(6);
  const std::string path = "events_basic.jsonl";
  route_with_events(nets, path, 1, /*deterministic=*/false, /*cache=*/true);

  const auto lines = parse_lines(path);
  ASSERT_EQ(lines.size(), nets.size() + 1);

  const obs::json::Value& manifest = lines[0];
  EXPECT_EQ(manifest.find("type")->str, "manifest");
  EXPECT_EQ(manifest.find("tool")->str, "test_events");
  EXPECT_NE(manifest.find("git_sha"), nullptr);
  EXPECT_NE(manifest.find("build"), nullptr);
  EXPECT_NE(manifest.find("hostname"), nullptr);
  EXPECT_NE(manifest.find("timestamp"), nullptr);
  EXPECT_DOUBLE_EQ(manifest.find("jobs")->number, 1.0);
  ASSERT_NE(manifest.find("cache"), nullptr);
  EXPECT_TRUE(manifest.find("cache")->find("enabled")->boolean);

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const obs::json::Value& rec = lines[i];
    EXPECT_EQ(rec.find("type")->str, "net");
    // Ordered flush: index i-1 on line i, names in input order.
    EXPECT_DOUBLE_EQ(rec.find("index")->number,
                     static_cast<double>(i - 1));
    EXPECT_EQ(rec.find("net")->str, nets[i - 1].name);
    EXPECT_EQ(static_cast<std::size_t>(rec.find("degree")->number),
              nets[i - 1].degree());
    EXPECT_EQ(rec.find("chash")->str.size(), 16u);  // %016x
    const std::string regime = rec.find("regime")->str;
    EXPECT_TRUE(regime == "exact" || regime == "local") << regime;
    const std::string cache = rec.find("cache")->str;
    EXPECT_TRUE(cache == "hit" || cache == "miss") << cache;
    EXPECT_GE(rec.find("frontier")->number, 1.0);
    EXPECT_LE(rec.find("w_min")->number, rec.find("w_max")->number);
    EXPECT_LE(rec.find("d_min")->number, rec.find("d_max")->number);
    const double hv = rec.find("hv")->number;
    EXPECT_GE(hv, 0.0);
    EXPECT_LE(hv, 1.0);
    // Full (non-deterministic) mode carries per-net timing.
    EXPECT_NE(rec.find("wall_us"), nullptr);
    EXPECT_NE(rec.find("cpu_us"), nullptr);
  }
  std::remove(path.c_str());
}

TEST(EventSink, DeterministicFilesAreByteIdenticalAcrossJobs) {
  if (!obs::compiled_in())
    GTEST_SKIP() << "built without PATLABOR_OBS: engine emits no events";
  const auto nets = mixed_nets(12);
  for (bool cache : {true, false}) {
    const std::string p1 = "events_det_j1.jsonl";
    route_with_events(nets, p1, 1, /*deterministic=*/true, cache);
    const std::string a = read_file(p1);
    EXPECT_FALSE(a.empty());
    // Every pool width must reproduce the jobs=1 file byte-for-byte; nets
    // finish out of order across lanes at these widths, and jobs=8
    // oversubscribes most CI boxes, but the ordered flush must still
    // serialize records in input order.
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
      const std::string pn = "events_det_jn.jsonl";
      route_with_events(nets, pn, jobs, /*deterministic=*/true, cache);
      EXPECT_EQ(a, read_file(pn))
          << "cache=" << cache
          << ": deterministic event files differ between jobs 1 and jobs "
          << jobs;
      std::remove(pn.c_str());
    }
    // Golden shape: deterministic records never carry timing or hit/miss.
    EXPECT_EQ(a.find("wall_us"), std::string::npos);
    EXPECT_EQ(a.find("cpu_us"), std::string::npos);
    EXPECT_EQ(a.find("\"hit\""), std::string::npos);
    EXPECT_EQ(a.find("\"miss\""), std::string::npos);
    EXPECT_EQ(a.find("hostname"), std::string::npos);
    EXPECT_EQ(a.find("timestamp"), std::string::npos);
    std::remove(p1.c_str());
  }
}

TEST(EventSink, DeterministicRunsAreByteIdenticalAcrossRepeats) {
  if (!obs::compiled_in())
    GTEST_SKIP() << "built without PATLABOR_OBS: engine emits no events";
  const auto nets = mixed_nets(8);
  const std::string p1 = "events_rep_1.jsonl";
  const std::string p2 = "events_rep_2.jsonl";
  route_with_events(nets, p1, 3, /*deterministic=*/true, /*cache=*/true);
  route_with_events(nets, p2, 3, /*deterministic=*/true, /*cache=*/true);
  EXPECT_EQ(read_file(p1), read_file(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(EventSink, SingleRouteStampsEmissionSequence) {
  if (!obs::compiled_in())
    GTEST_SKIP() << "built without PATLABOR_OBS: engine emits no events";
  const auto nets = mixed_nets(3);
  const std::string path = "events_single.jsonl";
  {
    obs::EventSink sink(path);
    engine::EngineOptions eopt;
    eopt.lambda = 6;
    eopt.events = &sink;
    const engine::Engine eng(eopt);
    for (const geom::Net& net : nets) eng.route(net, {});
    EXPECT_EQ(sink.emitted(), nets.size());
  }
  const auto lines = parse_lines(path);
  ASSERT_EQ(lines.size(), nets.size());  // no manifest written here
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_DOUBLE_EQ(lines[i].find("index")->number, static_cast<double>(i));
  std::remove(path.c_str());
}

TEST(EventSink, EscapesNetNamesIntoValidJson) {
  const std::string path = "events_escape.jsonl";
  {
    obs::EventSink sink(path);
    obs::NetEvent ev;
    ev.net = "weird \"name\"\twith\\escapes\n";
    ev.method = "patlabor";
    ev.regime = "exact";
    sink.emit(ev);
  }
  const auto lines = parse_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("net")->str, "weird \"name\"\twith\\escapes\n");
  std::remove(path.c_str());
}

TEST(EventSink, FlushAllFlushesLiveSinks) {
  const std::string path = "events_flushall.jsonl";
  obs::EventSink sink(path);
  obs::NetEvent ev;
  ev.net = "buffered";
  ev.method = "patlabor";
  ev.regime = "exact";
  sink.emit(ev);
  // The atexit/terminate hook path: everything buffered lands on disk.
  obs::EventSink::flush_all();
  EXPECT_NE(read_file(path).find("buffered"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventSink, ThrowsOnUnwritablePath) {
  EXPECT_THROW(obs::EventSink("/nonexistent-dir/events.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace patlabor
