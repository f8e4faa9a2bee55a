#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string_view>
#include <thread>

#include "patlabor/eval/curves.hpp"
#include "patlabor/eval/metrics.hpp"
#include "patlabor/io/csv.hpp"
#include "patlabor/io/netfile.hpp"
#include "patlabor/io/svg.hpp"
#include "patlabor/io/table.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/tree/routing_tree.hpp"
#include "patlabor/util/rng.hpp"
#include "netfile_reference.hpp"

namespace patlabor {
namespace {

using pareto::Objective;
using pareto::ObjVec;

// ---- eval::metrics ----

TEST(Metrics, NonOptimalDefinition) {
  const ObjVec frontier{{10, 30}, {20, 20}, {30, 10}};
  EXPECT_FALSE(eval::is_non_optimal(frontier, ObjVec{{20, 20}}));
  EXPECT_FALSE(eval::is_non_optimal(frontier, ObjVec{{25, 25}, {30, 10}}));
  EXPECT_TRUE(eval::is_non_optimal(frontier, ObjVec{{25, 25}}));
  EXPECT_TRUE(eval::is_non_optimal(frontier, ObjVec{}));
}

TEST(Metrics, OptimalityCounterAggregates) {
  eval::OptimalityCounter counter;
  const ObjVec frontier{{10, 30}, {30, 10}};
  counter.add(5, frontier, ObjVec{{10, 30}});          // found 1 of 2
  counter.add(5, frontier, ObjVec{{11, 31}});          // non-optimal
  counter.add(7, frontier, ObjVec{{10, 30}, {30, 10}});  // found all
  const auto& rows = counter.rows();
  ASSERT_TRUE(rows.count(5));
  EXPECT_EQ(rows.at(5).nets, 2u);
  EXPECT_EQ(rows.at(5).non_optimal, 1u);
  EXPECT_EQ(rows.at(5).frontier_total, 4u);
  EXPECT_EQ(rows.at(5).found, 1u);
  EXPECT_DOUBLE_EQ(counter.non_optimal_ratio(5), 0.5);
  EXPECT_DOUBLE_EQ(counter.non_optimal_ratio(7), 0.0);
  EXPECT_DOUBLE_EQ(counter.non_optimal_ratio(9), 0.0);  // unseen degree
}

TEST(Metrics, FrontierSizeStats) {
  eval::FrontierSizeStats stats;
  stats.add(5, 3);
  stats.add(5, 7);
  stats.add(5, 2);
  stats.add(6, 4);
  EXPECT_EQ(stats.max_by_degree().at(5), 7u);
  EXPECT_EQ(stats.max_by_degree().at(6), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(5), 4.0);
}

TEST(Metrics, LineFitRecoversExactLine) {
  const std::vector<double> xs{4, 5, 6, 7, 8, 9};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.85 * x - 10.9);
  const auto fit = eval::fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.85, 1e-9);
  EXPECT_NEAR(fit.intercept, -10.9, 1e-9);
}

// ---- eval::curves ----

TEST(Curves, AccumulatorAveragesAndTracksRuntime) {
  eval::CurveAccumulator acc;
  acc.add("m", ObjVec{{100, 200}, {200, 100}}, 100.0, 100.0);
  acc.add("m", ObjVec{{100, 400}, {200, 300}}, 100.0, 100.0);
  acc.add_runtime("m", 1.5);
  acc.add_runtime("m", 0.5);
  const std::vector<double> grid{1.0, 2.0};
  const auto avg = acc.average("m", grid);
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0].d, 3.0);  // (2 + 4) / 2
  EXPECT_DOUBLE_EQ(avg[1].d, 2.0);  // (1 + 3) / 2
  EXPECT_DOUBLE_EQ(acc.runtime("m"), 2.0);
  EXPECT_EQ(acc.net_count("m"), 2u);
  EXPECT_EQ(acc.methods(), std::vector<std::string>{"m"});
}

// ---- io ----

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/pl_test.csv";
  {
    io::CsvWriter csv(path, {"a", "b"});
    csv.row({"1,5", "plain"});
    csv.row({io::CsvWriter::num(3.25), io::CsvWriter::num(7LL)});
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "\"1,5\",plain");
  EXPECT_EQ(l3, "3.25,7");
  std::remove(path.c_str());
}

TEST(Table, RendersAlignedAscii) {
  io::AsciiTable t({"Degree", "#Net"});
  t.add_row({"4", "364670"});
  t.add_row({"Total", "904915"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Degree |"), std::string::npos);
  EXPECT_NE(s.find("364670"), std::string::npos);
  // All lines equally wide.
  std::size_t width = s.find('\n');
  for (std::size_t pos = 0; pos < s.size();) {
    const std::size_t next = s.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(NetFile, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/pl_nets.txt";
  std::vector<geom::Net> nets(2);
  nets[0].name = "a";
  nets[0].pins = {{0, 0}, {5, 5}};
  nets[1].pins = {{1, 2}, {3, 4}, {5, 6}};
  io::write_nets(path, nets);
  const auto loaded = io::read_nets(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name, "a");
  EXPECT_EQ(loaded[0].pins, nets[0].pins);
  EXPECT_TRUE(loaded[1].name.empty());
  EXPECT_EQ(loaded[1].pins, nets[1].pins);
  std::remove(path.c_str());
}

TEST(NetFile, RejectsMalformedInput) {
  const std::string path = ::testing::TempDir() + "/pl_bad.txt";
  {
    std::ofstream out(path);
    out << "net broken 3\n1 2\n";  // truncated
  }
  EXPECT_THROW(io::read_nets(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "pins 2\n";  // wrong tag
  }
  EXPECT_THROW(io::read_nets(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Writes `content` to a temp file and returns the NetFileError the loader
/// raises on it (failing the test if it does not throw).
io::NetFileError load_error(const std::string& content) {
  const std::string path = ::testing::TempDir() + "/pl_bad_detail.txt";
  {
    std::ofstream out(path);
    out << content;
  }
  try {
    io::read_nets(path);
  } catch (const io::NetFileError& e) {
    std::remove(path.c_str());
    return e;
  }
  std::remove(path.c_str());
  ADD_FAILURE() << "expected NetFileError on:\n" << content;
  return io::NetFileError(path, 0, "did not throw");
}

TEST(NetFile, ErrorsCarryTheOffendingLineNumber) {
  const io::NetFileError dup = load_error("net a 3\n1 2\n3 4\n1 2\n");
  EXPECT_EQ(dup.line(), 4u);
  EXPECT_NE(std::string(dup.what()).find(":4: duplicate pin (1, 2)"),
            std::string::npos)
      << dup.what();
  EXPECT_NE(std::string(dup.what()).find("first seen on line 2"),
            std::string::npos)
      << dup.what();

  const io::NetFileError deg = load_error("net tiny 1\n0 0\n");
  EXPECT_EQ(deg.line(), 1u);
  EXPECT_NE(std::string(deg.what()).find("degree must be at least 2"),
            std::string::npos)
      << deg.what();

  const io::NetFileError coord = load_error("net a 2\n0 0\n5 x\n");
  EXPECT_EQ(coord.line(), 3u);
  EXPECT_NE(std::string(coord.what()).find("non-numeric coordinate 'x'"),
            std::string::npos)
      << coord.what();

  const io::NetFileError extra = load_error("net a 2\n0 0\n1 2 3\n");
  EXPECT_EQ(extra.line(), 3u);

  const io::NetFileError header = load_error("net a two\n0 0\n1 1\n");
  EXPECT_EQ(header.line(), 1u);

  const io::NetFileError truncated = load_error("net a 3\n0 0\n1 1\n");
  EXPECT_GE(truncated.line(), 3u);
}

TEST(NetFile, CommentsAndBlankLinesAreAccepted) {
  const std::string path = ::testing::TempDir() + "/pl_commented.txt";
  {
    std::ofstream out(path);
    out << "# a hand-written instance\n"
           "\n"
           "net a 2  # trailing comment on the header\n"
           "0 0   # source\n"
           "\n"
           "5 5\n";
  }
  const auto nets = io::read_nets(path);
  ASSERT_EQ(nets.size(), 1u);
  EXPECT_EQ(nets[0].name, "a");
  const std::vector<geom::Point> expected{{0, 0}, {5, 5}};
  EXPECT_EQ(nets[0].pins, expected);
  std::remove(path.c_str());
}

TEST(NetFile, RejectsCoordinatesBeyondTheBound) {
  const io::NetFileError big =
      load_error("net big 3\n0 0\n1152921504606846976 5\n7 7\n");
  EXPECT_EQ(big.line(), 3u);
  EXPECT_NE(std::string(big.what())
                .find(":3: pin coordinate '1152921504606846976' beyond 2^36"),
            std::string::npos)
      << big.what();

  const io::NetFileError low = load_error("net a 2\n0 0\n5 -68719476737\n");
  EXPECT_EQ(low.line(), 3u);
  EXPECT_NE(std::string(low.what()).find("'-68719476737' beyond 2^36"),
            std::string::npos)
      << low.what();

  // ±2^36 itself is accepted.
  const std::string path = ::testing::TempDir() + "/pl_bound.txt";
  {
    std::ofstream out(path);
    out << "net edge 2\n68719476736 -68719476736\n0 0\n";
  }
  const auto nets = io::read_nets(path);
  ASSERT_EQ(nets.size(), 1u);
  const std::vector<geom::Point> expected{
      {geom::kMaxCoord, -geom::kMaxCoord}, {0, 0}};
  EXPECT_EQ(nets[0].pins, expected);
  std::remove(path.c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(NetFile, WriteMatchesGoldenBytes) {
  const std::string path = ::testing::TempDir() + "/pl_golden.nets";
  std::vector<geom::Net> nets(3);
  nets[0].name = "clk";
  nets[0].pins = {{0, 0}, {-17, 42}, {100000, -3}};
  nets[1].pins = {{std::numeric_limits<geom::Coord>::min(),
                   std::numeric_limits<geom::Coord>::max()},
                  {7, 7}};
  nets[2].name = "n2";
  io::write_nets(path, nets);
  EXPECT_EQ(file_bytes(path),
            "net clk 3\n0 0\n-17 42\n100000 -3\n"
            "net - 2\n-9223372036854775808 9223372036854775807\n7 7\n"
            "net n2 0\n");
  io::write_nets(path, {});
  EXPECT_EQ(file_bytes(path), "");
  std::remove(path.c_str());
}

TEST(NetFile, ReadsAnUnsizedFileToTheEnd) {
  // A FIFO has no size to read up front; 3,000 nets (over 64 KiB) make
  // the reader grow its buffer.
  const std::string path = ::testing::TempDir() + "/pl_fifo.nets";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::vector<geom::Net> nets(3000);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const auto c = static_cast<geom::Coord>(i);
    nets[i].name = "n" + std::to_string(i);
    nets[i].pins = {{c, -c}, {c + 100000, c}};
  }
  // A reader that stops early must fail the test, not kill it by SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::vector<geom::Net> loaded;
  {
    std::jthread writer([&] {
      try {
        io::write_nets(path, nets);
      } catch (const std::runtime_error&) {
      }
    });
    loaded = io::read_nets(path);
  }
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    EXPECT_EQ(loaded[i].name, nets[i].name);
    EXPECT_EQ(loaded[i].pins, nets[i].pins);
  }
}

// ---- one-pass reader vs the kept line-by-line reference ----

/// What a reader made of one file: its nets, or its NetFileError.
struct ReadOutcome {
  bool threw = false;
  std::vector<geom::Net> nets;
  std::string what;
  std::size_t line = 0;
};

template <class Reader>
ReadOutcome read_outcome(Reader read, const std::string& path) {
  ReadOutcome o;
  try {
    o.nets = read(path);
  } catch (const io::NetFileError& e) {
    o.threw = true;
    o.what = e.what();
    o.line = e.line();
  }
  return o;
}

bool same_nets(const std::vector<geom::Net>& a,
               const std::vector<geom::Net>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || a[i].pins != b[i].pins) return false;
  return true;
}

/// A valid net file: a few netgen nets, some unnamed, some translated to
/// negative coordinates, now and then one past the linear duplicate scan.
std::string valid_net_file(util::Rng& rng, const std::string& path) {
  std::vector<geom::Net> nets(1 + rng.index(4));
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const std::size_t degree =
        rng.bernoulli(0.05) ? 65 + rng.index(40) : 2 + rng.index(11);
    const geom::Coord window = rng.bernoulli(0.5) ? 100 : 100000;
    nets[i] = rng.bernoulli(0.5) ? netgen::uniform_net(rng, degree, window)
                                 : netgen::clustered_net(rng, degree, window);
    if (rng.bernoulli(0.3))
      for (geom::Point& p : nets[i].pins) p.x -= window / 2;
    if (!rng.bernoulli(0.3)) nets[i].name = "n" + std::to_string(i);
  }
  // A fresh file each time: rewriting a truncated one can force a flush
  // to disk per file on some file systems.
  std::remove(path.c_str());
  io::write_nets(path, nets);
  return file_bytes(path);
}

/// Start of a random run of digits in `s`, or npos when it has none.
std::size_t random_number_start(util::Rng& rng, const std::string& s) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (std::isdigit(static_cast<unsigned char>(s[i])) &&
        (i == 0 || !std::isdigit(static_cast<unsigned char>(s[i - 1]))))
      starts.push_back(i);
  return starts.empty() ? std::string::npos : starts[rng.index(starts.size())];
}

/// [begin, end) of every line of `s` (without its '\n').
std::vector<std::pair<std::size_t, std::size_t>> line_spans(
    const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t b = 0; b < s.size();) {
    const std::size_t e = std::min(s.find('\n', b), s.size());
    spans.emplace_back(b, e);
    b = e + 1;
  }
  return spans;
}

/// One random edit of a net file: byte flips, truncations, splices,
/// inserted separators and comment marks, signed / overflowing / beyond-
/// bound numbers, blank lines, a dropped final newline, a huge degree and
/// duplicated or dropped lines.
void mutate(util::Rng& rng, std::string& s) {
  static constexpr char kSpecial[] = {'#', '\r', '\t', '\v', '\f',
                                      '\0', ' ', '\n'};
  static constexpr const char* kNumbers[] = {
      "-0", "+0", "007", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809",
      "18446744073709551616", "68719476736", "68719476737",
      "-68719476737", "1152921504606846976", "1", "2"};
  static constexpr const char* kDegrees[] = {
      "1000000", "4294967297", "18446744073709551615", "0", "1", "-3",
      "+4"};
  const std::size_t pos = rng.index(s.size() + 1);
  switch (rng.index(10)) {
    case 0:  // byte flip
      if (!s.empty())
        s[rng.index(s.size())] = static_cast<char>(rng.index(256));
      break;
    case 1:  // truncation
      s.resize(pos);
      break;
    case 2: {  // splice a piece of the file into itself
      const std::size_t from = rng.index(s.size() + 1);
      const std::size_t len = rng.index(24);
      s.insert(pos, s.substr(from, len));
      break;
    }
    case 3:  // separator or comment mark
      s.insert(pos, 1, kSpecial[rng.index(std::size(kSpecial))]);
      break;
    case 4: {  // sign, overflow or bound edits on a number
      const std::size_t at = random_number_start(rng, s);
      if (at == std::string::npos) break;
      if (rng.bernoulli(0.3)) {
        s.insert(at, rng.bernoulli(0.5) ? "+" : "-");
      } else {
        std::size_t end = at;
        while (end < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[end])))
          ++end;
        s.replace(at, end - at, kNumbers[rng.index(std::size(kNumbers))]);
      }
      break;
    }
    case 5: {  // blank or comment-only line
      const std::size_t nl = s.find('\n', pos);
      if (nl == std::string::npos) break;
      static constexpr const char* kBlank[] = {"\n", "  \n", "# c\n",
                                               "# c # d\n", "\r\n", "\t#\n"};
      s.insert(nl + 1, kBlank[rng.index(std::size(kBlank))]);
      break;
    }
    case 6:  // no final newline
      if (!s.empty() && s.back() == '\n') s.pop_back();
      break;
    case 7: {  // huge or invalid degree on a header
      const std::size_t head = s.rfind("net ", pos);
      if (head == std::string::npos) break;
      const std::size_t sp = s.find(' ', head + 4);
      const std::size_t nl = s.find('\n', head);
      if (sp == std::string::npos || sp > nl) break;
      s.replace(sp + 1, std::min(nl, s.size()) - sp - 1,
                kDegrees[rng.index(std::size(kDegrees))]);
      break;
    }
    case 8: {  // one line copied over another (duplicate pins)
      const auto spans = line_spans(s);
      if (spans.size() < 2) break;
      const auto src = spans[rng.index(spans.size())];
      const auto dst = spans[rng.index(spans.size())];
      s.replace(dst.first, dst.second - dst.first,
                s.substr(src.first, src.second - src.first));
      break;
    }
    default: {  // a line dropped
      const auto spans = line_spans(s);
      if (spans.empty()) break;
      const auto line = spans[rng.index(spans.size())];
      s.erase(line.first,
              std::min(line.second + 1, s.size()) - line.first);
      break;
    }
  }
}

std::string escaped(std::string_view s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n\n";
    } else if (u < 0x20 || u >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

TEST(NetFileDiff, MutatedFilesMatchTheReferenceReader) {
  constexpr int kFiles = 2000;
  const std::string path = ::testing::TempDir() + "/pl_netfile_diff.nets";
  util::Rng rng(0x5EED2028);
  int parsed = 0;
  int rejected = 0;
  int mismatches = 0;
  std::set<std::string> reasons;
  for (int f = 0; f < kFiles && mismatches < 5; ++f) {
    std::string text = valid_net_file(rng, path);
    // One file in ten stays as written; the rest get one to three edits.
    const std::size_t edits = rng.index(10) == 0 ? 0 : 1 + rng.index(3);
    for (std::size_t e = 0; e < edits; ++e) mutate(rng, text);
    std::remove(path.c_str());
    {
      std::ofstream out(path, std::ios::binary);
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    const ReadOutcome want = read_outcome(testing::reference_read_nets, path);
    const ReadOutcome got = read_outcome(io::read_nets, path);
    const bool agree = want.threw == got.threw &&
                       (want.threw ? want.what == got.what &&
                                         want.line == got.line
                                   : same_nets(want.nets, got.nets));
    if (!agree) {
      ++mismatches;
      ADD_FAILURE() << "file " << f << ": reference "
                    << (want.threw ? want.what : "parsed") << ", one-pass "
                    << (got.threw ? got.what : "parsed") << "\n"
                    << escaped(text);
    }
    if (want.threw) {
      ++rejected;
      // The reason, without the "path:line: " prefix and quoted values.
      const std::string reason = want.what.substr(path.size() + 1);
      reasons.insert(reason.substr(reason.find(' ') + 1, 12));
    } else {
      ++parsed;
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(mismatches, 0);
  // Both outcomes and every kind of error occur, so the agreement is not
  // vacuous.
  EXPECT_GT(parsed, kFiles / 10);
  EXPECT_GT(rejected, kFiles / 10);
  for (const char* reason :
       {"expected 'ne", "malformed ne", "invalid degr", "degree must ",
        "truncated ne", "expected '<x", "non-numeric ", "pin coordina",
        "duplicate pi"})
    EXPECT_EQ(reasons.count(reason), 1u) << "no file raised: " << reason;
}

TEST(Svg, TreeAndCurveDocumentsAreWellFormedEnough) {
  geom::Net net;
  net.pins = {{0, 0}, {50, 80}, {90, 20}};
  const auto t = tree::RoutingTree::star(net);
  const std::string doc = io::tree_svg(t);
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("<rect"), std::string::npos);      // pins
  EXPECT_NE(doc.find("<polyline"), std::string::npos);  // edges

  const std::vector<io::LabeledCurve> curves{
      {"PatLabor", {{1.0, 2.0}, {1.5, 1.0}}}};
  const std::string cdoc = io::curves_svg(curves);
  EXPECT_NE(cdoc.find("PatLabor"), std::string::npos);
}

}  // namespace
}  // namespace patlabor
