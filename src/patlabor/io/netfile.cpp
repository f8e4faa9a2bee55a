#include "patlabor/io/netfile.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "patlabor/util/str.hpp"

namespace patlabor::io {

void write_nets(const std::string& path, const std::vector<geom::Net>& nets) {
  std::string text;
  std::size_t pins = 0;
  for (const geom::Net& net : nets) pins += net.pins.size();
  text.reserve(nets.size() * 16 + pins * 12);
  char num[24];
  const auto put = [&](auto v) {
    text.append(num, std::to_chars(num, num + sizeof num, v).ptr);
  };
  for (const geom::Net& net : nets) {
    text += "net ";
    text += net.name.empty() ? "-" : net.name;
    text += ' ';
    put(net.degree());
    text += '\n';
    for (const geom::Point& p : net.pins) {
      put(p.x);
      text += ' ';
      put(p.y);
      text += '\n';
    }
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("write failed: " + path);
}

namespace {

/// Declared degrees up to this find duplicate pins by a linear scan over
/// the pins read so far; larger ones use a hash set.
constexpr std::uint64_t kLinearDuplicateScanMax = 32;

/// The whole file, read with one read of its size (a pipe or other
/// unsized file is read until end of file).
std::string read_file(const std::string& path) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) throw std::runtime_error("cannot open " + path);
  struct stat st {};
  // One byte beyond the size, so the read that sees end of file needs no
  // second allocation.
  std::string text(::fstat(::fileno(f.get()), &st) == 0 && S_ISREG(st.st_mode)
                       ? static_cast<std::size_t>(st.st_size) + 1
                       : std::size_t{1} << 16,
                   '\0');
  std::size_t used = 0;
  while (true) {
    used += std::fread(text.data() + used, 1, text.size() - used, f.get());
    if (used < text.size()) break;  // end of file or error
    text.resize(2 * text.size());
  }
  if (std::ferror(f.get())) throw std::runtime_error("cannot read " + path);
  text.resize(used);
  return text;
}

/// Cuts the next '\n'-terminated line off `rest` (the last line may lack
/// the '\n'); false once `rest` is empty, as std::getline.
bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t end = rest.find('\n');
  line = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end + 1);
  return true;
}

/// The whitespace of `istream >>` in the C locale.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// The first three whitespace tokens of a line, '#' comment stripped, and
/// how many tokens it has in all.
struct Tokens {
  std::array<std::string_view, 3> tok;
  std::size_t count = 0;
};

Tokens tokens_of(std::string_view line) {
  line = line.substr(0, line.find('#'));
  Tokens t;
  std::size_t i = 0;
  while (true) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size()) return t;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (t.count < t.tok.size()) t.tok[t.count] = line.substr(start, i - start);
    ++t.count;
  }
}

}  // namespace

std::vector<geom::Net> read_nets(const std::string& path) {
  const std::string text = read_file(path);
  std::string_view rest = text;
  std::string_view line;
  std::vector<geom::Net> nets;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& reason) {
    throw NetFileError(path, line_no, reason);
  };
  // Line of each pin of the current net, to report duplicates precisely.
  std::vector<std::size_t> pin_lines;
  std::unordered_set<geom::Point, geom::PointHash> seen;
  while (next_line(rest, line)) {
    ++line_no;
    const Tokens head = tokens_of(line);
    if (head.count == 0) continue;
    if (head.tok[0] != "net") fail("expected 'net <name> <degree>'");
    if (head.count != 3)
      fail("malformed net header (expected 'net <name> <degree>', got " +
           std::to_string(head.count) + " tokens)");
    const auto degree = util::parse_u64(head.tok[2]);
    if (!degree) fail("invalid degree '" + std::string(head.tok[2]) + "'");
    if (*degree < 2)
      fail("degree must be at least 2 (one source, one sink), got " +
           std::string(head.tok[2]));

    geom::Net net;
    if (head.tok[1] != "-") net.name = head.tok[1];
    const auto cap = static_cast<std::size_t>(
        std::min<std::uint64_t>(*degree, 1u << 20));
    net.pins.reserve(cap);
    pin_lines.clear();
    pin_lines.reserve(cap);
    const bool hashed = *degree > kLinearDuplicateScanMax;
    seen.clear();
    for (std::uint64_t i = 0; i < *degree;) {
      ++line_no;
      if (!next_line(rest, line))
        fail("truncated net '" + net.name + "' (" + std::to_string(i) +
             " of " + std::to_string(*degree) + " pins)");
      const Tokens coords = tokens_of(line);
      if (coords.count == 0) continue;  // blank / comment-only line
      if (coords.count != 2)
        fail("expected '<x> <y>', got " + std::to_string(coords.count) +
             " tokens");
      const auto x = util::parse_i64(coords.tok[0]);
      const auto y = util::parse_i64(coords.tok[1]);
      if (!x)
        fail("non-numeric coordinate '" + std::string(coords.tok[0]) + "'");
      if (!y)
        fail("non-numeric coordinate '" + std::string(coords.tok[1]) + "'");
      if (!geom::within_coord_bound(*x))
        fail("pin coordinate '" + std::string(coords.tok[0]) +
             "' beyond 2^36");
      if (!geom::within_coord_bound(*y))
        fail("pin coordinate '" + std::string(coords.tok[1]) +
             "' beyond 2^36");
      const geom::Point p{*x, *y};
      const bool duplicate =
          hashed ? !seen.insert(p).second
                 : std::find(net.pins.begin(), net.pins.end(), p) !=
                       net.pins.end();
      if (duplicate) {
        const auto first = std::find(net.pins.begin(), net.pins.end(), p);
        fail("duplicate pin (" + std::string(coords.tok[0]) + ", " +
             std::string(coords.tok[1]) + "), first seen on line " +
             std::to_string(pin_lines[first - net.pins.begin()]));
      }
      net.pins.push_back(p);
      pin_lines.push_back(line_no);
      ++i;
    }
    nets.push_back(std::move(net));
  }
  return nets;
}

}  // namespace patlabor::io
