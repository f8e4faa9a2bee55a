// Reference oracle: the line-by-line net-file reader.
//
// The library reads net files in one pass over a single read of the file
// (patlabor/io/netfile.cpp).  This header keeps the straightforward reader
// it replaced — std::getline per line, an istringstream per line for the
// tokens, a std::map per net for duplicate pins — plus the coordinate
// bound both readers enforce, so the tests can check that the one-pass
// reader returns the same nets and raises the same NetFileError (text and
// line) on any input.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "patlabor/geom/net.hpp"
#include "patlabor/io/netfile.hpp"
#include "patlabor/util/str.hpp"

namespace patlabor::testing {

namespace netfile_reference_detail {

/// Whitespace tokens of `line` with any '#' comment stripped first.
inline std::vector<std::string> tokens_of(const std::string& line) {
  std::string code = line.substr(0, line.find('#'));
  std::istringstream in(code);
  std::vector<std::string> toks;
  std::string t;
  while (in >> t) toks.push_back(t);
  return toks;
}

}  // namespace netfile_reference_detail

inline std::vector<geom::Net> reference_read_nets(const std::string& path) {
  using io::NetFileError;
  using netfile_reference_detail::tokens_of;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<geom::Net> nets;
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& reason) {
    throw NetFileError(path, line_no, reason);
  };
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> head = tokens_of(line);
    if (head.empty()) continue;
    if (head[0] != "net") fail("expected 'net <name> <degree>'");
    if (head.size() != 3)
      fail("malformed net header (expected 'net <name> <degree>', got " +
           std::to_string(head.size()) + " tokens)");
    const auto degree = util::parse_u64(head[2]);
    if (!degree) fail("invalid degree '" + head[2] + "'");
    if (*degree < 2)
      fail("degree must be at least 2 (one source, one sink), got " +
           head[2]);

    geom::Net net;
    net.name = head[1] == "-" ? "" : head[1];
    net.pins.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(*degree, 1u << 20)));
    // First-occurrence line of each pin, to report duplicates precisely.
    std::map<geom::Point, std::size_t> seen;
    for (std::uint64_t i = 0; i < *degree; ++i) {
      if (!std::getline(in, line)) {
        ++line_no;
        fail("truncated net '" + net.name + "' (" + std::to_string(i) +
             " of " + std::to_string(*degree) + " pins)");
      }
      ++line_no;
      const std::vector<std::string> coords = tokens_of(line);
      if (coords.empty()) {
        --i;  // blank / comment-only lines are allowed between pins
        continue;
      }
      if (coords.size() != 2)
        fail("expected '<x> <y>', got " + std::to_string(coords.size()) +
             " tokens");
      const auto x = util::parse_i64(coords[0]);
      const auto y = util::parse_i64(coords[1]);
      if (!x) fail("non-numeric coordinate '" + coords[0] + "'");
      if (!y) fail("non-numeric coordinate '" + coords[1] + "'");
      if (*x > geom::kMaxCoord || *x < -geom::kMaxCoord)
        fail("pin coordinate '" + coords[0] + "' beyond 2^36");
      if (*y > geom::kMaxCoord || *y < -geom::kMaxCoord)
        fail("pin coordinate '" + coords[1] + "' beyond 2^36");
      const geom::Point p{*x, *y};
      const auto [it, inserted] = seen.emplace(p, line_no);
      if (!inserted)
        fail("duplicate pin (" + coords[0] + ", " + coords[1] +
             "), first seen on line " + std::to_string(it->second));
      net.pins.push_back(p);
    }
    nets.push_back(std::move(net));
  }
  return nets;
}

}  // namespace patlabor::testing
