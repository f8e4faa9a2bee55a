// A simple text format for nets, so experiments and examples can exchange
// instances:
//
//   net <name> <degree>
//   <x> <y>          # source first, then sinks
//   ...
//
// Blank lines are skipped and '#' starts a comment (to end of line, also
// after tokens).  Tokens are separated by the whitespace of `istream >>`
// in the C locale: space, '\t', '\n', '\v', '\f' and '\r'; lines end at
// '\n'.  A name of "-" stands for the empty name.  Coordinates are
// decimal int64 values with |c| <= 2^36 (geom::kMaxCoord).  The reader is
// strict: a malformed header, non-numeric or extra tokens, a degree below
// 2, a coordinate beyond 2^36, a truncated net, or duplicate pins raise
// NetFileError carrying the offending line number — never UB or a silent
// zero from atoll-style parsing.  It reads the file with one read and
// parses it in one pass.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "patlabor/geom/net.hpp"

namespace patlabor::io {

/// Malformed net file.  what() reads "<path>:<line>: <reason>".
class NetFileError : public std::runtime_error {
 public:
  NetFileError(const std::string& path, std::size_t line,
               const std::string& reason)
      : std::runtime_error(path + ":" + std::to_string(line) + ": " + reason),
        line_(line) {}

  /// 1-based line number of the offending input line.
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Writes nets to a file; throws on I/O errors.
void write_nets(const std::string& path, const std::vector<geom::Net>& nets);

/// Reads nets; throws NetFileError on malformed input and
/// std::runtime_error when the file cannot be opened or read.
std::vector<geom::Net> read_nets(const std::string& path);

}  // namespace patlabor::io
