// Basic planar geometry under the rectilinear (L1) metric.
//
// Coordinates are 64-bit integers (database units), matching VLSI practice;
// all wirelength/delay arithmetic in the library is exact integer math.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>

namespace patlabor::geom {

/// Integer coordinate type (database units).
using Coord = std::int64_t;

/// Wirelength / delay value type.
using Length = std::int64_t;

/// Largest |coordinate| a net read from outside (a net file, a daemon
/// request) may carry: 2^36.  The router's int64 length sums of any net
/// of up to 2^20 pins stay far from overflow under it.
inline constexpr Coord kMaxCoord = Coord{1} << 36;

/// True iff `c` lies within [-kMaxCoord, kMaxCoord].
constexpr bool within_coord_bound(Coord c) {
  return c >= -kMaxCoord && c <= kMaxCoord;
}

/// A point in the plane.
struct Point {
  Coord x = 0;
  Coord y = 0;

  friend constexpr bool operator==(const Point&, const Point&) = default;

  /// Lexicographic (x, then y) order; used for canonical sorting.
  friend constexpr bool operator<(const Point& a, const Point& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  }
};

/// Rectilinear (Manhattan, L1) distance.
constexpr Length l1(const Point& a, const Point& b) {
  const Coord dx = a.x >= b.x ? a.x - b.x : b.x - a.x;
  const Coord dy = a.y >= b.y ? a.y - b.y : b.y - a.y;
  return dx + dy;
}

/// Hash functor so Point can key unordered containers.
struct PointHash {
  std::size_t operator()(const Point& p) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(p.x) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<std::uint64_t>(p.y) + 0x9E3779B97F4A7C15ULL + (h << 6) +
         (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace patlabor::geom
