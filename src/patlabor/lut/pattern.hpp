// Pin patterns and their canonicalization under the 8 square symmetries.
//
// A degree-n net's Hanan-grid *pattern* abstracts away coordinates: sort
// pins by x, record each pin's y rank (a permutation) and which x-rank is
// the source.  Following FLUTE and Section V-A of the paper, the lookup
// table is indexed by the pattern; patterns equivalent under mirror /
// rotation transformations share one entry (paper: "if two patterns are
// equivalent under mirror and rotation transformations, only one pattern is
// needed").
//
// Ties in coordinates are broken stably by pin index, which only creates
// zero-length Hanan strips — the parametric solutions remain exact.
#pragma once

#include <array>
#include <cstdint>

#include "patlabor/geom/canonical.hpp"
#include "patlabor/geom/net.hpp"

namespace patlabor::lut {

/// Largest degree the lookup-table machinery supports (the paper's λ).
inline constexpr int kMaxLutDegree = 9;

/// A point in rank space: both coordinates in [0, n).
struct RankPoint {
  std::uint8_t x = 0;
  std::uint8_t y = 0;
  friend constexpr bool operator==(const RankPoint&, const RankPoint&) =
      default;
};

/// The pattern of a degree-n net.
struct PinPattern {
  int n = 0;
  /// perm[i] = y rank of the pin with x rank i (a permutation of 0..n-1).
  std::array<std::uint8_t, kMaxLutDegree> perm{};
  /// x rank of the source pin.
  std::uint8_t source = 0;

  /// Rank-space position of the pin with x rank i.
  RankPoint pin(int i) const {
    return RankPoint{static_cast<std::uint8_t>(i), perm[static_cast<std::size_t>(i)]};
  }

  friend bool operator==(const PinPattern&, const PinPattern&) = default;
};

/// Compact integer code of the permutation only (source excluded);
/// n <= 9 so 4 bits per digit suffice.
std::uint64_t pattern_code(const PinPattern& p);

/// Compact integer code including the source index.
std::uint64_t joint_code(const PinPattern& p);

/// The 8 symmetries of the square, encoded as bit flags applied in order:
/// bit0 = transpose (swap x/y), bit1 = flip x, bit2 = flip y.
inline constexpr int kNumTransforms = 8;

/// The isometry of transform t on the degree-n rank square [0, n-1]^2.
/// Build it once and apply it to many points with transform_point(p, iso);
/// its inverse() undoes it.
geom::Isometry rank_isometry(int t, int n);

/// Applies a rank-square isometry to a rank-space point.
RankPoint transform_point(RankPoint p, const geom::Isometry& iso);

/// Applies transform t to a rank-space point.
RankPoint transform_point(RankPoint p, int t, int n);

/// Inverse of transform_point: transform_point(inverse_transform_point(p)) == p.
RankPoint inverse_transform_point(RankPoint p, int t, int n);

/// Applies transform t to a whole pattern (points re-sorted by new x rank).
PinPattern apply_transform(const PinPattern& p, int t);

/// A canonicalization result: the canonical pattern, its code, and the
/// transform that maps the *input* pattern onto the canonical one.
struct Canonical {
  PinPattern pattern;
  int transform = 0;
  std::uint64_t code = 0;
};

/// Canonical form under all 8 transforms, source included in the code.
Canonical canonical_joint(const PinPattern& p);

/// Canonical form ignoring the source (used to share one DP run across all
/// n source choices of the same pattern).
Canonical canonical_pattern_only(const PinPattern& p);

/// Sorted pin coordinates of a net, indexed by rank (first n entries).
using RankCoords = std::array<geom::Coord, kMaxLutDegree>;

/// Extracts the pattern of a net, plus the sorted coordinate arrays needed
/// to map rank-space topologies back to actual coordinates:
/// xs[i] = x coordinate of the pin with x rank i (ditto ys).
PinPattern pattern_of(const geom::Net& net, RankCoords& xs, RankCoords& ys);

}  // namespace patlabor::lut
