#include "patlabor/lut/pattern.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "patlabor/geom/canonical.hpp"

namespace patlabor::lut {

static_assert(kNumTransforms == geom::kNumSymmetries,
              "rank-space transforms and geom symmetries are one group");

std::uint64_t pattern_code(const PinPattern& p) {
  std::uint64_t code = static_cast<std::uint64_t>(p.n);
  for (int i = 0; i < p.n; ++i)
    code = (code << 4) | p.perm[static_cast<std::size_t>(i)];
  return code;
}

std::uint64_t joint_code(const PinPattern& p) {
  return (pattern_code(p) << 4) | p.source;
}

// Rank space is the box [0, n-1] x [0, n-1]; the 8 rank-space transforms
// are geom::box_symmetry restricted to that square.
geom::Isometry rank_isometry(int t, int n) {
  return geom::box_symmetry(t, n - 1, n - 1);
}

RankPoint transform_point(RankPoint p, const geom::Isometry& iso) {
  const geom::Point q = iso.apply(geom::Point{p.x, p.y});
  return RankPoint{static_cast<std::uint8_t>(q.x),
                   static_cast<std::uint8_t>(q.y)};
}

RankPoint transform_point(RankPoint p, int t, int n) {
  return transform_point(p, rank_isometry(t, n));
}

RankPoint inverse_transform_point(RankPoint p, int t, int n) {
  return transform_point(p, rank_isometry(t, n).inverse());
}

PinPattern apply_transform(const PinPattern& p, int t) {
  const geom::Isometry iso = rank_isometry(t, p.n);
  PinPattern out;
  out.n = p.n;
  for (int i = 0; i < p.n; ++i) {
    const RankPoint q = transform_point(p.pin(i), iso);
    out.perm[q.x] = q.y;
    if (i == p.source) out.source = q.x;
  }
  return out;
}

namespace {

Canonical canonicalize(const PinPattern& p, bool with_source) {
  Canonical best;
  best.code = std::numeric_limits<std::uint64_t>::max();
  for (int t = 0; t < kNumTransforms; ++t) {
    const PinPattern q = apply_transform(p, t);
    const std::uint64_t code = with_source ? joint_code(q) : pattern_code(q);
    if (code < best.code) {
      best.code = code;
      best.pattern = q;
      best.transform = t;
    }
  }
  return best;
}

}  // namespace

Canonical canonical_joint(const PinPattern& p) { return canonicalize(p, true); }

Canonical canonical_pattern_only(const PinPattern& p) {
  return canonicalize(p, false);
}

PinPattern pattern_of(const geom::Net& net, RankCoords& xs, RankCoords& ys) {
  const auto n = static_cast<int>(net.degree());
  assert(n >= 2 && n <= kMaxLutDegree);
  const auto pin = [&](int i) -> const geom::Point& {
    return net.pins[static_cast<std::size_t>(i)];
  };

  std::array<int, kMaxLutDegree> by_x{}, by_y{}, yrank{};
  std::iota(by_x.begin(), by_x.begin() + n, 0);
  std::iota(by_y.begin(), by_y.begin() + n, 0);
  // Stable tie-break by pin index keeps degenerate nets deterministic;
  // tied ranks only create zero-length strips.
  std::sort(by_x.begin(), by_x.begin() + n, [&](int a, int b) {
    return pin(a).x != pin(b).x ? pin(a).x < pin(b).x : a < b;
  });
  std::sort(by_y.begin(), by_y.begin() + n, [&](int a, int b) {
    return pin(a).y != pin(b).y ? pin(a).y < pin(b).y : a < b;
  });
  for (int r = 0; r < n; ++r)
    yrank[static_cast<std::size_t>(by_y[static_cast<std::size_t>(r)])] = r;

  PinPattern pat;
  pat.n = n;
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const int p = by_x[ui];
    pat.perm[ui] = static_cast<std::uint8_t>(yrank[static_cast<std::size_t>(p)]);
    xs[ui] = pin(p).x;
    ys[ui] = pin(by_y[ui]).y;
    if (p == 0) pat.source = static_cast<std::uint8_t>(i);
  }
  return pat;
}

}  // namespace patlabor::lut
