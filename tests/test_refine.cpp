#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "patlabor/geom/box.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/mst.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/tree/refine.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::Net;
using geom::Point;
using tree::RefineMode;
using tree::RoutingTree;
using geom::Length;

// The parent-walk edge substitution, kept as the differential oracle for
// tree::edge_substitution_pass: the same candidates and delay bookkeeping,
// with every subtree test a RoutingTree::in_subtree walk.
bool reference_edge_substitution_pass(RoutingTree& t, RefineMode mode) {
  constexpr Length kNegInf = std::numeric_limits<Length>::min() / 4;
  const std::size_t n = t.num_nodes();
  const std::vector<Length> pl = t.path_lengths();
  std::vector<Length> in(n, kNegInf), out(n, kNegInf);
  const auto ch = t.children();
  std::vector<std::size_t> order;
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    order.push_back(u);
    for (std::int32_t c : ch[u]) stack.push_back(static_cast<std::size_t>(c));
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t u = *it;
    if (u >= 1 && t.is_pin(u)) in[u] = pl[u];
    for (std::int32_t c : ch[u])
      in[u] = std::max(in[u], in[static_cast<std::size_t>(c)]);
  }
  for (std::size_t u : order) {
    const Length self = (u >= 1 && t.is_pin(u)) ? pl[u] : kNegInf;
    const auto& cs = ch[u];
    for (std::size_t i = 0; i < cs.size(); ++i) {
      Length others = kNegInf;
      for (std::size_t k = 0; k < cs.size(); ++k)
        if (k != i) others = std::max(others, in[static_cast<std::size_t>(cs[k])]);
      out[static_cast<std::size_t>(cs[i])] = std::max({out[u], self, others});
    }
  }
  auto delay_after_shift = [&](std::size_t v, Length delta) {
    const Length inside = in[v] == kNegInf ? kNegInf : in[v] + delta;
    return std::max<Length>(std::max(inside, out[v]), 0);
  };

  const Length w0 = t.wirelength();
  const Length d0 = t.delay();
  auto accept = [&](Length w, Length d) {
    switch (mode) {
      case RefineMode::kWirelength:
        return w < w0 && d <= d0;
      case RefineMode::kDelay:
        return d < d0 && w <= w0;
      case RefineMode::kEither:
        return (w < w0 && d <= d0) || (d < d0 && w <= w0);
    }
    return false;
  };
  bool have = false;
  Length best_gain = 0;
  std::size_t bv = 0, bc = 0, bu = 0;
  bool via_edge = false;
  Point bq{};
  auto offer = [&](Length w, Length d, std::size_t v, bool edge,
                   std::size_t target, Point q) {
    if (!accept(w, d)) return;
    const Length gain = (w0 - w) + (d0 - d);
    if (have && gain <= best_gain) return;
    have = true;
    best_gain = gain;
    bv = v;
    via_edge = edge;
    (edge ? bc : bu) = target;
    bq = q;
  };
  for (std::size_t v = 1; v < n; ++v) {
    const auto old_parent = static_cast<std::size_t>(t.parent(v));
    const Length old_len = geom::l1(t.node(v), t.node(old_parent));
    for (std::size_t u = 0; u < n; ++u) {
      if (u == old_parent || t.in_subtree(u, v)) continue;
      const Length len = geom::l1(t.node(v), t.node(u));
      offer(w0 - old_len + len,
            delay_after_shift(v, pl[u] + len - pl[v]), v, false, u, {});
    }
    for (std::size_t c = 1; c < n; ++c) {
      if (c == v) continue;
      const auto p = static_cast<std::size_t>(t.parent(c));
      if (t.in_subtree(c, v) || t.in_subtree(p, v)) continue;
      geom::BBox bb;
      bb.expand(t.node(c));
      bb.expand(t.node(p));
      const Point q = bb.project(t.node(v));
      if (q == t.node(c) || q == t.node(p)) continue;
      const Length len = geom::l1(t.node(v), q);
      const Length pl_q = pl[p] + geom::l1(t.node(p), q);
      offer(w0 - old_len + len, delay_after_shift(v, pl_q + len - pl[v]), v,
            true, c, q);
    }
  }
  if (!have) return false;
  if (via_edge) {
    const auto q = t.add_steiner(bq, t.parent(bc));
    t.set_parent(bc, static_cast<std::int32_t>(q));
    t.set_parent(bv, static_cast<std::int32_t>(q));
  } else {
    t.set_parent(bv, static_cast<std::int32_t>(bu));
  }
  return true;
}

// Random Steiner insertions and re-parentings that keep a tree valid, so
// the differential test also sees unnormalized, oddly shaped trees.
void scramble(RoutingTree& t, util::Rng& rng, int moves) {
  for (int m = 0; m < moves; ++m) {
    const std::size_t n = t.num_nodes();
    if (rng.index(2) == 0) {
      const Point a = t.node(rng.index(n));
      const Point b = t.node(rng.index(n));
      const Point s{std::min(a.x, b.x), std::max(a.y, b.y)};
      t.add_steiner(s, static_cast<std::int32_t>(rng.index(n)));
    } else {
      const std::size_t v = 1 + rng.index(n - 1);
      const std::size_t u = rng.index(n);
      if (!t.in_subtree(u, v))
        t.set_parent(v, static_cast<std::int32_t>(u));
    }
  }
}

// The rescan-from-0 Steinerization, kept as the differential oracle for
// tree::steinerize: after every merge it rebuilds the children lists and
// restarts the scan at node 0.
Length reference_steinerize(RoutingTree& t) {
  auto median3 = [](const Point& a, const Point& b, const Point& c) {
    auto med = [](geom::Coord x, geom::Coord y, geom::Coord z) {
      return std::max(std::min(x, y), std::min(std::max(x, y), z));
    };
    return Point{med(a.x, b.x, c.x), med(a.y, b.y, c.y)};
  };
  Length saved = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto ch = t.children();
    for (std::size_t p = 0; p < t.num_nodes(); ++p) {
      const auto& cs = ch[p];
      if (cs.size() < 2) continue;
      Length best_gain = 0;
      std::size_t bi = 0, bj = 0;
      Point best_s{};
      for (std::size_t i = 0; i < cs.size(); ++i) {
        for (std::size_t j = i + 1; j < cs.size(); ++j) {
          const Point s = median3(t.node(p),
                                  t.node(static_cast<std::size_t>(cs[i])),
                                  t.node(static_cast<std::size_t>(cs[j])));
          const Length gain = geom::l1(t.node(p), s);
          if (gain > best_gain) {
            best_gain = gain;
            bi = static_cast<std::size_t>(cs[i]);
            bj = static_cast<std::size_t>(cs[j]);
            best_s = s;
          }
        }
      }
      if (best_gain > 0) {
        const auto s = t.add_steiner(best_s, static_cast<std::int32_t>(p));
        t.set_parent(bi, static_cast<std::int32_t>(s));
        t.set_parent(bj, static_cast<std::int32_t>(s));
        saved += best_gain;
        changed = true;
        break;
      }
    }
  }
  return saved;
}

// Degenerate geometry for the differential tests: Steiner nodes placed on
// pins, either spliced above the pin (a zero-length parent edge) or hung
// below it as a leaf.
void add_coincident_steiners(RoutingTree& t, util::Rng& rng, int count) {
  for (int k = 0; k < count; ++k) {
    const std::size_t u = 1 + rng.index(t.num_pins() - 1);
    if (rng.index(2) == 0) {
      const auto s = t.add_steiner(t.node(u), t.parent(u));
      t.set_parent(u, static_cast<std::int32_t>(s));
    } else {
      t.add_steiner(t.node(u), static_cast<std::int32_t>(u));
    }
  }
}

// Nets for the differential tests, cycling through the shapes that stress
// tie-breaks: general position, tie-heavy 6 x 6 and 12 x 12 windows (many
// duplicate pins and zero-length edges at high degree), clustered nets and
// collinear pins.
Net differential_net(util::Rng& rng, int it, std::size_t degree) {
  switch (it % 6) {
    case 0:
      return testing::random_net(rng, degree, 1000);
    case 1:
      return testing::random_net(rng, degree, 6, /*allow_ties=*/true);
    case 2:
      return testing::random_net(rng, degree, 12, /*allow_ties=*/true);
    case 3:
      return netgen::clustered_net(rng, degree);
    case 4:
      return netgen::clustered_net(rng, degree, 40);
    default: {
      // Pins on one or two axis-parallel lines.
      Net net;
      const bool two = rng.index(2) == 0;
      for (std::size_t i = 0; i < degree; ++i) {
        const geom::Coord a = rng.uniform_int(0, 30);
        const geom::Coord b = two && rng.index(2) == 0 ? 7 : 0;
        net.pins.push_back(it % 12 < 6 ? Point{a, b} : Point{b, a});
      }
      return net;
    }
  }
}

TEST(Steinerize, SameMergesAsRescanReference) {
  util::Rng rng(27);
  int trees = 0;
  Length total_saved = 0;
  for (int it = 0; it < 72; ++it) {
    const std::size_t degree = 3 + rng.index(62);  // 3..64
    const Net net = differential_net(rng, it, degree);
    std::vector<RoutingTree> inputs{RoutingTree::star(net), rsmt::rsmt(net),
                                    rsma::rsma(net), rsmt::rsmt(net),
                                    RoutingTree::star(net)};
    scramble(inputs[3], rng, 16);
    scramble(inputs[4], rng, 16);
    add_coincident_steiners(inputs[4], rng, 6);
    for (const RoutingTree& t0 : inputs) {
      ASSERT_TRUE(t0.validate().empty()) << t0.validate();
      RoutingTree got = t0;
      RoutingTree want = t0;
      const Length saved = tree::steinerize(got);
      ASSERT_EQ(saved, reference_steinerize(want)) << "net " << it;
      ASSERT_EQ(got.nodes(), want.nodes()) << "net " << it;
      ASSERT_EQ(got.parents(), want.parents()) << "net " << it;
      total_saved += saved;
      ++trees;
    }
  }
  EXPECT_EQ(trees, 360);
  EXPECT_GT(total_saved, 0);
}

TEST(Steinerize, MergesSharedLPrefix) {
  // Source at origin, two sinks sharing a long common trunk: the star costs
  // 2*(10+1) = 22; a Steiner point at (10,0)... median(0,0 /10,1 /10,-1) is
  // (10,0): wirelength drops to 10 + 1 + 1 = 12.
  Net net;
  net.pins = {{0, 0}, {10, 1}, {10, -1}};
  RoutingTree t = RoutingTree::star(net);
  const auto saved = tree::steinerize(t);
  EXPECT_EQ(saved, 10);
  EXPECT_EQ(t.wirelength(), 12);
  EXPECT_EQ(t.delay(), 11);  // unchanged: medians lie on monotone paths
  EXPECT_TRUE(t.validate().empty());
}

TEST(Steinerize, NoGainLeavesTreeAlone) {
  Net net;
  net.pins = {{0, 0}, {10, 0}, {-10, 0}};
  RoutingTree t = RoutingTree::star(net);
  EXPECT_EQ(tree::steinerize(t), 0);
  EXPECT_EQ(t.wirelength(), 20);
}

TEST(Steinerize, NeverIncreasesWirelengthOrDelay) {
  util::Rng rng(21);
  for (int it = 0; it < 30; ++it) {
    const Net net = testing::random_net(rng, 8);
    RoutingTree t = rsmt::rectilinear_mst(net);
    const auto before = t.objective();
    tree::steinerize(t);
    const auto after = t.objective();
    EXPECT_LE(after.w, before.w);
    EXPECT_EQ(after.d, before.d);  // Steinerization is delay-neutral
    EXPECT_TRUE(t.validate().empty());
  }
}

TEST(EdgeSubstitution, DelayModeShortensDetour) {
  // Chain 0 -> 1 -> 2 where pin 2 is close to the source: re-parenting 2
  // directly to 0 cuts the delay.
  Net net;
  net.pins = {{0, 0}, {100, 0}, {10, 5}};
  RoutingTree t = RoutingTree::star(net);
  t.set_parent(2, 1);  // detour via the far pin
  EXPECT_EQ(t.delay(), 195);
  EXPECT_TRUE(tree::edge_substitution_pass(t, RefineMode::kDelay));
  EXPECT_LE(t.delay(), 100);
  EXPECT_LE(t.wirelength(), 195);
  EXPECT_TRUE(t.validate().empty());
}

TEST(EdgeSubstitution, RespectsModeConstraints) {
  util::Rng rng(22);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 9);
    RoutingTree t = rsmt::rectilinear_mst(net);
    for (const RefineMode mode :
         {RefineMode::kWirelength, RefineMode::kDelay, RefineMode::kEither}) {
      RoutingTree u = t;
      const auto before = u.objective();
      while (tree::edge_substitution_pass(u, mode)) {
      }
      const auto after = u.objective();
      EXPECT_TRUE(u.validate().empty());
      // Every accepted move is a weak Pareto improvement.
      EXPECT_LE(after.w, before.w);
      EXPECT_LE(after.d, before.d);
      if (mode == RefineMode::kWirelength) {
        EXPECT_LE(after.w, before.w);
      }
      if (mode == RefineMode::kDelay) {
        EXPECT_LE(after.d, before.d);
      }
    }
  }
}

TEST(SubtreeIntervals, MatchParentWalkOnEveryPair) {
  auto check = [](const RoutingTree& t) {
    tree::SubtreeIntervals sub;
    sub.build(t);
    ASSERT_EQ(sub.order.size(), t.num_nodes());
    const auto ch = t.children();
    for (std::size_t v = 0; v < t.num_nodes(); ++v) {
      const auto cs = sub.children(v);
      ASSERT_EQ(std::vector<std::int32_t>(cs.begin(), cs.end()), ch[v]);
    }
    for (std::size_t v = 0; v < t.num_nodes(); ++v)
      for (std::size_t x = 0; x < t.num_nodes(); ++x)
        ASSERT_EQ(sub.contains(v, x), t.in_subtree(x, v))
            << "v " << v << " x " << x;
  };
  util::Rng rng(25);
  for (int it = 0; it < 20; ++it) {
    RoutingTree t = rsmt::rsmt(testing::random_net(rng, 6 + rng.index(20)));
    scramble(t, rng, 10);
    ASSERT_TRUE(t.validate().empty()) << t.validate();
    check(t);
  }
  // A forest: node 3 loses its parent and roots a second tree {3, 4, 5}.
  Net net;
  net.pins = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}};
  RoutingTree f = RoutingTree::star(net);
  f.set_parent(2, 1);
  f.set_parent(3, tree::kNoParent);
  f.set_parent(4, 3);
  f.set_parent(5, 4);
  f.add_steiner({6, 0}, 3);
  check(f);
  tree::SubtreeIntervals sub;
  sub.build(f);
  EXPECT_TRUE(sub.contains(3, 5));
  EXPECT_FALSE(sub.contains(0, 5));
  EXPECT_FALSE(sub.contains(3, 2));
}

TEST(EdgeSubstitution, SameMovesAsParentWalkReference) {
  util::Rng rng(26);
  int trees = 0;
  int passes = 0;
  for (int it = 0; it < 90; ++it) {
    // Every fifth net reaches degrees 31..64; the rest stay at 3..30.
    const std::size_t degree =
        it % 5 == 4 ? 31 + rng.index(34) : 3 + rng.index(28);
    const Net net = differential_net(rng, it, degree);
    std::vector<RoutingTree> inputs{RoutingTree::star(net), rsmt::rsmt(net),
                                    rsma::rsma(net), rsmt::rsmt(net),
                                    rsmt::rsmt(net)};
    scramble(inputs[3], rng, 12);
    add_coincident_steiners(inputs[4], rng, 8);
    for (const RoutingTree& t0 : inputs) {
      ASSERT_TRUE(t0.validate().empty()) << t0.validate();
      ++trees;
      for (const RefineMode mode :
           {RefineMode::kWirelength, RefineMode::kDelay, RefineMode::kEither}) {
        RoutingTree got = t0;
        RoutingTree want = t0;
        for (int pass = 0; pass < 12; ++pass) {
          const bool moved = tree::edge_substitution_pass(got, mode);
          ASSERT_EQ(moved, reference_edge_substitution_pass(want, mode));
          ASSERT_EQ(got.nodes(), want.nodes()) << "net " << it;
          ASSERT_EQ(got.parents(), want.parents()) << "net " << it;
          ++passes;
          if (!moved) break;
        }
      }
    }
  }
  EXPECT_EQ(trees, 450);
  EXPECT_GT(passes, 3 * trees);
}

TEST(Refine, PipelinePreservesValidityAndImproves) {
  util::Rng rng(23);
  for (int it = 0; it < 15; ++it) {
    const Net net = testing::random_net(rng, 12);
    RoutingTree t = rsmt::rectilinear_mst(net);
    const auto before = t.objective();
    tree::refine(t, RefineMode::kEither);
    EXPECT_TRUE(t.validate().empty()) << t.validate();
    const auto after = t.objective();
    EXPECT_LE(after.w, before.w);
    EXPECT_LE(after.d, before.d);
  }
}

TEST(Refine, VariantsAreValidAndDiverse) {
  util::Rng rng(24);
  const Net net = testing::random_net(rng, 15);
  RoutingTree t = rsmt::rectilinear_mst(net);
  const auto variants = tree::refined_variants(t);
  ASSERT_EQ(variants.size(), 3u);
  for (const auto& v : variants) EXPECT_TRUE(v.validate().empty());
}

TEST(Refine, TwoPinNetIsAFixpoint) {
  Net net;
  net.pins = {{0, 0}, {7, 3}};
  RoutingTree t = RoutingTree::star(net);
  tree::refine(t, RefineMode::kEither);
  EXPECT_EQ(t.objective(), (pareto::Objective{10, 10}));
}

}  // namespace
}  // namespace patlabor
