#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/geom/hanan.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::Net;
using geom::Point;
using pareto::Objective;
using pareto::ObjVec;

// ---------------------------------------------------------------------------
// Brute-force reference: enumerate EVERY tree topology over the pins plus up
// to (n-2) Hanan-grid Steiner points via Pruefer sequences, evaluate both
// objectives, and keep the Pareto frontier.  Exponential, but exact — the
// gold standard the DP must match on tiny nets.
// ---------------------------------------------------------------------------
ObjVec brute_force_frontier(const Net& net) {
  const std::size_t n = net.degree();
  const geom::HananGrid grid(net.pins);
  std::vector<Point> steiner_candidates;
  for (int v = 0; v < grid.num_nodes(); ++v) {
    const Point p = grid.point(v);
    bool is_pin = false;
    for (const Point& q : net.pins) is_pin |= (p == q);
    if (!is_pin) steiner_candidates.push_back(p);
  }
  const std::size_t max_steiner = n >= 2 ? n - 2 : 0;

  ObjVec all;
  std::vector<std::size_t> chosen;
  // Enumerate Steiner subsets of size 0..max_steiner.
  auto enumerate_trees = [&](const std::vector<Point>& nodes) {
    const std::size_t k = nodes.size();
    if (k == 1) return;
    if (k == 2) {
      const std::vector<std::pair<Point, Point>> edges{{nodes[0], nodes[1]}};
      all.push_back(tree::RoutingTree::from_edges(net, edges).objective());
      return;
    }
    // All Pruefer sequences of length k-2 over [0,k).
    std::vector<std::size_t> seq(k - 2, 0);
    while (true) {
      // Decode the sequence into tree edges.
      std::vector<int> deg(k, 1);
      for (std::size_t s : seq) ++deg[s];
      std::vector<std::pair<Point, Point>> edges;
      std::vector<bool> used(k, false);
      std::vector<int> degree = deg;
      for (std::size_t s : seq) {
        for (std::size_t leaf = 0; leaf < k; ++leaf) {
          if (degree[leaf] == 1 && !used[leaf]) {
            edges.emplace_back(nodes[leaf], nodes[s]);
            used[leaf] = true;
            --degree[s];
            break;
          }
        }
      }
      std::vector<std::size_t> rest;
      for (std::size_t v = 0; v < k; ++v)
        if (!used[v] && degree[v] == 1) rest.push_back(v);
      edges.emplace_back(nodes[rest[0]], nodes[rest[1]]);
      all.push_back(tree::RoutingTree::from_edges(net, edges).objective());
      // Next sequence.
      std::size_t pos = 0;
      while (pos < seq.size() && seq[pos] + 1 == k) {
        seq[pos] = 0;
        ++pos;
      }
      if (pos == seq.size()) break;
      ++seq[pos];
    }
  };

  // Subset enumeration (sizes 0..max_steiner) over candidates.
  const std::size_t m = steiner_candidates.size();
  std::vector<std::size_t> idx;
  auto recurse = [&](auto&& self, std::size_t start) -> void {
    std::vector<Point> nodes = net.pins;
    for (std::size_t i : idx) nodes.push_back(steiner_candidates[i]);
    enumerate_trees(nodes);
    if (idx.size() == max_steiner) return;
    for (std::size_t i = start; i < m; ++i) {
      idx.push_back(i);
      self(self, i + 1);
      idx.pop_back();
    }
  };
  recurse(recurse, 0);
  return pareto::pareto_filter(std::move(all));
}

TEST(ParetoDw, TwoPinNet) {
  Net net;
  net.pins = {{0, 0}, {6, 7}};
  const auto r = dw::pareto_dw(net);
  ASSERT_EQ(r.frontier.size(), 1u);
  EXPECT_EQ(r.frontier[0], (Objective{13, 13}));
  ASSERT_EQ(r.trees.size(), 1u);
  EXPECT_TRUE(r.trees[0].validate().empty());
}

TEST(ParetoDw, ThreePinTradeoff) {
  // Source far from two sinks that are cheap to chain but slow: a classic
  // wirelength/delay tradeoff with exactly two frontier points.
  Net net;
  net.pins = {{0, 0}, {10, 0}, {10, 6}};
  const auto r = dw::pareto_dw(net);
  // Chain through (10,0): w=16, d=16.  Direct-ish alternatives cost more w.
  ASSERT_FALSE(r.frontier.empty());
  EXPECT_EQ(r.frontier.front().w, 16);  // RSMT wirelength
  EXPECT_EQ(r.frontier.back().d, 16);   // best achievable delay here
}

// The headline exactness test: DW == brute force on random tiny nets.
class DwVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(DwVsBruteForce, FrontierMatchesExhaustiveEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(500 + GetParam()));
  const std::size_t degree = 3 + rng.index(2);  // 3 or 4
  const Net net = testing::random_net(rng, degree, 60);
  const ObjVec expected = brute_force_frontier(net);
  const auto got = dw::pareto_dw(net);
  EXPECT_EQ(got.frontier, expected)
      << "degree " << degree << " seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DwVsBruteForce, ::testing::Range(0, 20));

// Pruning lemmas must not change the result (Lemmas 2 and 3 are exact).
class DwPruningEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DwPruningEquivalence, AllOptionCombinationsAgree) {
  util::Rng rng(static_cast<std::uint64_t>(600 + GetParam()));
  const std::size_t degree = 4 + rng.index(4);  // 4..7
  const Net net = testing::random_net(rng, degree);
  dw::ParetoDwOptions base;
  base.want_trees = false;
  pareto::SolutionSet reference;
  for (const bool corner : {false, true}) {
    for (const bool bbox : {false, true}) {
      dw::ParetoDwOptions o = base;
      o.corner_pruning = corner;
      o.bbox_restriction = bbox;
      const auto r = dw::pareto_dw(net, o);
      if (reference.empty()) {
        reference = r.frontier;
      } else {
        EXPECT_EQ(r.frontier, reference)
            << "corner=" << corner << " bbox=" << bbox;
      }
    }
  }
  ASSERT_FALSE(reference.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DwPruningEquivalence,
                         ::testing::Range(0, 15));

// Structural properties that hold for every net.
class DwProperties : public ::testing::TestWithParam<int> {};

TEST_P(DwProperties, FrontierEndpointsAndTrees) {
  util::Rng rng(static_cast<std::uint64_t>(700 + GetParam()));
  const std::size_t degree = 3 + rng.index(6);  // 3..8
  const Net net = testing::random_net(rng, degree);
  const auto r = dw::pareto_dw(net);
  ASSERT_FALSE(r.frontier.empty());
  EXPECT_TRUE(pareto::is_pareto_curve(r.frontier));

  // Leftmost point: minimum wirelength == exact RSMT.
  EXPECT_EQ(r.frontier.front().w, rsmt::exact_rsmt(net).wirelength());
  // Rightmost point: minimum delay == the arborescence lower bound.
  EXPECT_EQ(r.frontier.back().d, rsma::star_delay(net));
  // Every reconstructed tree is valid and realizes its frontier point.
  ASSERT_EQ(r.trees.size(), r.frontier.size());
  for (std::size_t i = 0; i < r.trees.size(); ++i) {
    EXPECT_TRUE(r.trees[i].validate().empty()) << r.trees[i].validate();
    EXPECT_EQ(r.trees[i].objective(), r.frontier[i]);
  }
  // Delay can never beat the star bound; wirelength never beats RSMT.
  for (const Objective& p : r.frontier) {
    EXPECT_GE(p.d, rsma::star_delay(net));
    EXPECT_GE(p.w, r.frontier.front().w);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DwProperties, ::testing::Range(0, 25));

TEST(ParetoDw, MinWirelengthMatchesExactRsmtAtDegrees9And10) {
  // The Pareto-DW shares no grow or merge code with exact_rsmt, so its
  // min-w endpoint independently checks the RSMT optimum at the two
  // largest exact degrees, which the DwProperties sweep (3..8) leaves out.
  util::Rng rng(710);
  for (const std::size_t degree : {9, 9, 9, 10, 10}) {
    const Net net = testing::random_net(rng, degree);
    const auto r = dw::pareto_dw(net);
    ASSERT_FALSE(r.frontier.empty());
    EXPECT_EQ(r.frontier.front().w, rsmt::exact_rsmt(net).wirelength())
        << "degree " << degree;
  }
}

TEST(ParetoDw, HandlesDegenerateCoordinates) {
  // Shared x/y coordinates (zero-length Hanan gaps) and duplicate pins.
  Net net;
  net.pins = {{0, 0}, {0, 10}, {10, 0}, {10, 10}, {0, 10}};
  const auto r = dw::pareto_dw(net);
  ASSERT_FALSE(r.frontier.empty());
  for (const auto& t : r.trees) EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(r.frontier.back().d, 20);
}

TEST(ParetoDw, FrontierOnlyVariantAgrees) {
  util::Rng rng(77);
  const Net net = testing::random_net(rng, 6);
  EXPECT_EQ(dw::pareto_frontier(net), dw::pareto_dw(net).frontier);
}

TEST(DwScratch, ReuseAcrossSolvesIsInvisibleToResults) {
  // One DwScratch threaded through many solves (the WorkerContext usage in
  // core/patlabor.cpp) must reproduce the scratch-free results exactly —
  // the scratch carries capacity, never state.  Interleave degrees so
  // stale entries from a bigger net precede a smaller one.
  util::Rng rng(88);
  dw::DwScratch scratch;
  for (int round = 0; round < 30; ++round) {
    const std::size_t degree = 3 + rng.index(6);  // 3..8
    const Net net = testing::random_net(rng, degree);
    const auto fresh = dw::pareto_dw(net);
    const auto reused = dw::pareto_dw(net, {}, &scratch);
    ASSERT_EQ(reused.frontier, fresh.frontier) << "round " << round;
    ASSERT_EQ(reused.trees.size(), fresh.trees.size());
    for (std::size_t i = 0; i < reused.trees.size(); ++i)
      EXPECT_EQ(reused.trees[i].structural_hash(),
                fresh.trees[i].structural_hash());
  }
}

}  // namespace
}  // namespace patlabor
