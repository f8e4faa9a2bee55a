#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "patlabor/rsmt/mst.hpp"
#include "patlabor/geom/box.hpp"
#include "patlabor/geom/hanan.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::HananGrid;
using geom::Length;
using geom::Net;
using geom::NodeId;
using geom::Point;
using tree::RoutingTree;

// The straightforward Hanan-grid Dreyfus-Wagner that exact_rsmt must match
// tree for tree: per-node tables and an all-pairs O(nv^2) grow step that
// takes the lowest predecessor u with a strictly smaller cost.
RoutingTree reference_exact_rsmt(const Net& net) {
  constexpr Length kInf = std::numeric_limits<Length>::max() / 4;
  struct Choice {
    enum class Kind : std::uint8_t { kLeaf, kMerge, kGrow } kind = Kind::kLeaf;
    std::uint32_t sub = 0;
    NodeId from = -1;
  };
  const std::size_t n = net.degree();
  const HananGrid grid(net.pins);
  const int nv = grid.num_nodes();
  const std::size_t nsinks = n - 1;
  const std::uint32_t full = (1u << nsinks) - 1;

  std::vector<std::vector<Length>> dp(
      static_cast<std::size_t>(nv), std::vector<Length>(full + 1, kInf));
  std::vector<std::vector<Choice>> how(
      static_cast<std::size_t>(nv), std::vector<Choice>(full + 1));

  std::vector<NodeId> sink_node(nsinks);
  for (std::size_t i = 0; i < nsinks; ++i)
    sink_node[i] = grid.node_at(net.pins[i + 1]);

  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    for (int v = 0; v < nv; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if ((mask & (mask - 1)) == 0) {
        const auto i = static_cast<std::size_t>(std::countr_zero(mask));
        dp[uv][mask] = grid.dist(static_cast<NodeId>(v), sink_node[i]);
        how[uv][mask] = Choice{Choice::Kind::kLeaf, 0, sink_node[i]};
        continue;
      }
      const std::uint32_t low = mask & (~mask + 1);
      for (std::uint32_t sub = (mask - 1) & mask; sub > 0;
           sub = (sub - 1) & mask) {
        if (!(sub & low)) continue;
        const std::uint32_t rest = mask ^ sub;
        if (rest == 0) continue;
        const Length cost = dp[uv][sub] == kInf || dp[uv][rest] == kInf
                                ? kInf
                                : dp[uv][sub] + dp[uv][rest];
        if (cost < dp[uv][mask]) {
          dp[uv][mask] = cost;
          how[uv][mask] = Choice{Choice::Kind::kMerge, sub, -1};
        }
      }
    }
    std::vector<Length> merged(static_cast<std::size_t>(nv));
    for (int v = 0; v < nv; ++v)
      merged[static_cast<std::size_t>(v)] =
          dp[static_cast<std::size_t>(v)][mask];
    for (int v = 0; v < nv; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      for (int u = 0; u < nv; ++u) {
        if (u == v || merged[static_cast<std::size_t>(u)] == kInf) continue;
        const Length cost = merged[static_cast<std::size_t>(u)] +
                            grid.dist(static_cast<NodeId>(u),
                                      static_cast<NodeId>(v));
        if (cost < dp[uv][mask]) {
          dp[uv][mask] = cost;
          how[uv][mask] =
              Choice{Choice::Kind::kGrow, 0, static_cast<NodeId>(u)};
        }
      }
    }
  }

  std::vector<std::pair<Point, Point>> edges;
  const NodeId root = grid.node_at(net.pins[0]);
  std::vector<std::pair<NodeId, std::uint32_t>> stack{{root, full}};
  while (!stack.empty()) {
    const auto [v, mask] = stack.back();
    stack.pop_back();
    const Choice c = how[static_cast<std::size_t>(v)][mask];
    switch (c.kind) {
      case Choice::Kind::kLeaf:
        if (c.from != v) edges.emplace_back(grid.point(v), grid.point(c.from));
        break;
      case Choice::Kind::kMerge:
        stack.emplace_back(v, c.sub);
        stack.emplace_back(v, mask ^ c.sub);
        break;
      case Choice::Kind::kGrow:
        edges.emplace_back(grid.point(v), grid.point(c.from));
        stack.emplace_back(c.from, mask);
        break;
    }
  }

  RoutingTree t = RoutingTree::from_edges(net, edges);
  t.normalize();
  return t;
}

TEST(Mst, TwoPins) {
  Net net;
  net.pins = {{0, 0}, {3, 4}};
  const auto t = rsmt::rectilinear_mst(net);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.wirelength(), 7);
}

TEST(Mst, ChainIsCheaperThanStar) {
  Net net;
  net.pins = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
  const auto t = rsmt::rectilinear_mst(net);
  EXPECT_EQ(t.wirelength(), 30);  // chain, not the 60-cost star
}

TEST(ExactRsmt, CrossNeedsSteinerPoint) {
  // Four pins at the arms of a cross: the optimal Steiner tree joins them
  // through the center, wirelength 40 (MST costs 60).
  Net net;
  net.pins = {{0, 10}, {20, 10}, {10, 0}, {10, 20}};
  const auto t = rsmt::exact_rsmt(net);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.wirelength(), 40);
  EXPECT_EQ(rsmt::mst_length(net), 60);
}

TEST(ExactRsmt, LShapeThreePins) {
  Net net;
  net.pins = {{0, 0}, {10, 0}, {10, 10}};
  EXPECT_EQ(rsmt::exact_rsmt(net).wirelength(), 20);
}

TEST(ExactRsmt, SameTreesAsReferenceDp) {
  // Small windows force equal-cost alternatives (shared coordinates, and
  // duplicate pins from random_net), so any change in tie-breaking shows
  // up as a different tree.
  util::Rng rng(34);
  int nets = 0;
  for (std::size_t degree = 2; degree <= rsmt::kExactMaxDegree; ++degree) {
    std::vector<Net> batch;
    for (int i = 0; i < 12; ++i) {
      batch.push_back(netgen::clustered_net(rng, degree, 20));
      batch.push_back(netgen::clustered_net(rng, degree, 100000));
    }
    for (int i = 0; i < 4; ++i)
      batch.push_back(testing::random_net(rng, degree, 6, true));
    for (const Net& net : batch) {
      const RoutingTree t = rsmt::exact_rsmt(net);
      const RoutingTree ref = reference_exact_rsmt(net);
      ASSERT_TRUE(t.validate().empty()) << t.validate();
      EXPECT_EQ(t.wirelength(), ref.wirelength()) << "degree " << degree;
      EXPECT_EQ(t.structural_hash(), ref.structural_hash())
          << "degree " << degree << ", net " << nets;
      ++nets;
    }
  }
  // The local-search seed regime: degrees 8-10 in tiny windows, where
  // equal-cost partitions and predecessors are the rule.
  for (std::size_t degree = 8; degree <= rsmt::kExactMaxDegree; ++degree) {
    std::vector<Net> batch;
    for (int i = 0; i < 20; ++i) {
      batch.push_back(testing::random_net(rng, degree, 6, true));
      batch.push_back(netgen::clustered_net(rng, degree, 20));
    }
    for (const Net& net : batch) {
      const RoutingTree t = rsmt::exact_rsmt(net);
      const RoutingTree ref = reference_exact_rsmt(net);
      ASSERT_TRUE(t.validate().empty()) << t.validate();
      EXPECT_EQ(t.structural_hash(), ref.structural_hash())
          << "degree " << degree << ", net " << nets;
      ++nets;
    }
  }
  EXPECT_GE(nets, 200);
}

TEST(ExactRsmt, GoldenDigest) {
  // Pins the seed trees of the local-search regime (degrees 8-10) to a
  // recorded digest, so any change in tie order shows.
  util::Rng rng(2626);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  int nets = 0;
  for (int rep = 0; rep < 35; ++rep) {
    for (std::size_t degree = 8; degree <= rsmt::kExactMaxDegree; ++degree) {
      for (const geom::Coord window : {20, 100000}) {
        const Net net = netgen::clustered_net(rng, degree, window);
        const RoutingTree t = rsmt::exact_rsmt(net);
        h = (h ^ t.structural_hash()) * 0x100000001b3ULL;
        ++nets;
      }
    }
  }
  EXPECT_GE(nets, 200);
  EXPECT_EQ(h, 0xaa29b50abe2c5957ULL) << std::hex << "digest 0x" << h;
}

TEST(ExactRsmt, ThreePinsMedianSteiner) {
  // RSMT of 3 pins = HPWL of their bounding box (via the median point).
  util::Rng rng(31);
  for (int it = 0; it < 25; ++it) {
    const Net net = testing::random_net(rng, 3);
    const auto t = rsmt::exact_rsmt(net);
    EXPECT_TRUE(t.validate().empty());
    EXPECT_EQ(t.wirelength(), geom::hpwl(net.pins));
  }
}

// RSMT lower/upper sandwich: w(RSMT) <= w(MST) and (Hwang's bound)
// w(MST) <= 1.5 * w(RSMT).
class RsmtVsMst : public ::testing::TestWithParam<int> {};

TEST_P(RsmtVsMst, SandwichBounds) {
  util::Rng rng(static_cast<std::uint64_t>(300 + GetParam()));
  const auto degree = 3 + rng.index(6);  // 3..8
  const Net net = testing::random_net(rng, degree);
  const auto exact = rsmt::exact_rsmt(net);
  const auto mst_w = rsmt::mst_length(net);
  EXPECT_TRUE(exact.validate().empty());
  EXPECT_LE(exact.wirelength(), mst_w);
  EXPECT_LE(2 * mst_w, 3 * exact.wirelength());  // MST <= 1.5 RSMT
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsmtVsMst, ::testing::Range(0, 30));

TEST(RsmtHeuristic, NeverWorseThanMstAndValid) {
  util::Rng rng(32);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 20);
    const auto h = rsmt::rsmt_heuristic(net);
    EXPECT_TRUE(h.validate().empty());
    EXPECT_LE(h.wirelength(), rsmt::mst_length(net));
  }
}

TEST(RsmtHeuristic, CloseToExactOnSmallNets) {
  util::Rng rng(33);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 7);
    const auto h = rsmt::rsmt_heuristic(net);
    const auto e = rsmt::exact_rsmt(net);
    EXPECT_GE(h.wirelength(), e.wirelength());
    // The refinement heuristic should stay within Hwang's MST bound.
    EXPECT_LE(2 * h.wirelength(), 3 * e.wirelength());
  }
}

TEST(Rsmt, DispatcherUsesExactForSmall) {
  Net net;
  net.pins = {{0, 10}, {20, 10}, {10, 0}, {10, 20}};
  EXPECT_EQ(rsmt::rsmt(net).wirelength(), 40);
}

TEST(Rsmt, HandlesDuplicateAndCollinearPins) {
  Net net;
  net.pins = {{0, 0}, {5, 0}, {5, 0}, {9, 0}};
  const auto t = rsmt::rsmt(net);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.wirelength(), 9);
}

}  // namespace
}  // namespace patlabor
