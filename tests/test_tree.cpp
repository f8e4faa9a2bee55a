#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "patlabor/core/patlabor.hpp"
#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/tree/routing_tree.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::Net;
using geom::Point;
using tree::RoutingTree;
using geom::Length;
using Edges = std::vector<std::pair<Point, Point>>;

Net three_pin_net() {
  Net net;
  net.pins = {{0, 0}, {10, 0}, {0, 10}};
  return net;
}

TEST(RoutingTree, StarObjectives) {
  const Net net = three_pin_net();
  const RoutingTree t = RoutingTree::star(net);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.wirelength(), 20);
  EXPECT_EQ(t.delay(), 10);
  EXPECT_EQ(t.objective(), (pareto::Objective{20, 10}));
}

TEST(RoutingTree, FromEdgesChain) {
  Net net;
  net.pins = {{0, 0}, {5, 0}, {9, 0}};
  const std::vector<std::pair<Point, Point>> edges{
      {{0, 0}, {5, 0}}, {{5, 0}, {9, 0}}};
  const RoutingTree t = RoutingTree::from_edges(net, edges);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.wirelength(), 9);
  EXPECT_EQ(t.delay(), 9);
  EXPECT_EQ(t.parent(2), 1);
}

TEST(RoutingTree, FromEdgesWithSteinerPoint) {
  Net net;
  net.pins = {{0, 0}, {10, 10}, {10, -10}};
  const std::vector<std::pair<Point, Point>> edges{
      {{0, 0}, {10, 0}}, {{10, 0}, {10, 10}}, {{10, 0}, {10, -10}}};
  RoutingTree t = RoutingTree::from_edges(net, edges);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.num_nodes(), 4u);  // 3 pins + 1 Steiner
  EXPECT_EQ(t.wirelength(), 30);
  EXPECT_EQ(t.delay(), 20);
}

TEST(RoutingTree, FromEdgesDuplicateEdgesCollapse) {
  Net net;
  net.pins = {{0, 0}, {4, 0}};
  const std::vector<std::pair<Point, Point>> edges{
      {{0, 0}, {4, 0}}, {{4, 0}, {0, 0}}, {{0, 0}, {4, 0}}};
  const RoutingTree t = RoutingTree::from_edges(net, edges);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.wirelength(), 4);
}

TEST(RoutingTree, FromEdgesCyclicUnionTakesShortestPaths) {
  // A cycle: the SPT orientation must give each pin its shortest distance.
  Net net;
  net.pins = {{0, 0}, {10, 0}, {10, 10}};
  const std::vector<std::pair<Point, Point>> edges{
      {{0, 0}, {10, 0}}, {{10, 0}, {10, 10}}, {{0, 0}, {0, 10}},
      {{0, 10}, {10, 10}}};
  const RoutingTree t = RoutingTree::from_edges(net, edges);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.delay(), 20);  // both sinks reached at L1 distance
}

// The std::map intern and O(V^2) Dijkstra of RoutingTree::from_edges,
// kept as its differential oracle.  Each edge interns its second endpoint
// before its first: the order in which the original add_adj(intern(a),
// intern(b)) call evaluated its arguments.
RoutingTree reference_from_edges(const Net& net, const Edges& edges) {
  std::vector<Point> nodes = net.pins;
  std::map<Point, std::int32_t> id;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    id.emplace(nodes[i], static_cast<std::int32_t>(i));
  auto intern = [&](const Point& p) -> std::int32_t {
    auto [it, inserted] =
        id.emplace(p, static_cast<std::int32_t>(nodes.size()));
    if (inserted) nodes.push_back(p);
    return it->second;
  };
  std::vector<std::vector<std::int32_t>> adj(nodes.size());
  for (const auto& [pa, pb] : edges) {
    const std::int32_t b = intern(pb);
    const std::int32_t a = intern(pa);
    adj.resize(nodes.size());
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  const std::size_t nn = nodes.size();
  adj.resize(nn);
  std::vector<std::int32_t> parent(nn, tree::kNoParent);
  constexpr Length kUnreached = std::numeric_limits<Length>::max() / 4;
  std::vector<Length> dist(nn, kUnreached);
  std::vector<bool> seen(nn, false);
  dist[0] = 0;
  for (std::size_t round = 0; round < nn; ++round) {
    std::size_t u = nn;
    Length best = kUnreached;
    for (std::size_t v = 0; v < nn; ++v)
      if (!seen[v] && dist[v] < best) {
        best = dist[v];
        u = v;
      }
    if (u == nn) break;
    seen[u] = true;
    for (std::int32_t vi : adj[u]) {
      const auto v = static_cast<std::size_t>(vi);
      const Length nd = dist[u] + geom::l1(nodes[u], nodes[v]);
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = static_cast<std::int32_t>(u);
      }
    }
  }
  for (std::size_t v = 1; v < net.pins.size(); ++v) {
    if (!seen[v]) {
      const auto it = id.find(nodes[v]);
      if (it != id.end() && static_cast<std::size_t>(it->second) != v &&
          seen[static_cast<std::size_t>(it->second)]) {
        parent[v] = it->second;
        seen[v] = true;
      }
    }
  }
  RoutingTree t = RoutingTree::star(net);
  for (std::size_t v = net.pins.size(); v < nn; ++v)
    t.add_steiner(nodes[v], tree::kNoParent);
  for (std::size_t v = 0; v < nn; ++v) t.set_parent(v, parent[v]);
  return t;
}

Edges edges_of(const RoutingTree& t) {
  Edges e;
  for (std::size_t v = 0; v < t.num_nodes(); ++v)
    if (t.parent(v) != tree::kNoParent)
      e.emplace_back(t.node(v), t.node(static_cast<std::size_t>(t.parent(v))));
  return e;
}

// A DW-shaped pool: every edge becomes an L through one of its corners,
// cut at every Hanan coordinate it crosses, so branches that share a
// corridor contribute overlapping and duplicate segments and many cut
// points sit on pins.
Edges hanan_split(const Net& net, const Edges& pool, util::Rng& rng) {
  std::vector<geom::Coord> xs, ys;
  for (const Point& p : net.pins) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  Edges out;
  auto run = [&](Point a, Point b) {
    // a and b share one coordinate; walk from a to b through the grid.
    const bool horizontal = a.y == b.y;
    std::vector<geom::Coord> cuts;
    const geom::Coord lo = horizontal ? std::min(a.x, b.x) : std::min(a.y, b.y);
    const geom::Coord hi = horizontal ? std::max(a.x, b.x) : std::max(a.y, b.y);
    for (geom::Coord c : horizontal ? xs : ys)
      if (lo < c && c < hi) cuts.push_back(c);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    if ((horizontal ? a.x : a.y) > lo) std::reverse(cuts.begin(), cuts.end());
    Point cur = a;
    for (geom::Coord c : cuts) {
      const Point next = horizontal ? Point{c, a.y} : Point{a.x, c};
      out.emplace_back(cur, next);
      cur = next;
    }
    if (cur != b || a == b) out.emplace_back(cur, b);
  };
  for (const auto& [a, b] : pool) {
    const Point corner = rng.index(2) == 0 ? Point{b.x, a.y} : Point{a.x, b.y};
    run(a, corner);
    run(corner, b);
  }
  return out;
}

// A regenerate_subtopology-shaped pool: the kept edges of t (those whose
// subtree holds no selected pin), the sub-topology's edges, and one edge
// from every orphaned fragment to the nearest sub-topology point.
Edges regenerate_pool(const RoutingTree& t,
                      const std::vector<std::size_t>& pins,
                      const RoutingTree& sub) {
  const std::size_t n = t.num_nodes();
  std::vector<int> cnt(n, 0);
  for (std::size_t p : pins) cnt[p] = 1;
  cnt[0] = 1;
  for (std::size_t v = 0; v < n; ++v) {
    if (cnt[v] == 0 || v == 0) continue;
    for (auto u = static_cast<std::size_t>(t.parent(v));;
         u = static_cast<std::size_t>(t.parent(u))) {
      ++cnt[u];
      if (u == 0) break;
    }
  }
  Edges pool;
  for (std::size_t v = 1; v < n; ++v)
    if (cnt[v] == 0)
      pool.emplace_back(t.node(v),
                        t.node(static_cast<std::size_t>(t.parent(v))));
  for (const auto& e : edges_of(sub)) pool.push_back(e);
  // Fragment roots: kept nodes whose parent edge was dropped.
  for (std::size_t v = 1; v < n; ++v) {
    if (cnt[v] != 0 || cnt[static_cast<std::size_t>(t.parent(v))] == 0)
      continue;
    Point best = sub.node(0);
    for (const Point& q : sub.nodes())
      if (geom::l1(t.node(v), q) < geom::l1(t.node(v), best)) best = q;
    pool.emplace_back(t.node(v), best);
  }
  return pool;
}

void expect_same_as_reference(const Net& net, const Edges& pool,
                              const char* what) {
  const RoutingTree got = RoutingTree::from_edges(net, pool);
  const RoutingTree want = reference_from_edges(net, pool);
  ASSERT_EQ(got.num_pins(), want.num_pins()) << what;
  ASSERT_EQ(got.nodes(), want.nodes()) << what;
  ASSERT_EQ(got.parents(), want.parents()) << what;
}

// Nets for the pool tests: clustered nets on small windows (degrees
// 4..64), tie-heavy 6 x 6 and 12 x 12 windows (duplicate pins) and general
// position.
Net pool_net(util::Rng& rng, int it) {
  switch (it % 4) {
    case 0:
      return netgen::clustered_net(rng, 4 + rng.index(61), 20 + rng.index(200));
    case 1:
      return testing::random_net(rng, 3 + rng.index(30), 6, true);
    case 2:
      return testing::random_net(rng, 3 + rng.index(30), 12, true);
    default:
      return testing::random_net(rng, 3 + rng.index(62), 1000);
  }
}

// Six edge pools over one net: a frontier tree's edges (DW up to degree
// 7, the table at degree 4, RSMT), the cyclic union of every tree's edges,
// a shuffled / reversed / duplicated copy, a copy missing one edge
// (unreachable pins), a DW-shaped Hanan cut of the union, and a
// regenerate_subtopology pool around policy-picked pins.
std::vector<std::pair<Edges, const char*>> sample_pools(
    const Net& net, util::Rng& rng, const lut::LookupTable& table) {
  // Frontier trees of the same net: DW up to degree 7, the table at
  // degree 4, RSMT and RSMA beyond.
  std::vector<RoutingTree> trees;
  if (net.degree() <= 7) {
    trees = core::exact_small_frontier(
                net, net.degree() == 4 ? &table : nullptr)
                .trees;
  }
  trees.push_back(rsmt::rsmt(net));
  trees.push_back(rsma::rsma(net));
  Edges uni;
  for (const RoutingTree& t : trees)
    for (const auto& e : edges_of(t)) uni.push_back(e);
  Edges noisy = edges_of(trees.front());
  for (std::size_t k = 0, m = noisy.size(); k < m; ++k) {
    if (rng.index(3) == 0) noisy.push_back(noisy[rng.index(m)]);
    if (rng.index(2) == 0) std::swap(noisy[k].first, noisy[k].second);
  }
  rng.shuffle(noisy);
  Edges cut = noisy;
  if (!cut.empty())
    cut.erase(cut.begin() +
              static_cast<std::ptrdiff_t>(rng.index(cut.size())));

  // A regenerate_subtopology pool around policy-picked pins.
  const RoutingTree& seed = trees[trees.size() - 2];
  const std::size_t k = std::min<std::size_t>(net.degree() - 1, 6);
  const auto picked = core::Policy().select_pins(seed, k);
  Net subnet;
  subnet.pins.push_back(net.source());
  for (std::size_t p : picked) subnet.pins.push_back(seed.node(p));
  const auto sub = core::exact_small_frontier(subnet, nullptr).trees;

  std::vector<std::pair<Edges, const char*>> cases{
      {edges_of(trees.front()), "tree"},
      {uni, "cyclic union"},
      {noisy, "shuffled, reversed, duplicated"},
      {cut, "one edge dropped"},
      {hanan_split(net, uni, rng), "DW-shaped Hanan cut"},
      {regenerate_pool(seed, picked, sub.back()),
       "regenerate_subtopology pool"}};
  return cases;
}

TEST(RoutingTree, FromEdgesMatchesReference) {
  // Hand cases: duplicate pins (the twin fallback), duplicate, reversed and
  // self-loop edges, a cyclic union, an unreachable pin, Steiner points on
  // pins and an empty pool.
  {
    Net net;
    net.pins = {{0, 0}, {5, 5}, {5, 5}, {9, 0}, {0, 0}};
    expect_same_as_reference(net, {{{0, 0}, {5, 0}}, {{5, 0}, {5, 5}},
                                   {{9, 0}, {5, 0}}, {{5, 5}, {5, 0}},
                                   {{0, 0}, {0, 0}}},
                             "duplicate pins");
    expect_same_as_reference(net, {}, "empty pool");
    expect_same_as_reference(net, {{{0, 0}, {9, 0}}}, "unreachable pins");
  }
  {
    Net net;
    net.pins = {{0, 0}, {10, 0}, {10, 10}, {4, 0}};
    expect_same_as_reference(net,
                             {{{0, 0}, {10, 0}}, {{10, 0}, {10, 10}},
                              {{0, 0}, {0, 10}}, {{0, 10}, {10, 10}},
                              {{4, 0}, {10, 0}}, {{0, 0}, {4, 0}},
                              {{10, 10}, {0, 10}}, {{7, 0}, {7, 0}}},
                             "cyclic union with Steiner points on pins");
  }

  util::Rng rng(2324);
  const lut::LookupTable table = lut::LookupTable::generate(4);
  int pools = 0;
  for (int it = 0; it < 120; ++it) {
    const Net net = pool_net(rng, it);
    for (const auto& [pool, what] : sample_pools(net, rng, table)) {
      expect_same_as_reference(net, pool, what);
      ++pools;
    }
  }
  EXPECT_EQ(pools, 720);
}

// The normalize that rebuilt children lists and compacted into fresh
// arrays on every round, kept as the differential oracle for the in-place
// RoutingTree::normalize.
RoutingTree reference_normalize(const RoutingTree& t) {
  std::vector<Point> nodes = t.nodes();
  std::vector<std::int32_t> parent = t.parents();
  const std::size_t num_pins = t.num_pins();
  auto compact = [&](const std::vector<bool>& dead) {
    std::vector<std::int32_t> remap(nodes.size(), -1);
    std::size_t next = 0;
    for (std::size_t v = 0; v < nodes.size(); ++v)
      if (v < num_pins || !dead[v])
        remap[v] = static_cast<std::int32_t>(next++);
    std::vector<Point> nn(next);
    std::vector<std::int32_t> np(next, tree::kNoParent);
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      if (remap[v] < 0) continue;
      nn[static_cast<std::size_t>(remap[v])] = nodes[v];
      if (parent[v] != tree::kNoParent)
        np[static_cast<std::size_t>(remap[v])] =
            remap[static_cast<std::size_t>(parent[v])];
    }
    nodes = std::move(nn);
    parent = std::move(np);
  };
  while (true) {
    std::vector<int> deg(nodes.size(), 0);
    for (std::size_t v = 0; v < nodes.size(); ++v)
      if (parent[v] != tree::kNoParent)
        ++deg[static_cast<std::size_t>(parent[v])];
    bool changed = false;
    std::vector<bool> dead(nodes.size(), false);
    for (std::size_t v = num_pins; v < nodes.size(); ++v)
      if (deg[v] == 0) dead[v] = changed = true;
    if (!changed) break;
    compact(dead);
  }
  while (true) {
    std::vector<std::vector<std::int32_t>> ch(nodes.size());
    for (std::size_t v = 0; v < nodes.size(); ++v)
      if (parent[v] != tree::kNoParent)
        ch[static_cast<std::size_t>(parent[v])].push_back(
            static_cast<std::int32_t>(v));
    bool changed = false;
    for (std::size_t v = num_pins; v < nodes.size(); ++v) {
      if (ch[v].size() != 1 || parent[v] == tree::kNoParent) continue;
      const auto p = static_cast<std::size_t>(parent[v]);
      const auto c = static_cast<std::size_t>(ch[v][0]);
      if (geom::l1(nodes[p], nodes[v]) + geom::l1(nodes[v], nodes[c]) ==
          geom::l1(nodes[p], nodes[c])) {
        parent[c] = static_cast<std::int32_t>(p);
        std::vector<bool> dead(nodes.size(), false);
        dead[v] = true;
        compact(dead);
        changed = true;
        break;
      }
    }
    if (!changed) break;
  }
  Net net;
  net.pins.assign(nodes.begin(),
                  nodes.begin() + static_cast<std::ptrdiff_t>(num_pins));
  RoutingTree out = RoutingTree::star(net);
  for (std::size_t v = num_pins; v < nodes.size(); ++v)
    out.add_steiner(nodes[v], tree::kNoParent);
  for (std::size_t v = 0; v < nodes.size(); ++v) out.set_parent(v, parent[v]);
  return out;
}

TEST(RoutingTree, NormalizeMatchesReference) {
  util::Rng rng(2325);
  const lut::LookupTable table = lut::LookupTable::generate(4);
  int spliced = 0;
  for (int it = 0; it < 120; ++it) {
    const Net net = pool_net(rng, it);
    for (const auto& [pool, what] : sample_pools(net, rng, table)) {
      RoutingTree got = RoutingTree::from_edges(net, pool);
      const RoutingTree want = reference_normalize(got);
      const std::size_t before = got.num_nodes();
      got.normalize();
      ASSERT_EQ(got.num_pins(), want.num_pins()) << what;
      ASSERT_EQ(got.nodes(), want.nodes()) << what;
      ASSERT_EQ(got.parents(), want.parents()) << what;
      if (got.num_nodes() < before) ++spliced;
    }
  }
  EXPECT_GT(spliced, 300);
}

TEST(RoutingTree, ValidateCatchesDisconnection) {
  Net net;
  net.pins = {{0, 0}, {5, 5}};
  const RoutingTree t =
      RoutingTree::from_edges(net, std::vector<std::pair<Point, Point>>{});
  EXPECT_FALSE(t.validate().empty());
}

TEST(RoutingTree, ValidateCatchesCycle) {
  Net net;
  net.pins = {{0, 0}, {5, 5}, {9, 9}};
  RoutingTree t = RoutingTree::star(net);
  t.set_parent(1, 2);
  t.set_parent(2, 1);
  EXPECT_FALSE(t.validate().empty());
}

TEST(RoutingTree, PathLengthsAndSubtree) {
  Net net;
  net.pins = {{0, 0}, {5, 0}, {5, 7}};
  RoutingTree t = RoutingTree::star(net);
  t.set_parent(2, 1);  // chain 0 -> 1 -> 2
  const auto pl = t.path_lengths();
  EXPECT_EQ(pl[0], 0);
  EXPECT_EQ(pl[1], 5);
  EXPECT_EQ(pl[2], 12);
  EXPECT_TRUE(t.in_subtree(2, 1));
  EXPECT_TRUE(t.in_subtree(2, 0));
  EXPECT_FALSE(t.in_subtree(1, 2));
}

TEST(RoutingTree, NormalizeDropsDanglingSteiner) {
  Net net;
  net.pins = {{0, 0}, {10, 0}};
  RoutingTree t = RoutingTree::star(net);
  t.add_steiner({3, 3}, 0);   // dead-end Steiner node
  t.add_steiner({4, 4}, 2);   // child of the dead end
  EXPECT_EQ(t.num_nodes(), 4u);
  t.normalize();
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.wirelength(), 10);
}

TEST(RoutingTree, NormalizeSplicesMonotonePassThrough) {
  Net net;
  net.pins = {{0, 0}, {10, 10}};
  RoutingTree t = RoutingTree::star(net);
  const auto s = t.add_steiner({5, 5}, 0);  // on a monotone path
  t.set_parent(1, static_cast<std::int32_t>(s));
  EXPECT_EQ(t.num_nodes(), 3u);
  t.normalize();
  EXPECT_EQ(t.num_nodes(), 2u);  // spliced out, objectives unchanged
  EXPECT_EQ(t.wirelength(), 20);
  EXPECT_EQ(t.delay(), 20);
}

TEST(RoutingTree, NormalizeKeepsElbowSteiner) {
  // A Steiner node NOT on a monotone path carries geometry; keep it.
  Net net;
  net.pins = {{0, 0}, {10, 0}};
  RoutingTree t = RoutingTree::star(net);
  const auto s = t.add_steiner({5, 5}, 0);  // detour elbow
  t.set_parent(1, static_cast<std::int32_t>(s));
  t.normalize();
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.wirelength(), 20);  // detour preserved
}

TEST(RoutingTree, StructuralHashIgnoresOrientationAndOrder) {
  Net net;
  net.pins = {{0, 0}, {10, 0}, {20, 0}};
  const std::vector<std::pair<Point, Point>> e1{
      {{0, 0}, {10, 0}}, {{10, 0}, {20, 0}}};
  const std::vector<std::pair<Point, Point>> e2{
      {{20, 0}, {10, 0}}, {{10, 0}, {0, 0}}};
  EXPECT_EQ(RoutingTree::from_edges(net, e1).structural_hash(),
            RoutingTree::from_edges(net, e2).structural_hash());
  const std::vector<std::pair<Point, Point>> e3{
      {{0, 0}, {20, 0}}, {{20, 0}, {10, 0}}};
  EXPECT_NE(RoutingTree::from_edges(net, e1).structural_hash(),
            RoutingTree::from_edges(net, e3).structural_hash());
}

TEST(RoutingTree, DelayIgnoresSteinerNodes) {
  Net net;
  net.pins = {{0, 0}, {2, 0}};
  RoutingTree t = RoutingTree::star(net);
  const auto s = t.add_steiner({50, 50}, 0);  // far Steiner leaf
  (void)s;
  EXPECT_EQ(t.delay(), 2);  // delay is over sinks only
}

TEST(RoutingTree, ObjectivesHelper) {
  const Net net = three_pin_net();
  std::vector<RoutingTree> trees{RoutingTree::star(net),
                                 RoutingTree::star(net)};
  const auto objs = tree::objectives(trees);
  ASSERT_EQ(objs.size(), 2u);
  EXPECT_EQ(objs[0], (pareto::Objective{20, 10}));
}

}  // namespace
}  // namespace patlabor
