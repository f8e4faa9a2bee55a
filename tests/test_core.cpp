#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "patlabor/core/pareto_ks.hpp"
#include "patlabor/core/patlabor.hpp"
#include "patlabor/core/trainer.hpp"
#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/tree/refine.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using core::PatLaborOptions;
using geom::Net;
using pareto::Objective;

// ---- Policy ----

TEST(Policy, SelectsRequestedCountWithoutDuplicates) {
  util::Rng rng(101);
  const Net net = testing::random_net(rng, 20);
  const auto t = rsmt::rsmt_heuristic(net);
  core::Policy policy;
  const auto pins = policy.select_pins(t, 8);
  ASSERT_EQ(pins.size(), 8u);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_GE(pins[i], 1u);  // never the source
    EXPECT_LT(pins[i], net.degree());
    for (std::size_t j = i + 1; j < pins.size(); ++j)
      EXPECT_NE(pins[i], pins[j]);
  }
}

TEST(Policy, FirstPickIsAHighDelayPin) {
  // With the default weights the first selected pin maximizes
  // a1*||r-p|| + a2*dist_T(r,p): it must be the (a-priori) worst pin.
  util::Rng rng(102);
  const Net net = testing::random_net(rng, 15);
  const auto t = rsmt::rsmt_heuristic(net);
  core::Policy policy;
  const auto pins = policy.select_pins(t, 3);
  ASSERT_FALSE(pins.empty());
  const auto& a = policy.params_for(net.degree());
  const auto pl = t.path_lengths();
  double best = -1;
  std::size_t expect = 0;
  for (std::size_t v = 1; v < net.degree(); ++v) {
    const double s =
        a.far_source * static_cast<double>(geom::l1(net.source(), t.node(v))) +
        a.far_tree * static_cast<double>(pl[v]);
    if (s > best) {
      best = s;
      expect = v;
    }
  }
  EXPECT_EQ(pins[0], expect);
}

TEST(Policy, CurriculumBucketsResolveByDegree) {
  core::Policy policy;
  core::PolicyParams p10;
  p10.far_source = 7.0;
  core::PolicyParams p50;
  p50.far_source = 9.0;
  policy.set_params(10, p10);
  policy.set_params(50, p50);
  EXPECT_DOUBLE_EQ(policy.params_for(5).far_source, 1.0);    // defaults
  EXPECT_DOUBLE_EQ(policy.params_for(10).far_source, 7.0);
  EXPECT_DOUBLE_EQ(policy.params_for(49).far_source, 7.0);
  EXPECT_DOUBLE_EQ(policy.params_for(120).far_source, 9.0);
}

// ---- Tree surgery ----

// The pre-incremental reattach, kept verbatim as the differential oracle
// for core::regenerate_subtopology: a std::map point index, a full O(V^2)
// Dijkstra over the whole edge pool and a row-major (orphan, core) scan on
// every round.
tree::RoutingTree reference_regenerate_subtopology(
    const tree::RoutingTree& t, const std::vector<std::size_t>& pins,
    const tree::RoutingTree& subtopology, core::ReattachMode mode) {
  using geom::Length;
  using geom::Point;
  // A = {source} ∪ selected pins.
  std::vector<bool> in_a(t.num_nodes(), false);
  in_a[0] = true;
  for (std::size_t p : pins) in_a[p] = true;

  const auto ch = t.children();
  std::vector<int> cnt(t.num_nodes(), 0);
  std::vector<std::size_t> order;
  order.reserve(t.num_nodes());
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    order.push_back(u);
    for (std::int32_t c : ch[u]) stack.push_back(static_cast<std::size_t>(c));
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t u = *it;
    if (in_a[u]) ++cnt[u];
    for (std::int32_t c : ch[u]) cnt[u] += cnt[static_cast<std::size_t>(c)];
  }

  std::vector<std::pair<Point, Point>> edges;
  for (std::size_t v = 1; v < t.num_nodes(); ++v)
    if (cnt[v] == 0)
      edges.emplace_back(t.node(v),
                         t.node(static_cast<std::size_t>(t.parent(v))));
  for (std::size_t w = 1; w < subtopology.num_nodes(); ++w)
    edges.emplace_back(
        subtopology.node(w),
        subtopology.node(static_cast<std::size_t>(subtopology.parent(w))));

  Net net;
  net.pins.assign(t.nodes().begin(),
                  t.nodes().begin() + static_cast<std::ptrdiff_t>(t.num_pins()));

  std::map<Point, std::size_t> id;
  std::vector<Point> pts;
  auto intern = [&](const Point& p) {
    auto [it2, inserted] = id.emplace(p, pts.size());
    if (inserted) pts.push_back(p);
    return it2->second;
  };
  for (const Point& p : net.pins) intern(p);
  std::vector<std::size_t> parent_uf;
  auto find = [&](std::size_t x) {
    while (parent_uf[x] != x) x = parent_uf[x] = parent_uf[parent_uf[x]];
    return x;
  };
  for (const auto& [a, b] : edges) {
    intern(a);
    intern(b);
  }
  parent_uf.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) parent_uf[i] = i;
  for (const auto& [a, b] : edges) {
    const std::size_t ra = find(id[a]);
    const std::size_t rb = find(id[b]);
    if (ra != rb) parent_uf[ra] = rb;
  }

  std::vector<bool> has_pin(pts.size(), false);
  for (const Point& p : net.pins) has_pin[find(id[p])] = true;
  const std::size_t core_root = find(id[net.pins[0]]);

  std::vector<bool> in_core(pts.size(), false);
  for (std::size_t i = 0; i < pts.size(); ++i)
    in_core[i] = find(i) == core_root;

  auto core_path_lengths = [&]() {
    constexpr Length kUnreached = std::numeric_limits<Length>::max() / 4;
    std::vector<Length> dist(pts.size(), kUnreached);
    std::vector<std::vector<std::size_t>> adj(pts.size());
    for (const auto& [a, b] : edges) {
      adj[id[a]].push_back(id[b]);
      adj[id[b]].push_back(id[a]);
    }
    std::vector<bool> done(pts.size(), false);
    dist[id[net.pins[0]]] = 0;
    for (std::size_t round = 0; round < pts.size(); ++round) {
      std::size_t u = pts.size();
      Length best = kUnreached;
      for (std::size_t v = 0; v < pts.size(); ++v)
        if (!done[v] && dist[v] < best) {
          best = dist[v];
          u = v;
        }
      if (u == pts.size()) break;
      done[u] = true;
      for (std::size_t v : adj[u])
        dist[v] = std::min(dist[v], dist[u] + geom::l1(pts[u], pts[v]));
    }
    return dist;
  };

  while (true) {
    std::vector<Length> pl;
    if (mode == core::ReattachMode::kDelayAware) pl = core_path_lengths();
    Length best = std::numeric_limits<Length>::max();
    std::size_t bo = 0, bc = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (in_core[i] || !has_pin[find(i)]) continue;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (!in_core[j]) continue;
        const Length d =
            geom::l1(pts[i], pts[j]) +
            (mode == core::ReattachMode::kDelayAware ? pl[j] : 0);
        if (d < best) {
          best = d;
          bo = i;
          bc = j;
        }
      }
    }
    if (best == std::numeric_limits<Length>::max()) break;
    edges.emplace_back(pts[bo], pts[bc]);
    const std::size_t orphan_root = find(bo);
    parent_uf[orphan_root] = find(bc);
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (find(i) == find(bc)) in_core[i] = true;
  }

  tree::RoutingTree result = tree::RoutingTree::from_edges(net, edges);
  result.normalize();
  return result;
}

TEST(RegenerateSubtopology, SameTreesAsReferenceReattach) {
  // Local-search-shaped inputs: RSMT seeds and their refined variants on
  // clustered nets (tight windows force coordinate ties), policy-selected
  // pins, and every sub-topology of the exact frontier from both the table
  // (4-pin subnets) and numeric DW (6-pin subnets), in both modes.
  const lut::LookupTable table = lut::LookupTable::generate(4);
  util::Rng rng(120);
  core::Policy policy;
  int cases = 0;
  for (int it = 0; it < 60; ++it) {
    const std::size_t degree = 12 + rng.index(53);  // 12..64
    const geom::Coord window = it % 2 == 0 ? 20 : 100000;
    const Net net = netgen::clustered_net(rng, degree, window);
    std::vector<tree::RoutingTree> trees{rsmt::rsmt(net)};
    for (auto& v : tree::refined_variants(trees[0]))
      trees.push_back(std::move(v));
    for (std::size_t k = 0; k < trees.size(); ++k) {
      const tree::RoutingTree& t = trees[k];
      const bool use_table = k % 2 == 0;
      const auto pins = policy.select_pins(t, use_table ? 3 : 5);
      Net subnet;
      subnet.pins.push_back(net.source());
      for (std::size_t p : pins) subnet.pins.push_back(t.node(p));
      const auto sub =
          core::exact_small_frontier(subnet, use_table ? &table : nullptr);
      ASSERT_FALSE(sub.trees.empty());
      for (const auto& s : sub.trees) {
        for (const core::ReattachMode mode :
             {core::ReattachMode::kNearest, core::ReattachMode::kDelayAware}) {
          const auto got = core::regenerate_subtopology(t, pins, s, mode);
          const auto want = reference_regenerate_subtopology(t, pins, s, mode);
          ASSERT_EQ(got.nodes(), want.nodes())
              << "net " << it << " tree " << k << " mode "
              << static_cast<int>(mode);
          ASSERT_EQ(got.parents(), want.parents())
              << "net " << it << " tree " << k << " mode "
              << static_cast<int>(mode);
          ++cases;
        }
      }
    }
  }
  EXPECT_GE(cases, 300);
}

TEST(RegenerateSubtopology, PreservesAllPins) {
  util::Rng rng(103);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 14);
    const auto t = rsmt::rsmt_heuristic(net);
    core::Policy policy;
    const auto pins = policy.select_pins(t, 5);
    Net subnet;
    subnet.pins.push_back(net.source());
    for (std::size_t p : pins) subnet.pins.push_back(t.node(p));
    const auto sub = dw::pareto_dw(subnet);
    ASSERT_FALSE(sub.trees.empty());
    for (const auto& s : sub.trees) {
      const auto rebuilt = core::regenerate_subtopology(t, pins, s);
      EXPECT_TRUE(rebuilt.validate().empty()) << rebuilt.validate();
      EXPECT_EQ(rebuilt.num_pins(), net.degree());
      // Every original pin must still be present at its coordinates.
      for (std::size_t v = 0; v < net.degree(); ++v)
        EXPECT_EQ(rebuilt.node(v), net.pins[v]);
    }
  }
}

TEST(RegenerateSubtopology, DelayAwareValidatesAndPreservesPins) {
  util::Rng rng(113);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 14);
    const auto t = rsmt::rsmt_heuristic(net);
    core::Policy policy;
    const auto pins = policy.select_pins(t, 5);
    Net subnet;
    subnet.pins.push_back(net.source());
    for (std::size_t p : pins) subnet.pins.push_back(t.node(p));
    const auto sub = dw::pareto_dw(subnet);
    ASSERT_FALSE(sub.trees.empty());
    for (const auto& s : sub.trees) {
      const auto rebuilt = core::regenerate_subtopology(
          t, pins, s, core::ReattachMode::kDelayAware);
      EXPECT_TRUE(rebuilt.validate().empty()) << rebuilt.validate();
      EXPECT_EQ(rebuilt.num_pins(), net.degree());
      for (std::size_t v = 0; v < net.degree(); ++v)
        EXPECT_EQ(rebuilt.node(v), net.pins[v]);
    }
  }
}

TEST(RegenerateSubtopology, DelayAwareAnchorsOrphanNearTheSource) {
  // Source s, far pin a, and pin b hanging off a mid-path Steiner node u.
  // Regenerating {a}'s sub-topology deletes s->u->a, orphaning {u, b}.
  // The nearest core point to the orphan is a (L1 45 via u), but a sits at
  // the end of a 100-long source path; the delay-aware mode pays 65 to
  // anchor at the source instead and wins on delay.
  Net net;
  net.pins = {{0, 0}, {100, 0}, {60, 10}};  // s, a, b
  const geom::Point u{60, 5};
  const std::vector<std::pair<geom::Point, geom::Point>> tree_edges{
      {net.pins[0], u}, {u, net.pins[1]}, {u, net.pins[2]}};
  const auto t = tree::RoutingTree::from_edges(net, tree_edges);
  ASSERT_TRUE(t.validate().empty()) << t.validate();

  Net subnet;
  subnet.pins = {net.pins[0], net.pins[1]};
  const std::vector<std::pair<geom::Point, geom::Point>> sub_edges{
      {subnet.pins[0], subnet.pins[1]}};
  const auto sub = tree::RoutingTree::from_edges(subnet, sub_edges);
  const std::vector<std::size_t> pins{1};  // regenerate around pin a

  const auto near = core::regenerate_subtopology(t, pins, sub,
                                                 core::ReattachMode::kNearest);
  const auto aware = core::regenerate_subtopology(
      t, pins, sub, core::ReattachMode::kDelayAware);
  ASSERT_TRUE(near.validate().empty()) << near.validate();
  ASSERT_TRUE(aware.validate().empty()) << aware.validate();

  // kNearest attaches the orphan at a: delay to b = 100 + 45 + 5 = 150.
  // kDelayAware attaches it at s: delay to b = 65 + 5 = 70; max delay is
  // then pin a's 100.
  EXPECT_EQ(near.delay(), 150);
  EXPECT_EQ(aware.delay(), 100);
  EXPECT_LT(aware.delay(), near.delay());
  // The anchor trade-off buys delay with wirelength.
  EXPECT_GT(aware.wirelength(), near.wirelength());
}

// ---- PatLabor ----

TEST(PatLabor, SmallNetsAreExact) {
  util::Rng rng(104);
  for (int it = 0; it < 25; ++it) {
    const std::size_t degree = 4 + rng.index(5);  // 4..8
    const Net net = testing::random_net(rng, degree);
    const auto r = core::patlabor(net);
    EXPECT_EQ(r.frontier, dw::pareto_frontier(net));
    ASSERT_EQ(r.trees.size(), r.frontier.size());
    for (std::size_t i = 0; i < r.trees.size(); ++i)
      EXPECT_EQ(r.trees[i].objective(), r.frontier[i]);
  }
}

TEST(PatLabor, SmallNetsUseLutWhenProvided) {
  const lut::LookupTable table = lut::LookupTable::generate(5);
  PatLaborOptions opt;
  opt.table = &table;
  util::Rng rng(105);
  for (int it = 0; it < 15; ++it) {
    const Net net = testing::random_net(rng, 5);
    EXPECT_EQ(core::patlabor(net, opt).frontier, dw::pareto_frontier(net));
  }
}

class PatLaborLargeNets : public ::testing::TestWithParam<int> {};

TEST_P(PatLaborLargeNets, LocalSearchInvariants) {
  util::Rng rng(static_cast<std::uint64_t>(1100 + GetParam()));
  const std::size_t degree = 12 + rng.index(25);  // 12..36
  const Net net = testing::random_net(rng, degree, 5000, true);
  PatLaborOptions opt;
  opt.lambda = 6;  // keep the DW sub-solver cheap in tests
  const auto r = core::patlabor(net, opt);

  ASSERT_FALSE(r.frontier.empty());
  EXPECT_TRUE(r.frontier.invariant_ok());
  EXPECT_GT(r.iterations, 0);
  ASSERT_EQ(r.trees.size(), r.frontier.size());
  const auto t0 = rsmt::rsmt(net);
  for (std::size_t i = 0; i < r.trees.size(); ++i) {
    EXPECT_TRUE(r.trees[i].validate().empty()) << r.trees[i].validate();
    EXPECT_EQ(r.trees[i].objective(), r.frontier[i]);
    // Never worse than the seed in both objectives simultaneously.
    EXPECT_TRUE(r.frontier[i].w <= t0.wirelength() ||
                r.frontier[i].d <= t0.delay());
    // Physical lower bounds.
    EXPECT_GE(r.frontier[i].d, rsma::star_delay(net));
  }
  // The population retains a tree no worse in wirelength than the seed.
  EXPECT_LE(r.frontier.front().w, t0.wirelength());
  // Local search should find at least one delay improvement over the RSMT.
  EXPECT_LE(r.frontier.back().d, t0.delay());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatLaborLargeNets, ::testing::Range(0, 10));

// Byte-identity guard on the local search: a digest of every frontier point
// and every realizing tree (nodes and parents) of core::patlabor at λ = 7,
// with numeric Pareto-DW solving the subnets, on seeded clustered nets of
// degree 8–64 (six of each).  The constant pins today's output, so a kernel
// rewrite in refine, from_edges, the RSMT seed or DW that changes any tree
// fails here.
TEST(PatLabor, LocalSearchGoldenDigest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  util::Rng rng(2323);
  PatLaborOptions opt;
  opt.lambda = 7;
  std::size_t points = 0;
  std::vector<Net> nets;
  for (int rep = 0; rep < 6; ++rep)
    for (const std::size_t degree : {8, 10, 12, 16, 20, 24, 32, 40, 48, 64})
      nets.push_back(netgen::clustered_net(rng, degree));
  for (const Net& net : nets) {
    const auto r = core::patlabor(net, opt);
    ASSERT_EQ(r.trees.size(), r.frontier.size());
    mix(static_cast<std::int64_t>(r.frontier.size()));
    for (std::size_t i = 0; i < r.frontier.size(); ++i) {
      mix(r.frontier[i].w);
      mix(r.frontier[i].d);
      const tree::RoutingTree& t = r.trees[i];
      mix(static_cast<std::int64_t>(t.num_nodes()));
      for (std::size_t v = 0; v < t.num_nodes(); ++v) {
        mix(t.node(v).x);
        mix(t.node(v).y);
        mix(t.parent(v));
      }
    }
    points += r.frontier.size();
  }
  EXPECT_GT(points, 100u);
  EXPECT_EQ(h, 0x95b9e85b4f75c7bdULL) << std::hex << "digest 0x" << h;
}

TEST(PatLabor, DegenerateAndTinyNets) {
  Net net1;
  net1.pins = {{5, 5}, {5, 5}};  // duplicate pin
  const auto r1 = core::patlabor(net1);
  ASSERT_EQ(r1.frontier.size(), 1u);
  EXPECT_EQ(r1.frontier[0], (Objective{0, 0}));

  Net net2;
  net2.pins = {{0, 0}, {3, 4}};
  EXPECT_EQ(core::patlabor(net2).frontier[0], (Objective{7, 7}));
}

// ---- Pareto-KS ----

TEST(ParetoKs, LeafSizedNetsAreExact) {
  util::Rng rng(106);
  for (int it = 0; it < 10; ++it) {
    const Net net = testing::random_net(rng, 5);
    core::ParetoKsOptions opt;
    opt.leaf_size = 8;
    EXPECT_EQ(core::pareto_ks(net, opt).frontier, dw::pareto_frontier(net));
  }
}

class ParetoKsLarge : public ::testing::TestWithParam<int> {};

TEST_P(ParetoKsLarge, ProducesValidParetoSets) {
  util::Rng rng(static_cast<std::uint64_t>(1200 + GetParam()));
  const std::size_t degree = 12 + rng.index(20);
  const Net net = testing::random_net(rng, degree, 5000, true);
  core::ParetoKsOptions opt;
  opt.leaf_size = 5;
  const auto r = core::pareto_ks(net, opt);
  ASSERT_FALSE(r.frontier.empty());
  EXPECT_TRUE(r.frontier.invariant_ok());
  for (std::size_t i = 0; i < r.trees.size(); ++i) {
    EXPECT_TRUE(r.trees[i].validate().empty()) << r.trees[i].validate();
    EXPECT_EQ(r.trees[i].objective(), r.frontier[i]);
    EXPECT_GE(r.frontier[i].d, rsma::star_delay(net));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoKsLarge, ::testing::Range(0, 8));

// ---- Trainer ----

TEST(Trainer, ProducesNonNegativeParamsAndReports) {
  core::TrainerOptions opt;
  opt.lambda = 5;
  opt.start_degree = 8;
  opt.end_degree = 12;
  opt.degree_step = 4;
  opt.instances_per_degree = 2;
  opt.rollouts_per_instance = 3;
  opt.seed = 7;
  const auto report = core::train_policy(opt);
  ASSERT_EQ(report.per_degree.size(), 2u);
  for (const auto& d : report.per_degree) {
    EXPECT_GE(d.params.far_source, 0.0);
    EXPECT_GE(d.params.far_tree, 0.0);
    EXPECT_GE(d.params.near_selected, 0.0);
    EXPECT_GE(d.params.hpwl, 0.0);
  }
  // The trained policy must remain usable inside PatLabor.
  util::Rng rng(107);
  const Net net = testing::random_net(rng, 14, 3000, true);
  PatLaborOptions popt;
  popt.lambda = 5;
  popt.policy = report.policy;
  const auto r = core::patlabor(net, popt);
  EXPECT_FALSE(r.frontier.empty());
}

}  // namespace
}  // namespace patlabor
