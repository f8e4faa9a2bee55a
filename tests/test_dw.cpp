#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/geom/box.hpp"
#include "patlabor/geom/hanan.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/util/arena.hpp"
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
pareto::SolutionSet brute_force_frontier(const Net& net) {
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
  return pareto::SolutionSet::of(all);
}

// ---------------------------------------------------------------------------
// Reference Pareto-DW: Eq. (1) by enumeration.  Every merge pair and every
// grow pair (v, u) becomes a candidate, and one lowest-index Pareto filter
// per state keeps the survivors.  The solver's sum–max staircase walk and
// L1-transform grow must reproduce these frontiers, trees and counters.
// ---------------------------------------------------------------------------
struct ReferenceDw {
  dw::ParetoDwResult result;
  std::uint64_t merge_candidates = 0;
  std::uint64_t grow_candidates = 0;
  std::uint64_t points_filtered = 0;
};

class ReferenceSolver {
 public:
  ReferenceSolver(const Net& net, const dw::ParetoDwOptions& options)
      : net_(net), options_(options), grid_(net.pins) {}

  ReferenceDw run() {
    const std::size_t nsinks = net_.degree() - 1;
    full_ = (1u << nsinks) - 1;
    std::vector<bool> prunable(static_cast<std::size_t>(grid_.num_nodes()),
                               false);
    if (options_.corner_pruning) prunable = grid_.corner_prunable(net_.pins);
    for (geom::NodeId v = 0; v < grid_.num_nodes(); ++v)
      if (!prunable[static_cast<std::size_t>(v)]) active_.push_back(v);
    for (std::size_t i = 0; i < nsinks; ++i)
      sink_node_.push_back(grid_.node_at(net_.pins[i + 1]));
    states_.assign(static_cast<std::size_t>(grid_.num_nodes()) * (full_ + 1),
                   State{});
    for (std::uint32_t mask = 1; mask <= full_; ++mask) solve_mask(mask);

    const geom::NodeId root = grid_.node_at(net_.pins[0]);
    const auto answer = final_arena_.view(state(root, full_).final_);
    ReferenceDw out;
    out.result.solutions_created = created_;
    ObjVec frontier;
    for (const FinalEntry& e : answer) frontier.push_back(e.obj);
    out.result.frontier =
        pareto::SolutionSet::adopt_staircase(std::move(frontier));
    if (options_.want_trees) {
      for (std::size_t i = 0; i < answer.size(); ++i) {
        std::vector<std::pair<Point, Point>> edges;
        reconstruct_final(root, full_, static_cast<std::int32_t>(i), edges);
        tree::RoutingTree t = tree::RoutingTree::from_edges(net_, edges);
        t.normalize();
        out.result.trees.push_back(std::move(t));
      }
    }
    out.merge_candidates = merge_cands_;
    out.grow_candidates = grow_cands_;
    out.points_filtered = merge_cands_ + grow_cands_ - kept_;
    return out;
  }

 private:
  struct BaseEntry {
    Objective obj;
    std::uint32_t sub = 0;
    std::int32_t ia = -1;
    std::int32_t ib = -1;
  };
  struct FinalEntry {
    Objective obj;
    geom::NodeId from = -1;
    std::int32_t idx = -1;
  };
  struct State {
    util::ArenaSpan base;
    util::ArenaSpan final_;
  };

  State& state(geom::NodeId v, std::uint32_t mask) {
    return states_[static_cast<std::size_t>(v) * (full_ + 1) + mask];
  }
  const State& state(geom::NodeId v, std::uint32_t mask) const {
    return states_[static_cast<std::size_t>(v) * (full_ + 1) + mask];
  }

  void solve_mask(std::uint32_t mask) {
    const std::size_t nsinks = net_.degree() - 1;
    geom::BBox bb;
    for (std::size_t i = 0; i < nsinks; ++i)
      if (mask & (1u << i)) bb.expand(net_.pins[i + 1]);

    for (geom::NodeId v : active_) {
      if (options_.bbox_restriction && !bb.contains(grid_.point(v))) continue;
      State& st = state(v, mask);
      if ((mask & (mask - 1)) == 0) {
        const std::size_t i = static_cast<std::size_t>(std::countr_zero(mask));
        const geom::Length len = grid_.dist(v, sink_node_[i]);
        const std::uint32_t m = base_arena_.mark();
        base_arena_.push_back(BaseEntry{Objective{len, len}, 0, -1, -1});
        st.base = base_arena_.since(m);
        ++created_;
        continue;
      }
      base_scratch_.clear();
      const std::uint32_t low = mask & (~mask + 1);
      for (std::uint32_t sub = (mask - 1) & mask; sub > 0;
           sub = (sub - 1) & mask) {
        if (!(sub & low)) continue;
        const auto fa = final_arena_.view(state(v, sub).final_);
        const auto fb = final_arena_.view(state(v, mask ^ sub).final_);
        for (std::size_t a = 0; a < fa.size(); ++a)
          for (std::size_t b = 0; b < fb.size(); ++b)
            base_scratch_.push_back(BaseEntry{
                Objective{fa[a].obj.w + fb[b].obj.w,
                          std::max(fa[a].obj.d, fb[b].obj.d)},
                sub, static_cast<std::int32_t>(a),
                static_cast<std::int32_t>(b)});
      }
      const auto kept = pareto::filter_indices(
          base_scratch_.size(),
          [&](std::uint32_t k) -> const Objective& {
            return base_scratch_[k].obj;
          },
          filter_scratch_);
      const std::uint32_t m = base_arena_.mark();
      for (std::uint32_t k : kept) base_arena_.push_back(base_scratch_[k]);
      st.base = base_arena_.since(m);
      created_ += st.base.size();
      merge_cands_ += base_scratch_.size();
      kept_ += st.base.size();
    }

    for (geom::NodeId v : active_) {
      State& st = state(v, mask);
      final_scratch_.clear();
      const auto own = base_arena_.view(st.base);
      for (std::size_t i = 0; i < own.size(); ++i)
        final_scratch_.push_back(
            FinalEntry{own[i].obj, -1, static_cast<std::int32_t>(i)});
      for (geom::NodeId u : active_) {
        if (u == v) continue;
        const auto ub = base_arena_.view(state(u, mask).base);
        const geom::Length len = grid_.dist(u, v);
        for (std::size_t i = 0; i < ub.size(); ++i)
          final_scratch_.push_back(
              FinalEntry{Objective{ub[i].obj.w + len, ub[i].obj.d + len}, u,
                         static_cast<std::int32_t>(i)});
      }
      const auto kept = pareto::filter_indices(
          final_scratch_.size(),
          [&](std::uint32_t k) -> const Objective& {
            return final_scratch_[k].obj;
          },
          filter_scratch_);
      const std::uint32_t m = final_arena_.mark();
      for (std::uint32_t k : kept) final_arena_.push_back(final_scratch_[k]);
      st.final_ = final_arena_.since(m);
      created_ += st.final_.size();
      grow_cands_ += final_scratch_.size();
      kept_ += st.final_.size();
    }
  }

  void reconstruct_base(geom::NodeId v, std::uint32_t mask, std::int32_t idx,
                        std::vector<std::pair<Point, Point>>& edges) const {
    const BaseEntry& e =
        base_arena_.at(state(v, mask).base, static_cast<std::uint32_t>(idx));
    if (e.sub == 0) {
      const geom::NodeId s =
          sink_node_[static_cast<std::size_t>(std::countr_zero(mask))];
      if (s != v) edges.emplace_back(grid_.point(v), grid_.point(s));
      return;
    }
    reconstruct_final(v, e.sub, e.ia, edges);
    reconstruct_final(v, mask ^ e.sub, e.ib, edges);
  }

  void reconstruct_final(geom::NodeId v, std::uint32_t mask, std::int32_t idx,
                         std::vector<std::pair<Point, Point>>& edges) const {
    const FinalEntry& e = final_arena_.at(state(v, mask).final_,
                                          static_cast<std::uint32_t>(idx));
    if (e.from < 0) {
      reconstruct_base(v, mask, e.idx, edges);
      return;
    }
    edges.emplace_back(grid_.point(v), grid_.point(e.from));
    reconstruct_base(e.from, mask, e.idx, edges);
  }

  const Net& net_;
  dw::ParetoDwOptions options_;
  geom::HananGrid grid_;
  std::uint32_t full_ = 0;
  std::vector<geom::NodeId> active_;
  std::vector<geom::NodeId> sink_node_;
  std::vector<State> states_;
  util::Arena<BaseEntry> base_arena_;
  util::Arena<FinalEntry> final_arena_;
  std::vector<BaseEntry> base_scratch_;
  std::vector<FinalEntry> final_scratch_;
  pareto::FilterScratch filter_scratch_;
  std::uint64_t created_ = 0;
  std::uint64_t merge_cands_ = 0;
  std::uint64_t grow_cands_ = 0;
  std::uint64_t kept_ = 0;
};

ReferenceDw reference_pareto_dw(const Net& net,
                                const dw::ParetoDwOptions& options) {
  return ReferenceSolver(net, options).run();
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
  const auto expected = brute_force_frontier(net);
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
  EXPECT_TRUE(r.frontier.invariant_ok());

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

// The sum–max merge and the L1-transform grow against the enumeration
// reference: same frontier, same trees node for node, same diagnostics.
// Tie-heavy nets (window 6, shared coordinates, duplicate pins) make
// equal objectives common, so the tie rules of both phases are exercised;
// clustered nets cover the large-coordinate general case.
TEST(ParetoDwDifferential, MatchesEnumerationReference) {
  struct Case {
    std::size_t degree;
    int nets;
  };
  // 2 × Σ nets = 308 nets, each solved under all four pruning options.
  const Case cases[] = {{2, 10}, {3, 30}, {4, 30}, {5, 30}, {6, 24},
                        {7, 16}, {8, 8},  {9, 4},  {10, 2}};
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& reg = obs::StatsRegistry::instance();
  const char* const names[] = {"dw.merge_candidates", "dw.grow_candidates",
                               "dw.states_expanded", "pareto.points_filtered"};
  util::Rng rng(2100);
  dw::DwScratch scratch;
  int solved = 0;
  for (const Case& c : cases) {
    for (int k = 0; k < 2 * c.nets; ++k) {
      const bool ties = k % 2 == 0;
      const Net net = ties ? testing::random_net(rng, c.degree, 6, true)
                           : netgen::clustered_net(rng, c.degree, 100000);
      for (const bool corner : {false, true}) {
        for (const bool bbox : {false, true}) {
          dw::ParetoDwOptions o;
          o.corner_pruning = corner;
          o.bbox_restriction = bbox;
          const std::string where =
              "degree " + std::to_string(c.degree) + " net " +
              std::to_string(k) + " corner=" + std::to_string(corner) +
              " bbox=" + std::to_string(bbox);
          const ReferenceDw ref = reference_pareto_dw(net, o);
          std::uint64_t before[4] = {};
          for (int i = 0; i < 4; ++i) before[i] = reg.counter(names[i]).value();
          const dw::ParetoDwResult got = dw::pareto_dw(net, o, &scratch);
          ++solved;
          ASSERT_EQ(got.frontier, ref.result.frontier) << where;
          ASSERT_EQ(got.solutions_created, ref.result.solutions_created)
              << where;
          ASSERT_EQ(got.trees.size(), ref.result.trees.size()) << where;
          for (std::size_t t = 0; t < got.trees.size(); ++t) {
            ASSERT_EQ(got.trees[t].nodes(), ref.result.trees[t].nodes())
                << where << " tree " << t;
            ASSERT_EQ(got.trees[t].parents(), ref.result.trees[t].parents())
                << where << " tree " << t;
          }
          const std::uint64_t want[4] = {
              ref.merge_candidates, ref.grow_candidates,
              ref.result.solutions_created, ref.points_filtered};
          for (int i = 0; i < 4; ++i)
            ASSERT_EQ(reg.counter(names[i]).value() - before[i], want[i])
                << where << " " << names[i];
        }
      }
    }
  }
  obs::set_enabled(was_enabled);
  EXPECT_EQ(solved, 4 * 308);
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
