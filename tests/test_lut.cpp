#include <gtest/gtest.h>

#include <cstdio>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/lut/pattern.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using geom::Net;
using lut::Canonical;
using lut::LookupTable;
using lut::PinPattern;
using lut::RankPoint;

PinPattern make_pattern(std::initializer_list<int> perm, int source) {
  PinPattern p;
  p.n = static_cast<int>(perm.size());
  int i = 0;
  for (int v : perm) p.perm[static_cast<std::size_t>(i++)] =
      static_cast<std::uint8_t>(v);
  p.source = static_cast<std::uint8_t>(source);
  return p;
}

TEST(Pattern, TransformPointRoundTrip) {
  for (int n = 2; n <= 9; ++n)
    for (int t = 0; t < lut::kNumTransforms; ++t)
      for (int x = 0; x < n; ++x)
        for (int y = 0; y < n; ++y) {
          const RankPoint p{static_cast<std::uint8_t>(x),
                            static_cast<std::uint8_t>(y)};
          const RankPoint q =
              lut::inverse_transform_point(lut::transform_point(p, t, n), t, n);
          EXPECT_EQ(p, q) << "t=" << t << " n=" << n;
        }
}

TEST(Pattern, TransformsPreservePermutationStructure) {
  const PinPattern p = make_pattern({2, 0, 3, 1}, 1);
  for (int t = 0; t < lut::kNumTransforms; ++t) {
    const PinPattern q = lut::apply_transform(p, t);
    std::array<bool, 9> seen{};
    for (int i = 0; i < q.n; ++i) {
      EXPECT_LT(q.perm[static_cast<std::size_t>(i)], q.n);
      seen[q.perm[static_cast<std::size_t>(i)]] = true;
    }
    for (int i = 0; i < q.n; ++i) EXPECT_TRUE(seen[static_cast<std::size_t>(i)]);
    EXPECT_LT(q.source, q.n);
  }
}

TEST(Pattern, IdentityTransformIsIdentity) {
  const PinPattern p = make_pattern({2, 0, 3, 1}, 2);
  EXPECT_EQ(lut::apply_transform(p, 0), p);
}

TEST(Pattern, CanonicalInvariantOverOrbit) {
  const PinPattern p = make_pattern({1, 3, 0, 2}, 3);
  const Canonical c = lut::canonical_joint(p);
  for (int t = 0; t < lut::kNumTransforms; ++t) {
    const PinPattern q = lut::apply_transform(p, t);
    EXPECT_EQ(lut::canonical_joint(q).code, c.code) << "transform " << t;
  }
  // Pattern-only canonicalization is also orbit-invariant.
  const Canonical cp = lut::canonical_pattern_only(p);
  for (int t = 0; t < lut::kNumTransforms; ++t) {
    const PinPattern q = lut::apply_transform(p, t);
    EXPECT_EQ(lut::canonical_pattern_only(q).code, cp.code);
  }
}

TEST(Pattern, CanonicalTransformMapsOntoCanonicalPattern) {
  util::Rng rng(55);
  for (int it = 0; it < 30; ++it) {
    const Net net = testing::random_net(rng, 5);
    std::vector<geom::Coord> xs, ys;
    const PinPattern p = lut::pattern_of(net, xs, ys);
    const Canonical c = lut::canonical_joint(p);
    EXPECT_EQ(lut::apply_transform(p, c.transform), c.pattern);
    EXPECT_EQ(lut::joint_code(c.pattern), c.code);
  }
}

TEST(Pattern, PatternOfSimpleNet) {
  Net net;
  net.pins = {{10, 0}, {0, 5}, {20, 3}};  // source has middle x rank
  std::vector<geom::Coord> xs, ys;
  const PinPattern p = lut::pattern_of(net, xs, ys);
  EXPECT_EQ(p.n, 3);
  EXPECT_EQ(p.source, 1);            // x rank of (10,0)
  EXPECT_EQ(p.perm[0], 2);           // (0,5): highest y
  EXPECT_EQ(p.perm[1], 0);           // (10,0): lowest y
  EXPECT_EQ(p.perm[2], 1);           // (20,3): middle y
  EXPECT_EQ(xs, (std::vector<geom::Coord>{0, 10, 20}));
  EXPECT_EQ(ys, (std::vector<geom::Coord>{0, 3, 5}));
}

TEST(Pattern, StableTieBreaking) {
  Net net;
  net.pins = {{5, 5}, {5, 9}, {5, 1}};  // all same x
  std::vector<geom::Coord> xs, ys;
  const PinPattern p = lut::pattern_of(net, xs, ys);
  // x ranks by pin index: source first.
  EXPECT_EQ(p.source, 0);
  EXPECT_EQ(xs, (std::vector<geom::Coord>{5, 5, 5}));
}

// ---- The decisive LUT correctness test: query == numeric Pareto-DW ----

class LutSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lut_ = new LookupTable(LookupTable::generate(5));
  }
  static void TearDownTestSuite() {
    delete lut_;
    lut_ = nullptr;
  }
  static LookupTable* lut_;
};

LookupTable* LutSuite::lut_ = nullptr;

TEST_F(LutSuite, CoversGeneratedDegrees) {
  EXPECT_TRUE(lut_->covers(2));
  EXPECT_TRUE(lut_->covers(3));
  EXPECT_TRUE(lut_->covers(4));
  EXPECT_TRUE(lut_->covers(5));
  EXPECT_FALSE(lut_->covers(6));
}

TEST_F(LutSuite, StatsArePopulated) {
  const auto& st = lut_->stats();
  ASSERT_TRUE(st.count(4));
  ASSERT_TRUE(st.count(5));
  EXPECT_GT(st.at(4).indices, 0u);
  EXPECT_GT(st.at(4).topologies, st.at(4).indices);  // > 1 topo per index
  EXPECT_GT(st.at(5).indices, st.at(4).indices);     // factorial growth
}

TEST_F(LutSuite, QueryMatchesNumericDwDegree4And5) {
  util::Rng rng(60);
  for (int it = 0; it < 60; ++it) {
    const std::size_t degree = 4 + rng.index(2);
    const Net net = testing::random_net(rng, degree, 200);
    const auto expected = dw::pareto_frontier(net);
    const auto got = lut_->query(net);
    EXPECT_EQ(got.frontier, expected) << "degree " << degree << " it " << it;
    ASSERT_EQ(got.trees.size(), got.frontier.size());
    for (std::size_t i = 0; i < got.trees.size(); ++i) {
      EXPECT_TRUE(got.trees[i].validate().empty());
      EXPECT_EQ(got.trees[i].objective(), got.frontier[i]);
    }
  }
}

TEST_F(LutSuite, QueryMatchesDwOnDegenerateNets) {
  util::Rng rng(61);
  for (int it = 0; it < 40; ++it) {
    const Net net = testing::random_net(rng, 5, 12, /*allow_ties=*/true);
    EXPECT_EQ(lut_->query(net).frontier, dw::pareto_frontier(net))
        << "it " << it;
  }
}

TEST_F(LutSuite, TrivialDegreesAnsweredDirectly) {
  Net net2;
  net2.pins = {{0, 0}, {3, 4}};
  const auto r2 = lut_->query(net2);
  ASSERT_EQ(r2.frontier.size(), 1u);
  EXPECT_EQ(r2.frontier[0], (pareto::Objective{7, 7}));

  util::Rng rng(62);
  const Net net3 = testing::random_net(rng, 3);
  EXPECT_EQ(lut_->query(net3).frontier, dw::pareto_frontier(net3));
}

TEST_F(LutSuite, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/patlabor_lut_test.bin";
  lut_->save(path);
  const LookupTable loaded = LookupTable::open(path);
  EXPECT_EQ(loaded.max_degree(), lut_->max_degree());
  EXPECT_EQ(loaded.stats().at(5).indices, lut_->stats().at(5).indices);
  util::Rng rng(63);
  for (int it = 0; it < 20; ++it) {
    const Net net = testing::random_net(rng, 5, 300);
    EXPECT_EQ(loaded.query(net).frontier, lut_->query(net).frontier);
  }
  std::remove(path.c_str());
}

TEST(LutOptions, PruningVariantsProduceSameFrontiers) {
  // Lemmas 1-4 must not change query results, only table size /
  // generation speed.  Checked at degrees 4 and 5 against the numeric DW.
  lut::ParamDwOptions no_arcs;
  no_arcs.boundary_arcs = false;
  lut::ParamDwOptions no_lp;
  no_lp.exact_pruning = false;
  lut::ParamDwOptions no_geom;
  no_geom.corner_pruning = false;
  no_geom.bbox_restriction = false;
  LookupTable full = LookupTable::generate(5);
  LookupTable variant_a = LookupTable::generate(5, no_arcs);
  LookupTable variant_b = LookupTable::generate(5, no_lp);
  LookupTable variant_c = LookupTable::generate(5, no_geom);
  util::Rng rng(64);
  for (int it = 0; it < 60; ++it) {
    const std::size_t degree = 4 + rng.index(2);
    const Net net = testing::random_net(rng, degree, 100);
    const auto expected = dw::pareto_frontier(net);
    EXPECT_EQ(full.query(net).frontier, expected);
    EXPECT_EQ(variant_a.query(net).frontier, expected) << "no Lemma 4";
    EXPECT_EQ(variant_b.query(net).frontier, expected) << "no Lemma 1 LP";
    EXPECT_EQ(variant_c.query(net).frontier, expected) << "no Lemmas 2/3";
  }
  // Without exact pruning the table can only be larger.
  EXPECT_GE(variant_b.stats().at(5).topologies,
            full.stats().at(5).topologies);
}

TEST(LutMissingDegree, FallsBackToNumericDw) {
  LookupTable lut = LookupTable::generate(4);
  util::Rng rng(65);
  const Net net = testing::random_net(rng, 6);
  EXPECT_EQ(lut.query(net).frontier, dw::pareto_frontier(net));
}

}  // namespace
}  // namespace patlabor
