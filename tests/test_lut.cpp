#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "lut_query_reference.hpp"
#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/lut/lut_format.hpp"
#include "patlabor/lut/pattern.hpp"
#include "patlabor/netgen/netgen.hpp"
#include "patlabor/util/xxhash.hpp"
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
    lut::RankCoords xs, ys;
    const PinPattern p = lut::pattern_of(net, xs, ys);
    const Canonical c = lut::canonical_joint(p);
    EXPECT_EQ(lut::apply_transform(p, c.transform), c.pattern);
    EXPECT_EQ(lut::joint_code(c.pattern), c.code);
  }
}

TEST(Pattern, PatternOfSimpleNet) {
  Net net;
  net.pins = {{10, 0}, {0, 5}, {20, 3}};  // source has middle x rank
  lut::RankCoords xs, ys;
  const PinPattern p = lut::pattern_of(net, xs, ys);
  EXPECT_EQ(p.n, 3);
  EXPECT_EQ(p.source, 1);            // x rank of (10,0)
  EXPECT_EQ(p.perm[0], 2);           // (0,5): highest y
  EXPECT_EQ(p.perm[1], 0);           // (10,0): lowest y
  EXPECT_EQ(p.perm[2], 1);           // (20,3): middle y
  EXPECT_EQ(std::vector<geom::Coord>(xs.begin(), xs.begin() + 3),
            (std::vector<geom::Coord>{0, 10, 20}));
  EXPECT_EQ(std::vector<geom::Coord>(ys.begin(), ys.begin() + 3),
            (std::vector<geom::Coord>{0, 3, 5}));
}

TEST(Pattern, StableTieBreaking) {
  Net net;
  net.pins = {{5, 5}, {5, 9}, {5, 1}};  // all same x
  lut::RankCoords xs, ys;
  const PinPattern p = lut::pattern_of(net, xs, ys);
  // x ranks by pin index: source first.
  EXPECT_EQ(p.source, 0);
  EXPECT_EQ(std::vector<geom::Coord>(xs.begin(), xs.begin() + 3),
            (std::vector<geom::Coord>{5, 5, 5}));
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

// ---- Score-then-build query == the build-every-tree reference ----

/// The differential nets: seeded degree 2-6 nets of every shape the scorer
/// must mirror — spread-out clustered nets, nets on 2x2 to 7x7 windows
/// (tied coordinates, Steiner points collapsing onto pins and each other,
/// cycles with equal-length alternatives), collinear pins, and nets
/// repeating a pin.
std::vector<Net> differential_nets() {
  util::Rng rng(71);
  std::vector<Net> nets;
  for (std::size_t degree = 2; degree <= 6; ++degree) {
    for (int i = 0; i < 60; ++i) {
      nets.push_back(netgen::clustered_net(rng, degree));
      for (const geom::Coord window : {1, 2, 3, 6})
        nets.push_back(
            testing::random_net(rng, degree, window, /*allow_ties=*/true));
    }
    for (int i = 0; i < 10; ++i) {
      Net line;
      for (std::size_t k = 0; k < degree; ++k)
        line.pins.push_back(i % 2 == 0
                                ? geom::Point{rng.uniform_int(0, 50), 7}
                                : geom::Point{-3, rng.uniform_int(0, 50)});
      nets.push_back(line);
    }
    for (int i = 0; i < 20; ++i) {
      Net dup = testing::random_net(rng, degree - 1, 40, true);
      const geom::Point twin = dup.pins[rng.index(dup.pins.size())];
      dup.pins.insert(dup.pins.begin() + 1 + rng.index(dup.pins.size()),
                      twin);
      nets.push_back(dup);
    }
  }
  return nets;
}

void expect_same_answers(const LookupTable& table, const char* which) {
  std::size_t hits = 0, tied = 0, duplicate_pins = 0;
  for (const Net& net : differential_nets()) {
    const LookupTable::QueryResult want = testing::reference_query(table, net);
    const LookupTable::QueryResult got = table.query(net);
    ASSERT_EQ(got.frontier, want.frontier) << which;
    ASSERT_EQ(got.trees.size(), want.trees.size()) << which;
    for (std::size_t k = 0; k < got.trees.size(); ++k) {
      EXPECT_EQ(got.trees[k].num_pins(), want.trees[k].num_pins()) << which;
      EXPECT_EQ(got.trees[k].nodes(), want.trees[k].nodes()) << which;
      EXPECT_EQ(got.trees[k].parents(), want.trees[k].parents()) << which;
    }
    if (net.degree() < 4) continue;
    ++hits;
    bool ties = false, dup = false;
    for (std::size_t a = 0; a < net.pins.size(); ++a)
      for (std::size_t b = a + 1; b < net.pins.size(); ++b) {
        ties |= net.pins[a].x == net.pins[b].x || net.pins[a].y == net.pins[b].y;
        dup |= net.pins[a] == net.pins[b];
      }
    tied += ties ? 1 : 0;
    duplicate_pins += dup ? 1 : 0;
  }
  // The table answers most nets, many of them degenerate.
  EXPECT_GT(hits, 400u) << which;
  EXPECT_GT(tied, 200u) << which;
  EXPECT_GT(duplicate_pins, 40u) << which;
}

/// Rewrites every record of a saved table with a random edge set of the
/// same size over its degree's rank grid (blob checksums updated), which
/// generated records never are: self-loops, repeated edges, cycles, edges
/// between two Steiner points new to the interning, and pins left
/// unconnected (a topology validate() rejects).
void scramble_records(const std::string& path, std::uint64_t seed) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();
  util::Rng rng(seed);
  lut::FileHeader head;
  std::memcpy(&head, bytes.data(), sizeof head);
  for (std::uint32_t s = 0; s < head.section_count; ++s) {
    const std::size_t at = sizeof head + s * sizeof(lut::SectionEntry);
    lut::SectionEntry sec;
    std::memcpy(&sec, bytes.data() + at, sizeof sec);
    if (sec.kind != lut::kSectionDegree) continue;
    const int n = static_cast<int>(sec.degree);
    std::uint8_t* const blob = bytes.data() + sec.blob_offset;
    for (std::uint64_t i = 0; i < sec.index_count; ++i) {
      lut::IndexEntry e;
      std::memcpy(&e, bytes.data() + sec.index_offset + i * sizeof e,
                  sizeof e);
      // The pins of the entry's canonical pattern: the y rank of x rank x
      // is hex digit n - x of the joint code (digit 0 is the source).
      std::vector<std::uint8_t> pins;
      for (int x = 0; x < n; ++x)
        pins.push_back(static_cast<std::uint8_t>(
            (x << 4) | ((e.code >> (4 * (n - x))) & 0xF)));
      std::uint8_t* p = blob + e.offset;
      for (std::uint32_t r = 0; r < e.count; ++r) {
        const unsigned edges = *p++;
        std::vector<std::uint8_t> reached{pins[rng.index(pins.size())]};
        const auto any_point = [&] {
          return static_cast<std::uint8_t>((rng.index(n) << 4) | rng.index(n));
        };
        for (unsigned k = 0; k < edges; ++k, p += 2) {
          std::uint8_t a = reached[rng.index(reached.size())], b = any_point();
          switch (rng.index(6)) {
            case 0: b = a; break;              // self-loop
            case 1: a = any_point(); break;    // possibly two new points
            case 2: b = reached[rng.index(reached.size())]; break;  // cycle
            default: b = pins[rng.index(pins.size())]; break;
          }
          reached.push_back(a);
          reached.push_back(b);
          if (rng.index(2) == 0) std::swap(a, b);
          p[0] = a;
          p[1] = b;
        }
      }
    }
    sec.blob_xxh = util::xxhash64({blob, sec.blob_bytes});
    std::memcpy(bytes.data() + at, &sec, sizeof sec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(LutQuery, SameAnswersAsTreeBuildingReference) {
  const LookupTable generated = LookupTable::generate(6);
  expect_same_answers(generated, "generated");

  const std::string path = ::testing::TempDir() + "/lut_query_reference.bin";
  generated.save(path);
  {
    const LookupTable opened = LookupTable::open(path);
    ASSERT_EQ(opened.storage().backend, LookupTable::StorageBackend::kMmap);
    expect_same_answers(opened, "opened");
  }
  scramble_records(path, 73);
  const LookupTable scrambled = LookupTable::open(path);
  ASSERT_NE(scrambled.content_hash(), generated.content_hash());
  expect_same_answers(scrambled, "scrambled records");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace patlabor
