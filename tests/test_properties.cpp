// Cross-cutting property tests: algebraic laws and edge cases that the
// per-module suites don't pin down.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "patlabor/lut/pattern.hpp"
#include "patlabor/pareto/solution_set.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/mst.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/tree/refine.hpp"
#include "rational_lp.hpp"
#include "test_util.hpp"

namespace patlabor {
namespace {

using exactlp::Fraction;
using pareto::Objective;
using pareto::ObjVec;

// ---- Pareto algebra laws ----

pareto::SolutionSet random_set(util::Rng& rng, int n) {
  ObjVec s;
  for (int i = 0; i < n; ++i)
    s.push_back({rng.uniform_int(0, 40), rng.uniform_int(0, 40)});
  return pareto::SolutionSet::of(s);
}

TEST(ParetoAlgebra, FilterIsMonotoneUnderUnion) {
  // Adding points never removes coverage: every point covered by F(A) is
  // covered by F(A ∪ B).
  util::Rng rng(404);
  for (int it = 0; it < 30; ++it) {
    const auto a = random_set(rng, 10);
    const auto b = random_set(rng, 10);
    ObjVec a_union_b(a.begin(), a.end());
    a_union_b.insert(a_union_b.end(), b.begin(), b.end());
    const auto u = pareto::SolutionSet::of(a_union_b);
    for (const Objective& p : a) EXPECT_TRUE(pareto::covers(u, p));
    for (const Objective& p : b) EXPECT_TRUE(pareto::covers(u, p));
  }
}

// ---- Simplex robustness ----

TEST(SimplexRobust, DegenerateTiesDoNotCycle) {
  // A classic degenerate LP (multiple ties in the ratio test); Bland's
  // rule must terminate with the optimum.
  exactlp::LpProblem p;
  // min -x1 s.t. x1 + s1 = 1, x1 + s2 = 1, x1 + s3 = 1.
  p.c = {Fraction(-1), Fraction(0), Fraction(0), Fraction(0)};
  p.a = {{Fraction(1), Fraction(1), Fraction(0), Fraction(0)},
         {Fraction(1), Fraction(0), Fraction(1), Fraction(0)},
         {Fraction(1), Fraction(0), Fraction(0), Fraction(1)}};
  p.b = {Fraction(1), Fraction(1), Fraction(1)};
  const auto r = exactlp::solve(p);
  ASSERT_EQ(r.status, exactlp::LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Fraction(-1));
}

TEST(SimplexRobust, RedundantEqualitiesAreHandled) {
  // Duplicate rows leave a zero-valued artificial basic after phase 1.
  exactlp::LpProblem p;
  p.c = {Fraction(1), Fraction(1)};
  p.a = {{Fraction(1), Fraction(1)}, {Fraction(1), Fraction(1)}};
  p.b = {Fraction(3), Fraction(3)};
  const auto r = exactlp::solve(p);
  ASSERT_EQ(r.status, exactlp::LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Fraction(3));
}

TEST(SimplexRobust, ZeroRhsDegeneratePivot) {
  exactlp::LpProblem p;
  p.c = {Fraction(-1), Fraction(0)};
  p.a = {{Fraction(1), Fraction(1)}, {Fraction(1), Fraction(-1)}};
  p.b = {Fraction(0), Fraction(0)};
  const auto r = exactlp::solve(p);
  ASSERT_EQ(r.status, exactlp::LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Fraction(0));
}

// ---- Pattern orbit structure ----

TEST(PatternOrbits, CanonicalFormPartitionsAllDegree4Patterns) {
  // Every (perm, source) of degree 4 must canonicalize into a class whose
  // representative is itself canonical, and orbit sizes divide 8.
  std::set<std::uint64_t> canon_codes;
  std::map<std::uint64_t, int> orbit_size;
  std::array<std::uint8_t, 4> perm{0, 1, 2, 3};
  std::vector<std::uint8_t> p(perm.begin(), perm.end());
  std::sort(p.begin(), p.end());
  do {
    for (int s = 0; s < 4; ++s) {
      lut::PinPattern pat;
      pat.n = 4;
      std::copy(p.begin(), p.end(), pat.perm.begin());
      pat.source = static_cast<std::uint8_t>(s);
      const auto c = lut::canonical_joint(pat);
      canon_codes.insert(c.code);
      ++orbit_size[c.code];
      // Canonicalizing the canonical form is a fixpoint.
      EXPECT_EQ(lut::canonical_joint(c.pattern).code, c.code);
    }
  } while (std::next_permutation(p.begin(), p.end()));
  // 4! * 4 = 96 joint patterns fall into the classes counted by Table II.
  int total = 0;
  for (const auto& [code, size] : orbit_size) {
    (void)code;
    EXPECT_EQ(8 % size, 0) << "orbit size must divide the group order";
    total += size;
  }
  EXPECT_EQ(total, 96);
  EXPECT_EQ(canon_codes.size(), 16u);  // the #Index our Table II reports
}

// ---- Failure injection / degenerate nets across the stack ----

TEST(DegenerateNets, AllConstructorsSurviveCollinearAndDuplicatePins) {
  geom::Net nasty;
  nasty.pins = {{5, 5}, {5, 5}, {5, 9}, {5, 1}, {5, 5}, {5, 7}};
  for (const auto& build : {
           +[](const geom::Net& n) { return rsmt::rsmt(n); },
           +[](const geom::Net& n) { return rsma::rsma(n); },
           +[](const geom::Net& n) { return rsmt::rectilinear_mst(n); },
       }) {
    auto t = build(nasty);
    EXPECT_TRUE(t.validate().empty()) << t.validate();
    tree::refine(t, tree::RefineMode::kEither);
    EXPECT_TRUE(t.validate().empty()) << t.validate();
  }
}

TEST(DegenerateNets, SinglePointNet) {
  geom::Net net;
  net.pins = {{7, 7}, {7, 7}, {7, 7}};
  const auto t = rsmt::rsmt(net);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.wirelength(), 0);
  EXPECT_EQ(t.delay(), 0);
}

TEST(DegenerateNets, HugeCoordinatesDoNotOverflow) {
  // Coordinates near 2^40: products never appear in w/d arithmetic, only
  // sums, which int64 holds comfortably.
  const geom::Coord big = 1LL << 40;
  geom::Net net;
  net.pins = {{0, 0}, {big, big}, {big, 0}, {0, big}};
  const auto t = rsmt::rsmt(net);
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.wirelength(), 3 * big);  // RSMT of a square: three sides
  EXPECT_GE(t.delay(), 2 * big);       // L1 lower bound to the far corner
  EXPECT_LE(t.delay(), 3 * big);       // worst chain around the square
}

TEST(StructuralHash, NoCollisionsAcrossDistinctSmallTopologies) {
  // Sanity: the 16 Pruefer trees over 4 fixed points hash distinctly.
  geom::Net net;
  net.pins = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  std::set<std::uint64_t> hashes;
  int count = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      // Pruefer sequence (a, b) decodes to a labeled tree on 4 nodes.
      std::vector<int> seq{a, b};
      std::vector<int> degree(4, 1);
      for (int s : seq) ++degree[static_cast<std::size_t>(s)];
      std::vector<std::pair<geom::Point, geom::Point>> edges;
      std::vector<bool> used(4, false);
      for (int s : seq) {
        for (int leaf = 0; leaf < 4; ++leaf) {
          if (degree[static_cast<std::size_t>(leaf)] == 1 && !used[leaf]) {
            edges.emplace_back(net.pins[static_cast<std::size_t>(leaf)],
                               net.pins[static_cast<std::size_t>(s)]);
            used[static_cast<std::size_t>(leaf)] = true;
            --degree[static_cast<std::size_t>(s)];
            break;
          }
        }
      }
      std::vector<int> rest;
      for (int v = 0; v < 4; ++v)
        if (!used[static_cast<std::size_t>(v)] &&
            degree[static_cast<std::size_t>(v)] == 1)
          rest.push_back(v);
      edges.emplace_back(net.pins[static_cast<std::size_t>(rest[0])],
                         net.pins[static_cast<std::size_t>(rest[1])]);
      hashes.insert(tree::RoutingTree::from_edges(net, edges)
                        .structural_hash());
      ++count;
    }
  }
  EXPECT_EQ(count, 16);
  EXPECT_EQ(hashes.size(), 16u);
}

}  // namespace
}  // namespace patlabor
