#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "patlabor/pareto/curve.hpp"
#include "patlabor/pareto/solution_set.hpp"
#include "patlabor/util/rng.hpp"

namespace patlabor {
namespace {

using pareto::Objective;
using pareto::ObjVec;

TEST(Dominance, Definition) {
  EXPECT_TRUE(pareto::dominates({1, 2}, {2, 2}));
  EXPECT_TRUE(pareto::dominates({1, 2}, {1, 3}));
  EXPECT_FALSE(pareto::dominates({1, 2}, {1, 2}));  // equal: not dominating
  EXPECT_FALSE(pareto::dominates({1, 3}, {2, 2}));  // incomparable
  EXPECT_TRUE(pareto::weakly_dominates({1, 2}, {1, 2}));
}

TEST(ParetoFilter, RemovesDominatedAndDuplicates) {
  const auto f = pareto::SolutionSet::of(
      ObjVec{{5, 1}, {3, 3}, {4, 2}, {3, 3}, {6, 6}, {1, 9}, {4, 9}});
  const ObjVec expect{{1, 9}, {3, 3}, {4, 2}, {5, 1}};
  EXPECT_EQ(f, expect);
}

TEST(ParetoFilter, EmptyAndSingleton) {
  EXPECT_TRUE(pareto::SolutionSet::of({}).empty());
  EXPECT_EQ(pareto::SolutionSet::of(ObjVec{{7, 7}}), (ObjVec{{7, 7}}));
}

// Property sweep: filter output is an antichain, a subset of the input, and
// every input point is weakly dominated by some output point; filtering is
// idempotent.
class ParetoFilterProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParetoFilterProperty, Invariants) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  ObjVec pts;
  const int n = 1 + static_cast<int>(rng.index(60));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform_int(0, 30), rng.uniform_int(0, 30)});
  const auto f = pareto::SolutionSet::of(pts);

  EXPECT_TRUE(f.invariant_ok());
  for (const Objective& p : f)
    EXPECT_NE(std::find(pts.begin(), pts.end(), p), pts.end());
  for (const Objective& p : pts) EXPECT_TRUE(pareto::covers(f, p));
  EXPECT_EQ(pareto::SolutionSet::of(f), f);
  // Sorted ascending in w, strictly descending in d.
  for (std::size_t i = 1; i < f.size(); ++i) {
    EXPECT_LT(f[i - 1].w, f[i].w);
    EXPECT_GT(f[i - 1].d, f[i].d);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoFilterProperty,
                         ::testing::Range(0, 25));

TEST(CountCovered, TableIVAccounting) {
  const ObjVec frontier{{1, 9}, {3, 3}, {5, 1}};
  const ObjVec found{{3, 3}, {5, 2}};  // (5,2) covers (5,1)? no: d worse
  EXPECT_EQ(pareto::count_covered(frontier, found), 1u);
  const ObjVec better{{1, 9}, {2, 3}, {5, 1}};  // (2,3) covers (3,3)
  EXPECT_EQ(pareto::count_covered(frontier, better), 3u);
}

TEST(Hypervolume, RectangleAreas) {
  const ObjVec f{{1, 3}, {2, 1}};
  // ref (4,4): point (1,3) adds (4-1)*(4-3)=3; point (2,1) adds (4-2)*(3-1)=4.
  EXPECT_DOUBLE_EQ(pareto::hypervolume(f, {4, 4}), 7.0);
  EXPECT_DOUBLE_EQ(pareto::hypervolume({}, {4, 4}), 0.0);
  // Points beyond the reference contribute nothing.
  EXPECT_DOUBLE_EQ(pareto::hypervolume(ObjVec{{5, 5}}, {4, 4}), 0.0);
}

TEST(Hypervolume, MonotoneUnderImprovement) {
  util::Rng rng(5);
  for (int it = 0; it < 50; ++it) {
    ObjVec pts;
    for (int i = 0; i < 10; ++i)
      pts.push_back({rng.uniform_int(1, 50), rng.uniform_int(1, 50)});
    const Objective ref{60, 60};
    const double hv = pareto::hypervolume(pts, ref);
    // Adding a point can only grow the hypervolume.
    ObjVec more = pts;
    more.push_back({rng.uniform_int(1, 50), rng.uniform_int(1, 50)});
    EXPECT_GE(pareto::hypervolume(more, ref) + 1e-9, hv);
  }
}

TEST(Hypervolume, RawInputMatchesItsFrontier) {
  // Unsorted, with dominated points, duplicates and a point past ref: the
  // value is that of the input's Pareto frontier, to the bit.
  util::Rng rng(6);
  for (int it = 0; it < 50; ++it) {
    ObjVec pts;
    for (int i = 0; i < 20; ++i)
      pts.push_back({rng.uniform_int(1, 15), rng.uniform_int(1, 15)});
    pts.push_back(pts.front());
    pts.push_back({20, 0});
    const Objective ref{16, 16};
    EXPECT_EQ(pareto::hypervolume(pts, ref),
              pareto::hypervolume(pareto::SolutionSet::of(pts), ref));
  }
}

TEST(Curve, NormalizeAndStaircase) {
  const ObjVec f{{10, 40}, {20, 20}};
  const auto c = pareto::normalize(f, 10.0, 20.0);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0].w, 1.0);
  EXPECT_DOUBLE_EQ(c[0].d, 2.0);
  EXPECT_DOUBLE_EQ(pareto::staircase_eval(c, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(pareto::staircase_eval(c, 2.0), 1.0);
  EXPECT_TRUE(std::isinf(pareto::staircase_eval(c, 0.5)));
}

TEST(Curve, AverageCurves) {
  const std::vector<std::vector<pareto::CurvePoint>> curves{
      {{1.0, 4.0}, {2.0, 2.0}},
      {{1.0, 2.0}, {2.0, 1.0}},
  };
  const std::vector<double> grid{1.0, 2.0};
  const auto avg = pareto::average_curves(curves, grid);
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0].d, 3.0);
  EXPECT_DOUBLE_EQ(avg[1].d, 1.5);
}

TEST(Curve, Linspace) {
  const auto g = pareto::linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
  EXPECT_DOUBLE_EQ(g[4], 1.0);
}

// ---- SolutionSet vs an O(S^2) reference filter ----

/// O(S^2) reference filter, straight from the definition: keep index i iff
/// nothing dominates pts[i] and it is the first occurrence of its value;
/// then sort by objective.
std::vector<std::uint32_t> brute_force_survivors(const ObjVec& pts) {
  std::vector<std::uint32_t> kept;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool drop = false;
    for (std::size_t j = 0; j < pts.size() && !drop; ++j) {
      if (pareto::dominates(pts[j], pts[i])) drop = true;
      if (j < i && pts[j] == pts[i]) drop = true;  // duplicate: keep first
    }
    if (!drop) kept.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(kept.begin(), kept.end(),
            [&](std::uint32_t a, std::uint32_t b) { return pts[a] < pts[b]; });
  return kept;
}

ObjVec brute_force_filter(const ObjVec& pts) {
  ObjVec kept;
  for (std::uint32_t i : brute_force_survivors(pts)) kept.push_back(pts[i]);
  return kept;
}

ObjVec random_points(util::Rng& rng, int max_n, pareto::Length hi) {
  ObjVec pts;
  const int n = static_cast<int>(rng.index(static_cast<std::size_t>(max_n)));
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform_int(0, hi), rng.uniform_int(0, hi)});
  return pts;
}

class SolutionSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolutionSetProperty, FilterIndicesMatchesParetoIndices) {
  // select()'s payload is filter_indices()' output: the survivors' input
  // indices, in objective order, the first index kept among duplicates.
  util::Rng rng(static_cast<std::uint64_t>(900 + GetParam()));
  const ObjVec once = random_points(rng, 80, 25);
  ObjVec pts = once;  // every point twice: each survivor has a duplicate
  pts.insert(pts.end(), once.begin(), once.end());
  const auto set = pareto::SolutionSet::select(pts);
  EXPECT_EQ(set, brute_force_filter(pts));
  EXPECT_TRUE(set.invariant_ok());
  const auto ref = brute_force_survivors(pts);
  ASSERT_EQ(set.payload().size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_EQ(set.payload()[k], ref[k]) << "position " << k;
    EXPECT_EQ(pts[set.payload()[k]], set[k]) << "position " << k;
  }
}

TEST_P(SolutionSetProperty, OfAndFilterMatchBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const ObjVec pts = random_points(rng, 60, 30);
  const ObjVec expect = brute_force_filter(pts);

  const auto set = pareto::SolutionSet::of(pts);
  EXPECT_EQ(set, expect);
  EXPECT_TRUE(set.invariant_ok());
  EXPECT_EQ(pareto::SolutionSet::of(set), set);  // idempotent

  // The index kernel reaches the same staircase with a reused scratch.
  pareto::FilterScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    ObjVec kept;
    for (std::uint32_t i : pareto::filter_indices(
             pts.size(),
             [&](std::uint32_t k) -> const Objective& { return pts[k]; },
             scratch))
      kept.push_back(pts[i]);
    EXPECT_EQ(kept, expect) << "pass " << pass;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolutionSetProperty, ::testing::Range(0, 25));

TEST(SolutionSet, SelectRecordsPayloadIndices) {
  const ObjVec pts{{5, 1}, {3, 3}, {3, 3}, {9, 9}, {1, 7}};
  auto set = pareto::SolutionSet::select(pts);
  // Staircase: (1,7), (3,3), (5,1); (3,3) keeps the first duplicate.
  EXPECT_EQ(set, (ObjVec{{1, 7}, {3, 3}, {5, 1}}));
  ASSERT_TRUE(set.has_payload());
  ASSERT_EQ(set.payload().size(), 3u);
  EXPECT_EQ(set.payload()[0], 4u);
  EXPECT_EQ(set.payload()[1], 1u);
  EXPECT_EQ(set.payload()[2], 0u);
  for (std::size_t k = 0; k < set.size(); ++k)
    EXPECT_EQ(pts[set.payload()[k]], set[k]);

  std::vector<std::string> tags{"a", "b", "c", "d", "e"};
  const auto gathered = pareto::take_payload(set, std::move(tags));
  EXPECT_EQ(gathered, (std::vector<std::string>{"e", "b", "a"}));
  EXPECT_FALSE(set.has_payload());  // stripped: set and vector now parallel
}

TEST(SolutionSet, TakePayloadWithoutPayloadIsIdentity) {
  auto set = pareto::SolutionSet::of(ObjVec{{1, 2}, {3, 1}});
  std::vector<int> items{10, 20};
  EXPECT_EQ(pareto::take_payload(set, std::move(items)),
            (std::vector<int>{10, 20}));
}

TEST(SolutionSet, AdoptStaircaseAndInvariant) {
  const auto set = pareto::SolutionSet::adopt_staircase({{1, 9}, {4, 4}, {7, 2}});
  EXPECT_TRUE(set.invariant_ok());
  EXPECT_EQ(set.front(), (Objective{1, 9}));
  EXPECT_EQ(set.back(), (Objective{7, 2}));

  // (2,2) is dominated: of() drops it, so every set satisfies the invariant.
  const auto filtered = pareto::SolutionSet::of(ObjVec{{1, 1}, {2, 2}});
  EXPECT_TRUE(filtered.invariant_ok());
  EXPECT_EQ(filtered, (ObjVec{{1, 1}}));
}

}  // namespace
}  // namespace patlabor
