#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "patlabor/exactlp/dominance_prover.hpp"
#include "patlabor/util/rng.hpp"
#include "rational_lp.hpp"

namespace patlabor {
namespace {

using exactlp::Count;
using exactlp::DominanceProver;
using exactlp::Fraction;
using exactlp::LpProblem;
using exactlp::LpStatus;
using exactlp::ParamView;

TEST(Fraction, Arithmetic) {
  const Fraction a(1, 2);
  const Fraction b(1, 3);
  EXPECT_EQ(a + b, Fraction(5, 6));
  EXPECT_EQ(a - b, Fraction(1, 6));
  EXPECT_EQ(a * b, Fraction(1, 6));
  EXPECT_EQ(a / b, Fraction(3, 2));
  EXPECT_EQ(-a, Fraction(-1, 2));
  EXPECT_TRUE(b < a);
  EXPECT_TRUE(Fraction(2, 4) == Fraction(1, 2));  // normalization
  EXPECT_TRUE(Fraction(-1, -2) == Fraction(1, 2));
  EXPECT_TRUE(Fraction(1, -2) == Fraction(-1, 2));
  EXPECT_EQ(Fraction(0, 7), Fraction(0));
}

TEST(Fraction, ComparisonTotalOrder) {
  const std::vector<Fraction> vals{Fraction(-3, 2), Fraction(0), Fraction(1, 3),
                                   Fraction(1, 2), Fraction(2)};
  for (std::size_t i = 0; i < vals.size(); ++i)
    for (std::size_t j = 0; j < vals.size(); ++j) {
      EXPECT_EQ(vals[i] < vals[j], i < j);
      EXPECT_EQ(vals[i] == vals[j], i == j);
    }
}

TEST(Simplex, SolvesSmallLp) {
  // min -x1 - 2 x2  s.t.  x1 + x2 + s = 4, x2 + t = 3, all >= 0.
  // Optimum at x1 = 1, x2 = 3, objective -7.
  LpProblem p;
  p.c = {Fraction(-1), Fraction(-2), Fraction(0), Fraction(0)};
  p.a = {{Fraction(1), Fraction(1), Fraction(1), Fraction(0)},
         {Fraction(0), Fraction(1), Fraction(0), Fraction(1)}};
  p.b = {Fraction(4), Fraction(3)};
  const auto r = exactlp::solve(p);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Fraction(-7));
  EXPECT_EQ(r.x[0], Fraction(1));
  EXPECT_EQ(r.x[1], Fraction(3));
}

TEST(Simplex, DetectsInfeasible) {
  // x1 = 2 and x1 = 3 simultaneously.
  LpProblem p;
  p.c = {Fraction(0)};
  p.a = {{Fraction(1)}, {Fraction(1)}};
  p.b = {Fraction(2), Fraction(3)};
  EXPECT_EQ(exactlp::solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x1 s.t. x1 - x2 = 1 (x1 can run away with x2).
  LpProblem p;
  p.c = {Fraction(-1), Fraction(0)};
  p.a = {{Fraction(1), Fraction(-1)}};
  p.b = {Fraction(1)};
  EXPECT_EQ(exactlp::solve(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, FeasibilityHelper) {
  LpProblem p;
  p.c = {Fraction(0), Fraction(0)};
  p.a = {{Fraction(1), Fraction(1)}};
  p.b = {Fraction(5)};
  EXPECT_TRUE(exactlp::feasible(p));
}

// --- DominanceProver: the Lemma-1 / Eq.(2) decision procedure ---

// Brute-force check of the delay-envelope condition by dense sampling of
// the nonnegative orthant (sound only as a falsifier / sanity check).
bool envelope_le_sampled(const ParamView& d1, const ParamView& d2,
                         util::Rng& rng) {
  auto env = [](const ParamView& d, const std::vector<double>& l) {
    double best = -1e300;
    for (int r = 0; r < d.rows; ++r) {
      double v = 0;
      for (int i = 0; i < d.dim; ++i)
        v += static_cast<double>(
                 d.d[static_cast<std::size_t>(r * d.dim + i)]) *
             l[static_cast<std::size_t>(i)];
      best = std::max(best, v);
    }
    return best;
  };
  for (int it = 0; it < 2000; ++it) {
    std::vector<double> l(static_cast<std::size_t>(d1.dim));
    for (auto& v : l) v = rng.uniform01();
    if (env(d1, l) > env(d2, l) + 1e-9) return false;
  }
  return true;
}

TEST(DominanceProver, RowwiseFastPath) {
  // D1 rows all below some D2 row: trivially dominated.
  const std::vector<Count> d1{1, 0, 0, 1};
  const std::vector<Count> d2{2, 1, 1, 2};
  DominanceProver prover;
  ParamView v1{{}, d1, 2, 2};
  ParamView v2{{}, d2, 2, 2};
  EXPECT_TRUE(prover.delay_envelope_le(v1, v2));
  EXPECT_EQ(prover.lp_calls(), 0);  // fast path only
}

TEST(DominanceProver, NeedsConvexCombination) {
  // D1 = {(1,1)}; D2 rows (2,0) and (0,2).  No single row dominates (1,1)
  // but the average (1,1) does: envelope of D2 is max(2a, 2b) >= a+b.
  const std::vector<Count> d1{1, 1};
  const std::vector<Count> d2{2, 0, 0, 2};
  DominanceProver prover;
  EXPECT_TRUE(prover.delay_envelope_le(ParamView{{}, d1, 1, 2},
                                       ParamView{{}, d2, 2, 2}));
  EXPECT_GT(prover.lp_calls(), 0);  // required the LP
}

TEST(DominanceProver, RejectsNonDominated) {
  // D1 = {(3,0)}, D2 = {(2,5)}: at l=(1,0) env1=3 > env2=2.
  const std::vector<Count> d1{3, 0};
  const std::vector<Count> d2{2, 5};
  DominanceProver prover;
  EXPECT_FALSE(prover.delay_envelope_le(ParamView{{}, d1, 1, 2},
                                        ParamView{{}, d2, 1, 2}));
}

TEST(DominanceProver, WirelengthConditionIsComponentwise) {
  const std::vector<Count> w1{1, 2, 3};
  const std::vector<Count> w2{1, 2, 3};
  const std::vector<Count> w3{2, 2, 3};
  const std::vector<Count> w4{0, 9, 9};
  const std::vector<Count> d{0, 0, 0};
  DominanceProver prover;
  ParamView s1{w1, d, 1, 3};
  EXPECT_TRUE(prover.prunable(s1, ParamView{w2, d, 1, 3}));
  EXPECT_TRUE(prover.prunable(s1, ParamView{w3, d, 1, 3}));
  EXPECT_FALSE(prover.prunable(s1, ParamView{w4, d, 1, 3}));  // w4[0] < w1[0]
}

// Randomized agreement between the exact prover and dense sampling:
// whenever the prover says "dominated", sampling must never find a
// counterexample; whenever the prover says "not dominated", sampling
// should find one often (we only assert the sound direction).
class ProverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ProverAgreement, SoundAgainstSampling) {
  util::Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const int dim = 3 + static_cast<int>(rng.index(3));
  const int r1 = 1 + static_cast<int>(rng.index(3));
  const int r2 = 1 + static_cast<int>(rng.index(3));
  std::vector<Count> d1(static_cast<std::size_t>(r1 * dim));
  std::vector<Count> d2(static_cast<std::size_t>(r2 * dim));
  for (auto& v : d1) v = static_cast<Count>(rng.index(4));
  for (auto& v : d2) v = static_cast<Count>(rng.index(4));
  DominanceProver prover;
  const ParamView v1{{}, d1, r1, dim};
  const ParamView v2{{}, d2, r2, dim};
  if (prover.delay_envelope_le(v1, v2)) {
    EXPECT_TRUE(envelope_le_sampled(v1, v2, rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProverAgreement, ::testing::Range(0, 40));

// Row-by-row reference on the rational simplex: the single-row fast path,
// then one LP per remaining row,  λ >= 0, Σλ = 1, (D²)ᵀλ − s = a, s >= 0.
// `lp_calls` counts the LPs, as DominanceProver::lp_calls() does.
bool reference_envelope_le(const ParamView& d1, const ParamView& d2,
                           std::int64_t& lp_calls) {
  const auto row = [](const ParamView& v, int r) {
    return v.d.subspan(static_cast<std::size_t>(r * v.dim),
                       static_cast<std::size_t>(v.dim));
  };
  for (int r1 = 0; r1 < d1.rows; ++r1) {
    const std::span<const Count> a = row(d1, r1);
    bool single = false;
    for (int r2 = 0; r2 < d2.rows && !single; ++r2) {
      single = true;
      for (int i = 0; i < d2.dim; ++i)
        single = single && a[static_cast<std::size_t>(i)] <=
                               row(d2, r2)[static_cast<std::size_t>(i)];
    }
    if (single) continue;
    if (d2.rows <= 1) return false;
    ++lp_calls;
    const int m = d2.rows;
    const std::size_t nvars = static_cast<std::size_t>(m + d2.dim);
    LpProblem p;
    p.c.assign(nvars, Fraction(0));
    for (int i = 0; i < d2.dim; ++i) {
      std::vector<Fraction> eq(nvars, Fraction(0));
      for (int j = 0; j < m; ++j)
        eq[static_cast<std::size_t>(j)] =
            Fraction(row(d2, j)[static_cast<std::size_t>(i)]);
      eq[static_cast<std::size_t>(m + i)] = Fraction(-1);
      p.a.push_back(std::move(eq));
      p.b.push_back(Fraction(a[static_cast<std::size_t>(i)]));
    }
    std::vector<Fraction> simplex(nvars, Fraction(0));
    for (int j = 0; j < m; ++j) simplex[static_cast<std::size_t>(j)] = 1;
    p.a.push_back(std::move(simplex));
    p.b.push_back(Fraction(1));
    if (!exactlp::feasible(p)) return false;
  }
  return true;
}

// Entries 0..4, zero half the time.
Count small_count(util::Rng& rng) {
  return rng.index(2) == 0 ? 0 : static_cast<Count>(rng.index(5));
}

// A random (D¹, D²) pair: D² entries biased to zeros with duplicated rows;
// D¹ rows are copies of D² rows (ties) or the elementwise floor of the mean
// of two or three D² rows, which mostly needs the LP to prove.  Half of the
// pairs also get random rows, ceilings and one-coordinate bumps, which
// land on both sides of the verdict.
void random_pair(util::Rng& rng, int r1, int r2, int dim,
                 std::vector<Count>& d1, std::vector<Count>& d2) {
  const auto udim = static_cast<std::size_t>(dim);
  d2.assign(static_cast<std::size_t>(r2) * udim, 0);
  for (Count& v : d2) v = small_count(rng);
  for (int r = 1; r < r2; ++r)
    if (rng.index(4) == 0)
      std::copy_n(d2.begin() + static_cast<std::ptrdiff_t>(
                                   rng.index(static_cast<std::size_t>(r)) *
                                   udim),
                  dim, d2.begin() + static_cast<std::ptrdiff_t>(r * dim));
  const auto pick = [&] {
    return d2.data() + rng.index(static_cast<std::size_t>(r2)) * udim;
  };
  const bool mixed = rng.index(2) == 0;
  d1.assign(static_cast<std::size_t>(r1) * udim, 0);
  for (int r = 0; r < r1; ++r) {
    Count* out = d1.data() + static_cast<std::size_t>(r) * udim;
    const Count* p = pick();
    const Count* q = pick();
    const Count* t = pick();
    switch (rng.index(mixed ? 6 : 3)) {
      case 0:
        std::copy_n(p, dim, out);
        break;
      case 1:
        for (int i = 0; i < dim; ++i) out[i] = (p[i] + q[i]) / 2;
        break;
      case 2:
        for (int i = 0; i < dim; ++i) out[i] = (p[i] + q[i] + t[i]) / 3;
        break;
      case 3:
        for (int i = 0; i < dim; ++i) out[i] = small_count(rng);
        break;
      default:
        for (int i = 0; i < dim; ++i) out[i] = (p[i] + q[i] + 1) / 2;
        break;
    }
    if (mixed && rng.index(3) == 0) ++out[rng.index(udim)];
  }
}

TEST(DominanceProver, MatchesRationalReference) {
  util::Rng rng(2025);
  DominanceProver prover;
  std::int64_t ref_lp_calls = 0;
  int checks = 0, lp_true = 0, lp_false = 0;
  std::vector<Count> d1, d2;
  for (; checks < 20000; ++checks) {
    const int r1 = 1 + static_cast<int>(rng.index(8));
    const int r2 = 1 + static_cast<int>(rng.index(8));
    const int dim = 2 + static_cast<int>(rng.index(15));
    random_pair(rng, r1, r2, dim, d1, d2);
    const ParamView v1{{}, d1, r1, dim};
    const ParamView v2{{}, d2, r2, dim};
    const std::int64_t ref_before = ref_lp_calls;
    const bool expected = reference_envelope_le(v1, v2, ref_lp_calls);
    const bool got = prover.delay_envelope_le(v1, v2);
    ASSERT_EQ(got, expected) << "check " << checks << ": " << r1 << "x"
                             << dim << " against " << r2 << "x" << dim;
    ASSERT_EQ(prover.lp_calls(), ref_lp_calls) << "check " << checks;
    if (ref_lp_calls > ref_before) ++(expected ? lp_true : lp_false);
  }
  // Both verdicts must be reached through the LP, not only the fast path.
  EXPECT_GT(lp_true, 3000);
  EXPECT_GT(lp_false, 3000);
}

TEST(DominanceProver, OverflowIsAnErrorNotAVerdict) {
  // Counts near 2^30: the first pivot leaves entries near 2^60, so the
  // second pivot's products leave int64.  The row (B+1, B+1) needs both
  // D² rows: the mean of (2B−1, 3) and (3, 2B−1) covers it exactly.
  constexpr Count kB = Count{1} << 30;
  const std::vector<Count> d1{kB + 1, kB + 1};
  const std::vector<Count> d2{kB + (kB - 1), 3, 3, kB + (kB - 1)};
  DominanceProver prover;
  EXPECT_THROW(prover.delay_envelope_le(ParamView{{}, d1, 1, 2},
                                        ParamView{{}, d2, 2, 2}),
               std::overflow_error);
}

}  // namespace
}  // namespace patlabor
