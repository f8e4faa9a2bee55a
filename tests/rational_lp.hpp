// Reference oracle: a small exact simplex over 128-bit rationals.
//
// The library decides the Lemma-1 pruning condition with a fraction-free
// integer simplex (patlabor/exactlp/dominance_prover.hpp).  This header
// keeps the straightforward rational solver it replaced, so the tests can
// check the integer kernel against an independent implementation:
// Fraction normalizes by a gcd after every operation, and the simplex
// pivots on fractions with Bland's rule and a built-in phase 1.
//
// Solves   min cᵀx   s.t.  Ax = b,  x >= 0,  b >= 0.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace patlabor::exactlp {

using Int = __int128;

/// Greatest common divisor for 128-bit integers (std::gcd lacks support).
constexpr Int gcd128(Int a, Int b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const Int t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// A normalized rational: den > 0, gcd(|num|, den) == 1.
class Fraction {
 public:
  constexpr Fraction() = default;
  constexpr Fraction(std::int64_t v) : num_(v), den_(1) {}  // NOLINT implicit
  constexpr Fraction(Int num, Int den) : num_(num), den_(den) { normalize(); }

  constexpr Int num() const { return num_; }
  constexpr Int den() const { return den_; }

  constexpr bool is_zero() const { return num_ == 0; }
  constexpr bool is_negative() const { return num_ < 0; }
  constexpr bool is_positive() const { return num_ > 0; }

  constexpr Fraction operator-() const { return Fraction(-num_, den_, Raw{}); }

  friend constexpr Fraction operator+(const Fraction& a, const Fraction& b) {
    return Fraction(a.num_ * b.den_ + b.num_ * a.den_, a.den_ * b.den_);
  }
  friend constexpr Fraction operator-(const Fraction& a, const Fraction& b) {
    return Fraction(a.num_ * b.den_ - b.num_ * a.den_, a.den_ * b.den_);
  }
  friend constexpr Fraction operator*(const Fraction& a, const Fraction& b) {
    // Cross-reduce before multiplying to keep magnitudes small.
    const Int g1 = gcd128(a.num_, b.den_);
    const Int g2 = gcd128(b.num_, a.den_);
    const Int n1 = g1 != 0 ? a.num_ / g1 : a.num_;
    const Int d2 = g1 != 0 ? b.den_ / g1 : b.den_;
    const Int n2 = g2 != 0 ? b.num_ / g2 : b.num_;
    const Int d1 = g2 != 0 ? a.den_ / g2 : a.den_;
    return Fraction(n1 * n2, d1 * d2);
  }
  friend constexpr Fraction operator/(const Fraction& a, const Fraction& b) {
    assert(!b.is_zero());
    return a * Fraction(b.den_, b.num_);
  }

  Fraction& operator+=(const Fraction& o) { return *this = *this + o; }
  Fraction& operator-=(const Fraction& o) { return *this = *this - o; }
  Fraction& operator*=(const Fraction& o) { return *this = *this * o; }
  Fraction& operator/=(const Fraction& o) { return *this = *this / o; }

  friend constexpr bool operator==(const Fraction& a, const Fraction& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend constexpr bool operator<(const Fraction& a, const Fraction& b) {
    return (a - b).is_negative();
  }
  friend constexpr bool operator<=(const Fraction& a, const Fraction& b) {
    return !(b < a);
  }
  friend constexpr bool operator>(const Fraction& a, const Fraction& b) {
    return b < a;
  }
  friend constexpr bool operator>=(const Fraction& a, const Fraction& b) {
    return !(a < b);
  }

  /// Approximate double value (for diagnostics only; never used to decide).
  double to_double() const {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

 private:
  struct Raw {};  // tag: construct without normalization
  constexpr Fraction(Int num, Int den, Raw) : num_(num), den_(den) {}

  constexpr void normalize() {
    assert(den_ != 0);
    if (den_ < 0) {
      num_ = -num_;
      den_ = -den_;
    }
    const Int g = gcd128(num_, den_);
    if (g > 1) {
      num_ /= g;
      den_ /= g;
    }
    if (num_ == 0) den_ = 1;
  }

  Int num_ = 0;
  Int den_ = 1;
};

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
};

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  Fraction objective;        ///< valid when status == kOptimal
  std::vector<Fraction> x;   ///< primal solution when optimal
};

/// Standard-form LP.  All b[i] must be >= 0 (negate rows beforehand).
struct LpProblem {
  std::vector<std::vector<Fraction>> a;  ///< m rows of n coefficients
  std::vector<Fraction> b;               ///< m right-hand sides, >= 0
  std::vector<Fraction> c;               ///< n objective coefficients (min)
};

/// Reusable tableau storage for repeated solves.
struct SimplexScratch {
  std::vector<Fraction> tableau;     ///< m x (n + m + 1), row-major
  std::vector<std::size_t> basis;    ///< m basic-variable columns
  std::vector<Fraction> cost;        ///< phase cost vector
  std::vector<bool> allow;           ///< columns eligible to enter
};

namespace rational_detail {

// Dense tableau in canonical form with respect to basis_; column layout is
// [original vars | artificials | rhs].
class Tableau {
 public:
  Tableau(const LpProblem& p, SimplexScratch& scratch)
      : m_(p.a.size()),
        n_(p.c.size()),
        total_(n_ + m_),
        width_(total_ + 1),
        rows_(scratch.tableau),
        basis_(scratch.basis) {
    rows_.assign(m_ * width_, Fraction(0));
    basis_.resize(m_);
    for (std::size_t i = 0; i < m_; ++i) {
      assert(p.a[i].size() == n_);
      assert(p.b[i] >= Fraction(0));
      for (std::size_t j = 0; j < n_; ++j) cell(i, j) = p.a[i][j];
      cell(i, n_ + i) = Fraction(1);
      cell(i, total_) = p.b[i];
      basis_[i] = n_ + i;
    }
  }

  std::size_t basis(std::size_t i) const { return basis_[i]; }
  const Fraction& rhs(std::size_t i) const { return cell(i, total_); }

  void pivot(std::size_t row, std::size_t col) {
    const Fraction inv = Fraction(1) / cell(row, col);
    Fraction* prow = rows_.data() + row * width_;
    for (std::size_t j = 0; j < width_; ++j) prow[j] *= inv;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row || cell(i, col).is_zero()) continue;
      const Fraction f = cell(i, col);
      Fraction* irow = rows_.data() + i * width_;
      for (std::size_t j = 0; j < width_; ++j) irow[j] -= f * prow[j];
    }
    basis_[row] = col;
  }

  /// Runs simplex with Bland's rule minimizing the cost vector `cost`
  /// (indexed over all columns incl. artificials).  `allow` marks columns
  /// eligible to enter the basis.  Returns false on unboundedness.
  bool minimize(const std::vector<Fraction>& cost,
                const std::vector<bool>& allow) {
    while (true) {
      // Reduced costs r_j = c_j - c_B B^{-1} A_j, recomputed each iteration.
      std::size_t enter = total_;  // sentinel: none
      for (std::size_t j = 0; j < total_; ++j) {
        if (!allow[j] || is_basic(j)) continue;
        Fraction r = cost[j];
        for (std::size_t i = 0; i < m_; ++i) {
          if (!cost[basis_[i]].is_zero())
            r -= cost[basis_[i]] * cell(i, j);
        }
        if (r.is_negative()) {
          enter = j;  // Bland: smallest improving index
          break;
        }
      }
      if (enter == total_) return true;  // optimal

      // Ratio test, Bland tie-break on smallest basis variable index.
      std::size_t leave = m_;
      Fraction best_ratio;
      for (std::size_t i = 0; i < m_; ++i) {
        if (!cell(i, enter).is_positive()) continue;
        const Fraction ratio = cell(i, total_) / cell(i, enter);
        if (leave == m_ || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leave])) {
          leave = i;
          best_ratio = ratio;
        }
      }
      if (leave == m_) return false;  // unbounded
      pivot(leave, enter);
    }
  }

  Fraction objective_value(const std::vector<Fraction>& cost) const {
    Fraction z(0);
    for (std::size_t i = 0; i < m_; ++i)
      z += cost[basis_[i]] * cell(i, total_);
    return z;
  }

  bool is_basic(std::size_t col) const {
    for (std::size_t i = 0; i < m_; ++i)
      if (basis_[i] == col) return true;
    return false;
  }

  /// After phase 1: pivots artificial variables out of the basis where
  /// possible; rows that cannot pivot out are redundant (all-zero in the
  /// original columns) and keep their zero-valued artificial basic, which
  /// is harmless for phase 2 since its column is barred.
  void expel_artificials() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) continue;
      for (std::size_t j = 0; j < n_; ++j) {
        if (!cell(i, j).is_zero()) {
          pivot(i, j);
          break;
        }
      }
    }
  }

 private:
  Fraction& cell(std::size_t i, std::size_t j) {
    return rows_[i * width_ + j];
  }
  const Fraction& cell(std::size_t i, std::size_t j) const {
    return rows_[i * width_ + j];
  }

  std::size_t m_;
  std::size_t n_;
  std::size_t total_;
  std::size_t width_;
  std::vector<Fraction>& rows_;
  std::vector<std::size_t>& basis_;
};

/// Phase-1 cost (sum of artificials) and the all-columns-eligible mask.
inline void phase1_cost(std::size_t n, std::size_t total,
                        SimplexScratch& scratch) {
  scratch.cost.assign(total, Fraction(0));
  for (std::size_t j = n; j < total; ++j) scratch.cost[j] = Fraction(1);
  scratch.allow.assign(total, true);
}

}  // namespace rational_detail

/// Solves the LP exactly.
inline LpResult solve(const LpProblem& problem) {
  using rational_detail::Tableau;
  LpResult result;
  const std::size_t m = problem.a.size();
  const std::size_t n = problem.c.size();
  SimplexScratch scratch;
  Tableau tab(problem, scratch);
  const std::size_t total = n + m;

  // Phase 1: minimize the sum of artificials.
  rational_detail::phase1_cost(n, total, scratch);
  const bool ok1 = tab.minimize(scratch.cost, scratch.allow);
  assert(ok1 && "phase 1 is never unbounded");
  (void)ok1;
  if (tab.objective_value(scratch.cost).is_positive()) {
    result.status = LpStatus::kInfeasible;
    return result;
  }
  tab.expel_artificials();

  // Phase 2: original objective; artificial columns barred from entering.
  std::vector<Fraction> cost2(total, Fraction(0));
  for (std::size_t j = 0; j < n; ++j) cost2[j] = problem.c[j];
  std::vector<bool> allow_orig(total, false);
  for (std::size_t j = 0; j < n; ++j) allow_orig[j] = true;
  if (!tab.minimize(cost2, allow_orig)) {
    result.status = LpStatus::kUnbounded;
    return result;
  }

  result.status = LpStatus::kOptimal;
  result.objective = tab.objective_value(cost2);
  result.x.assign(n, Fraction(0));
  for (std::size_t i = 0; i < m; ++i)
    if (tab.basis(i) < n) result.x[tab.basis(i)] = tab.rhs(i);
  return result;
}

/// Is {Ax = b, x >= 0} nonempty?  Decided by phase 1 alone: the
/// artificials can be driven to zero.  The tableau lives in `scratch`.
inline bool feasible(const LpProblem& problem, SimplexScratch& scratch) {
  rational_detail::Tableau tab(problem, scratch);
  const std::size_t total = problem.c.size() + problem.a.size();
  rational_detail::phase1_cost(problem.c.size(), total, scratch);
  const bool ok = tab.minimize(scratch.cost, scratch.allow);
  assert(ok && "phase 1 is never unbounded");
  (void)ok;
  return !tab.objective_value(scratch.cost).is_positive();
}

inline bool feasible(const LpProblem& problem) {
  SimplexScratch scratch;
  return feasible(problem, scratch);
}

}  // namespace patlabor::exactlp
