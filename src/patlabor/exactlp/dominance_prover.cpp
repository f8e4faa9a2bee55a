#include "patlabor/exactlp/dominance_prover.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>

namespace patlabor::exactlp {

namespace {

std::span<const Count> row_of(const ParamView& v, int r) {
  return v.d.subspan(static_cast<std::size_t>(r) * v.dim,
                     static_cast<std::size_t>(v.dim));
}

bool componentwise_le(std::span<const Count> a, std::span<const Count> b) {
  assert(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] > b[i]) return false;
  return true;
}

[[noreturn, gnu::cold, gnu::noinline]] void overflow() {
  throw std::overflow_error("DominanceProver: int64 tableau overflow");
}

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) overflow();
  return r;
}

std::int64_t checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) overflow();
  return r;
}

}  // namespace

bool DominanceProver::row_dominated(std::span<const Count> a,
                                    const ParamView& d2) {
  // Fast path: a single row of D² already dominates `a` componentwise.
  for (int r = 0; r < d2.rows; ++r)
    if (componentwise_le(a, row_of(d2, r))) return true;
  if (d2.rows <= 1) return false;  // one row and it failed the fast path
  ++lp_calls_;

  // Coordinates: a_i <= min_j D²[j][i] holds for every λ in the simplex,
  // a_i > max_j D²[j][i] for none.  Some coordinate survives, else a row
  // would have passed the fast path.
  cols_.clear();
  for (int i = 0; i < d2.dim; ++i) {
    Count lo = d2.d[static_cast<std::size_t>(i)];
    Count hi = lo;
    for (int r = 1; r < d2.rows; ++r) {
      const Count v = d2.d[static_cast<std::size_t>(r * d2.dim + i)];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const Count ai = a[static_cast<std::size_t>(i)];
    if (ai > hi) return false;
    if (ai > lo) cols_.push_back(i);
  }
  assert(!cols_.empty());

  // Rows: drop row r when another row q is >= it on every kept coordinate
  // (strictly somewhere, or q < r among equal rows): moving r's weight to
  // q keeps every kept inequality, and dropped coordinates hold for any λ.
  rows_.clear();
  for (int r = 0; r < d2.rows; ++r) {
    const Count* pr = d2.d.data() + static_cast<std::size_t>(r) * d2.dim;
    bool dominated = false;
    for (int q = 0; q < d2.rows && !dominated; ++q) {
      if (q == r) continue;
      const Count* pq = d2.d.data() + static_cast<std::size_t>(q) * d2.dim;
      bool ge = true;
      bool gt = false;
      for (const int i : cols_) {
        ge = ge && pq[i] >= pr[i];
        gt = gt || pq[i] > pr[i];
      }
      dominated = ge && (gt || q < r);
    }
    if (!dominated) rows_.push_back(r);
  }
  return feasible(a, d2);
}

bool DominanceProver::feasible(std::span<const Count> a, const ParamView& d2) {
  // Phase 1 of  Σ_j λ_j D²[j][i] − s_i = a_i  (i in cols_),  Σ_j λ_j = 1,
  // λ, s >= 0, starting from the all-artificial basis.  Columns are
  // [λ (m) | s (k) | rhs]; rows are the k coordinate rows, the simplex row
  // and the phase-1 objective row.  Artificial columns are not stored: an
  // artificial that leaves the basis never re-enters, which keeps the
  // verdict (it is then fixed at 0) and Bland's termination per stage.
  // Basic indices: λ_j = j, s_i = m + i, the artificial of row i = m + k + i.
  const int m = static_cast<int>(rows_.size());
  const int k = static_cast<int>(cols_.size());
  const int cols = m + k;
  const int width = cols + 1;
  const int obj = k + 1;
  tableau_.assign(static_cast<std::size_t>((k + 2) * width), 0);
  basis_.resize(static_cast<std::size_t>(k + 1));
  std::int64_t* const t = tableau_.data();
  int* const basis = basis_.data();
  auto cell = [&](int i, int j) -> std::int64_t& { return t[i * width + j]; };
  for (int i = 0; i < k; ++i) {
    const int col = cols_[static_cast<std::size_t>(i)];
    for (int j = 0; j < m; ++j)
      cell(i, j) = d2.d[static_cast<std::size_t>(
          rows_[static_cast<std::size_t>(j)] * d2.dim + col)];
    cell(i, m + i) = -1;
    // Counts are nonnegative, so a kept a_i > min_j D²[j][i] >= 0: the
    // artificial basis starts feasible.
    cell(i, cols) = a[static_cast<std::size_t>(col)];
    assert(cell(i, cols) > 0);
  }
  for (int j = 0; j < m; ++j) cell(k, j) = 1;
  cell(k, cols) = 1;
  // Reduced costs of minimizing the sum of the artificials: minus the sum
  // of the constraint rows (no overflow: k + 1 counts of at most 2^31).
  for (int j = 0; j <= cols; ++j) {
    std::int64_t sum = 0;
    for (int i = 0; i <= k; ++i) sum += cell(i, j);
    cell(obj, j) = -sum;
  }
  for (int i = 0; i <= k; ++i) basis[i] = cols + i;

  std::int64_t det = 1;
  while (true) {
    // The objective rhs is −det · (sum of the artificials) <= 0.
    if (cell(obj, cols) == 0) return true;
    int enter = -1;  // Bland: the smallest column with a negative cost
    for (int j = 0; j < cols; ++j) {
      if (cell(obj, j) < 0) {
        enter = j;
        break;
      }
    }
    if (enter < 0) return false;  // optimal with a positive artificial sum

    // Ratio test by cross-multiplication (all pivot candidates are
    // positive), ties to the smallest basic index.
    int leave = -1;
    for (int i = 0; i <= k; ++i) {
      if (cell(i, enter) <= 0) continue;
      if (leave < 0) {
        leave = i;
        continue;
      }
      const std::int64_t lhs = checked_mul(cell(i, cols), cell(leave, enter));
      const std::int64_t rhs = checked_mul(cell(leave, cols), cell(i, enter));
      if (lhs < rhs || (lhs == rhs && basis[i] < basis[leave])) leave = i;
    }
    // Phase 1 is bounded below by 0, so a negative cost has a pivot row.
    assert(leave >= 0);

    // Fraction-free pivot: row `leave` stays, every other row (the
    // objective too) becomes (T[i][j]·p − T[i][enter]·T[leave][j]) / det.
    const std::int64_t p = cell(leave, enter);
    const std::int64_t* prow = &cell(leave, 0);
    for (int i = 0; i <= obj; ++i) {
      if (i == leave) continue;
      std::int64_t* irow = &cell(i, 0);
      const std::int64_t f = irow[enter];
      for (int j = 0; j < width; ++j)
        irow[j] = checked_sub(checked_mul(irow[j], p),
                              checked_mul(f, prow[j])) /
                  det;
    }
    det = p;
    basis[leave] = enter;
  }
}

bool DominanceProver::delay_envelope_le(const ParamView& d1,
                                        const ParamView& d2) {
  assert(d1.dim == d2.dim);
  for (int r = 0; r < d1.rows; ++r)
    if (!row_dominated(row_of(d1, r), d2)) return false;
  return true;
}

bool DominanceProver::prunable(const ParamView& s1, const ParamView& s2) {
  // Wirelength condition of Eq. (2): W¹ <= W² componentwise.
  if (!componentwise_le(s1.w, s2.w)) return false;
  // Delay condition: envelope of D¹ below envelope of D².
  return delay_envelope_le(s1, s2);
}

}  // namespace patlabor::exactlp
