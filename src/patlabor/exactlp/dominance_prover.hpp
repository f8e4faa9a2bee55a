// Decides the parametric pruning condition of Lemma 1 (Eq. (2) of the paper).
//
// A lookup-table candidate is a pair (W, D): W[i] counts how many tree
// segments cross Hanan strip i (so w = Σ W[i]·l[i]) and D[s][i] counts the
// crossings of strip i on the root→sink-s path (so d = max_s Σ D[s][i]·l[i]).
// Candidate (W², D²) is *safely prunable* given (W¹, D¹) when for every
// nonnegative strip-length vector l
//
//     Σ (W²−W¹)·l >= 0   and   max-row(D¹ l) <= max-row(D² l).
//
// The paper discharges this first-order formula with an SMT solver (Z3);
// we decide it exactly instead (see DESIGN.md):
//   * the wirelength condition holds iff W¹ <= W² componentwise;
//   * the delay condition holds iff every row a of D¹ admits λ in the
//     simplex with (D²)ᵀλ >= a componentwise (LP duality over the simplex).
//
// Each row check runs in integers only:
//   1. Fast path: some single row of D² is >= a componentwise.
//   2. Reduction: a coordinate with a_i <= min_j D²[j][i] holds for every λ
//      and is dropped; one with a_i > max_j D²[j][i] holds for no λ, so the
//      check fails at once.  D² rows that another row dominates on the K
//      kept coordinates are dropped too (their weight can move to the
//      dominating row).
//   3. Phase-1 simplex on the K+1 remaining equality rows, fraction-free
//      (Edmonds/Bareiss): every tableau entry is an integer minor, a pivot
//      on p = T[r][c] maps T[i][j] to (T[i][j]·p − T[i][c]·T[r][j]) / det
//      with an exact division, and det becomes p.  Bland's rule (smallest
//      entering column, ratio ties to the smallest basic index) guarantees
//      termination.  Entries are int64_t with every product and difference
//      overflow-checked; an overflow throws std::overflow_error rather than
//      returning a verdict.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace patlabor::exactlp {

/// Usage counts are small nonnegative integers.
using Count = std::int32_t;

/// A borrowed view of one parametric solution.  `dim` is the number of
/// Hanan strips (2n-2); `rows` the number of sinks (n-1); D is row-major
/// rows x dim.
struct ParamView {
  std::span<const Count> w;  ///< size dim
  std::span<const Count> d;  ///< size rows * dim, row-major
  int rows = 0;
  int dim = 0;
};

class DominanceProver {
 public:
  /// True iff max-row(D¹ l) <= max-row(D² l) for all l >= 0, i.e. the upper
  /// envelope of d1's rows lies below d2's on the nonnegative orthant.
  /// Throws std::overflow_error if the integer simplex would overflow.
  bool delay_envelope_le(const ParamView& d1, const ParamView& d2);

  /// True iff (W², D²) may be pruned in favour of (W¹, D¹) per Eq. (2).
  bool prunable(const ParamView& s1, const ParamView& s2);

  /// Diagnostics: row checks that got past the single-row fast path,
  /// whether the reduction or the simplex decided them.
  std::int64_t lp_calls() const { return lp_calls_; }

 private:
  /// Does row `a` admit a convex combination of d2's rows dominating it?
  bool row_dominated(std::span<const Count> a, const ParamView& d2);
  /// Phase 1 on the reduced system held in cols_/rows_: is there λ >= 0,
  /// Σλ = 1 with Σ_j λ_j D²[rows_[j]][i] >= a_i for every i in cols_?
  bool feasible(std::span<const Count> a, const ParamView& d2);

  std::int64_t lp_calls_ = 0;
  /// Reused scratch: one prover serves one solver, so steady-state checks
  /// run in warmed-up buffers (no allocations).
  std::vector<int> cols_;              ///< kept coordinates of a
  std::vector<int> rows_;              ///< kept rows of D²
  std::vector<std::int64_t> tableau_;  ///< (K+2) x (m+K+1), row-major
  std::vector<int> basis_;             ///< basic column of each row
};

}  // namespace patlabor::exactlp
