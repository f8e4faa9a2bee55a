// PatLabor (Section V): the practical Pareto optimizer for timing-driven
// routing trees.
//
//   * degree <= 9 (the paper's λ): the exact Pareto frontier, via the
//     lookup table when it covers the degree and the numeric Pareto-DW
//     otherwise (both exact; the table is just faster);
//   * degree > λ: Pareto local search — start from the RSMT (FLUTE role),
//     repeatedly pick the worst-delay tree in the maintained Pareto set,
//     select λ-1 pins with policy π, regenerate their sub-topology from
//     the lookup table, splice the regenerated subtree back in, refine
//     (SALT-style post-processing), and Pareto-merge the candidates.
#pragma once

#include <cstddef>
#include <vector>

#include "patlabor/core/policy.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/par/pool.hpp"
#include "patlabor/pareto/solution_set.hpp"
#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::core {

struct PatLaborOptions {
  /// The paper's λ: sub-problem size of the local search and the threshold
  /// below which the frontier is computed exactly.
  std::size_t lambda = 9;
  /// Optional lookup table; exact DW is used for uncovered degrees.
  const lut::LookupTable* table = nullptr;
  /// Pin-selection policy (defaults are the shipped trained parameters).
  Policy policy;
  /// Multiplier on the paper's floor(n / lambda) local-search iterations.
  /// The default of 2 gives the coverage rotation one full pass over the
  /// pins plus slack for revisiting the worst-delay trees.
  int iteration_factor = 2;
  /// Run SALT-style post-processing on regenerated candidates.
  bool refine = true;
  /// Pool for the parallel candidate evaluation of the local search
  /// (nullptr = the global pool).  The frontier is bit-identical for every
  /// pool size: candidates are evaluated concurrently but Pareto-merged in
  /// deterministic order.
  par::ThreadPool* pool = nullptr;
};

struct PatLaborResult {
  pareto::SolutionSet frontier;          ///< staircase invariant holds
  std::vector<tree::RoutingTree> trees;  ///< parallel to frontier
  int iterations = 0;                    ///< local-search iterations run
};

/// Runs PatLabor on a net of any degree.
PatLaborResult patlabor(const geom::Net& net,
                        const PatLaborOptions& options = {});

/// The uniform "frontier + realizing trees" carrier of the exact helpers
/// (one tree per staircase point, parallel to the set).
struct SmallFrontier {
  pareto::SolutionSet frontier;
  std::vector<tree::RoutingTree> trees;
};

/// Exact frontier helper shared by PatLabor, Pareto-KS and the policy
/// trainer: lookup-table query when the table covers the degree, numeric
/// Pareto-DW otherwise.
SmallFrontier exact_small_frontier(const geom::Net& net,
                                   const lut::LookupTable* table);

/// Reattachment policy for fragments orphaned by the subtree surgery.
enum class ReattachMode {
  kNearest,     ///< wirelength-greedy: attach at the closest core point
  kDelayAware,  ///< delay-greedy: minimize path length through the anchor
};

/// The tree-surgery primitive of the local search (exposed for testing):
/// removes the minimal subtree of `t` spanning the source and `pins`,
/// replaces it with `subtopology` (a tree over those pins rooted at the
/// source), and re-attaches every orphaned fragment per `mode`: one
/// fragment a round, by one edge at the lowest (price, orphan point id,
/// core anchor id), ids in first-seen order of the pins and the edge pool.
/// O(V^2) over the V pooled points.
tree::RoutingTree regenerate_subtopology(
    const tree::RoutingTree& t, const std::vector<std::size_t>& pins,
    const tree::RoutingTree& subtopology,
    ReattachMode mode = ReattachMode::kNearest);

}  // namespace patlabor::core
