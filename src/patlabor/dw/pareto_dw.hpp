// Pareto-DW (Section IV-A of the paper): the exact exponential-time
// algorithm computing the FULL Pareto frontier of timing-driven routing
// trees on the Hanan grid.
//
// The dynamic program follows Eq. (1): S_{v,Q} is the Pareto set of
// (wirelength, delay) pairs of trees rooted at grid node v spanning sink
// subset Q, combined by
//     merge:  S_{v,Q1} ⊕ S_{v,Q\Q1}   (wirelengths add, delays max)
//     grow:   S_{u,Q} + ||u - v||_1   (both objectives shift)
// with Pareto filtering after every step.  The answer is S_{r, sinks}.
//
// Neither step enumerates its candidates.  Merge walks each partition's
// two staircases with two pointers (advance the side with the larger delay)
// and folds the resulting staircase into the state's running one.  Grow is
// a Pareto L1 distance transform: running staircases are swept along each
// Hanan row, then along each column, inside the box of the nodes that hold
// a merge set, shifting by every gap.  A node outside that box takes the
// closure at its clamp into the box, shifted by the distance to it.
//
// Results match a lowest-index Pareto filter over Eq. (1)'s candidates in
// enumeration order, trees included.  Among equal objectives the earlier
// merge partition wins, and in grow the own entry wins, then the lowest
// origin node, then the lowest index.
//
// Pruning implements the paper's Lemma 2 (corner nodes can never host
// useful Steiner/merge points) and Lemma 3 (merge states are only needed
// inside the bounding box of their sink subset; outside nodes are reached
// by the grow closure).  Both are exact and are ablated in
// bench/bench_ablation_pruning.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "patlabor/geom/net.hpp"
#include "patlabor/pareto/solution_set.hpp"
#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::dw {

/// Reusable cross-solve state storage for pareto_dw: the DP state table,
/// both entry arenas, the merge staircases and the grow sweep rows, kept
/// at grown capacity between solves.  Opaque on purpose (the
/// entry types are solver-internal).  Typical use is one instance per
/// worker thread — e.g. par::WorkerContext::current().get<dw::DwScratch>()
/// — handed to every pareto_dw call on that thread, which removes the
/// per-solve allocation storm from the batch-routing hot path.  Not
/// thread-safe: a scratch serves one solve at a time.  Carries capacity
/// only, never results: solves are bit-identical with or without it.
class DwScratch {
 public:
  DwScratch();
  ~DwScratch();
  DwScratch(DwScratch&&) noexcept;
  DwScratch& operator=(DwScratch&&) noexcept;

  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

struct ParetoDwOptions {
  bool corner_pruning = true;    ///< Lemma 2
  bool bbox_restriction = true;  ///< Lemma 3
  bool want_trees = true;        ///< reconstruct a tree per frontier point
};

struct ParetoDwResult {
  /// The exact Pareto frontier (staircase invariant holds by construction).
  pareto::SolutionSet frontier;
  /// One optimal tree per frontier point (parallel to `frontier`);
  /// empty when options.want_trees is false.
  std::vector<tree::RoutingTree> trees;
  /// Diagnostics: DP solution records created (proxy for state count).
  std::uint64_t solutions_created = 0;
};

/// Runs Pareto-DW on a net of degree 2..16 (practical through ~10; the
/// paper's use case is degree <= 9).  `scratch` optionally supplies
/// reusable solver storage (see DwScratch); null solves standalone.
ParetoDwResult pareto_dw(const geom::Net& net,
                         const ParetoDwOptions& options = {},
                         DwScratch* scratch = nullptr);

/// Convenience: frontier only, no tree reconstruction (faster).
pareto::SolutionSet pareto_frontier(const geom::Net& net);

}  // namespace patlabor::dw
