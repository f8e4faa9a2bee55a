// Post-processing passes shared by all tree constructions.
//
// The paper reuses SALT-style post-processing after every heuristic step
// ("We use post-processing techniques as in SALT to refine these issues"):
//   * Steinerization — merge sibling L-shapes through component-wise
//     medians; always wirelength-non-increasing and delay-neutral;
//   * edge substitution — re-parent a node (or attach it inside an existing
//     edge's bounding box) when that Pareto-improves the tree;
//   * normalization — drop dangling Steiner nodes, splice pass-throughs.
#pragma once

#include <cstdint>
#include <vector>

#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::tree {

/// Objective bias for edge substitution.
enum class RefineMode {
  kWirelength,  ///< accept moves that cut w without hurting d
  kDelay,       ///< accept moves that cut d without hurting w
  kEither,      ///< accept any weak Pareto improvement
};

/// One full Steinerization sweep (repeated to fixpoint internally):
/// for every node with >= 2 children, merges the best sibling pair through
/// the median Steiner point.  Returns the wirelength saved.
Length steinerize(RoutingTree& t);

/// Preorder intervals of a parent array, the O(1) subtree test of edge
/// substitution.  A stack DFS runs from every parentless node in index
/// order, so each subtree is one contiguous run of the preorder and
/// `contains(v, x) == t.in_subtree(x, v)` for any acyclic parent array
/// (forests included).  The intervals describe the tree they were built
/// from and go stale once a parent changes.
struct SubtreeIntervals {
  std::vector<std::size_t> order;  ///< preorder: parents before children
  std::vector<std::size_t> pre;    ///< position of each node in `order`
  std::vector<std::size_t> size;   ///< node count of each subtree

  void build(const RoutingTree& t,
             const std::vector<std::vector<std::int32_t>>& children);

  /// True when x lies in the subtree rooted at v (v counts).  One unsigned
  /// compare: pre[x] < pre[v] wraps around to a huge difference.
  bool contains(std::size_t v, std::size_t x) const {
    return pre[x] - pre[v] < size[v];
  }
};

/// One edge-substitution pass: evaluates re-parenting every non-root node
/// v onto every node outside subtree(v), and attaching it inside every
/// edge outside subtree(v), then applies the single best Pareto-improving
/// move (largest summed w + d gain; first found on ties).  Costs O(V^2)
/// candidate pairs per pass, each with an O(1) subtree test against
/// preorder intervals and an O(1) delay update.  Returns true when a move
/// was applied.
bool edge_substitution_pass(RoutingTree& t, RefineMode mode);

/// Full refinement pipeline: normalize, Steinerize, then edge substitution
/// until fixpoint (bounded by `max_passes`), normalize again.
void refine(RoutingTree& t, RefineMode mode, int max_passes = 8);

/// Produces Pareto-diverse refined variants of a tree — wirelength-biased,
/// delay-biased and either-way (in that order, one per RefineMode) — used
/// to enrich candidate sets in the local search.
std::vector<RoutingTree> refined_variants(const RoutingTree& t);

}  // namespace patlabor::tree
