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
#include <span>
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
/// the median Steiner point.  Returns the wirelength saved.  The children
/// lists stay live across merges and the scan resumes at the merged node,
/// so the sweep is one pass over the nodes plus the pair searches.
Length steinerize(RoutingTree& t);

/// Preorder intervals of a parent array, the O(1) subtree test of edge
/// substitution.  `build` lays the children out as CSR arrays (each list
/// in ascending id order, as RoutingTree::children() returns it), then runs
/// a stack DFS from every parentless node in index order, so each subtree
/// is one contiguous run of the preorder and
/// `contains(v, x) == t.in_subtree(x, v)` for any acyclic parent array
/// (forests included).  The intervals describe the tree they were built
/// from and go stale once a parent changes.  Rebuilding reuses the arrays.
struct SubtreeIntervals {
  std::vector<std::size_t> order;  ///< preorder: parents before children
  std::vector<std::size_t> pre;    ///< position of each node in `order`
  std::vector<std::size_t> size;   ///< node count of each subtree
  std::vector<std::uint32_t> child_start;  ///< CSR offsets, num_nodes + 1
  std::vector<std::int32_t> child;         ///< CSR children lists
  std::vector<std::size_t> stack;          ///< DFS scratch

  void build(const RoutingTree& t);

  /// Children of u in ascending id order.
  std::span<const std::int32_t> children(std::size_t u) const {
    return {child.data() + child_start[u],
            child_start[u + 1] - child_start[u]};
  }

  /// True when x lies in the subtree rooted at v (v counts).  One unsigned
  /// compare: pre[x] < pre[v] wraps around to a huge difference.
  bool contains(std::size_t v, std::size_t x) const {
    return pre[x] - pre[v] < size[v];
  }
};

/// One edge-substitution pass: considers re-parenting every non-root node
/// v onto every node outside subtree(v), and attaching it inside every
/// edge outside subtree(v), then applies the single best Pareto-improving
/// move.  Moves are ranked by the key (summed w + d gain descending, v
/// ascending, node moves before edge moves, target id ascending), which is
/// the first-found-on-ties order of a plain v / node / edge scan.
///
/// Only candidates with a new edge no longer than v's parent edge, of
/// length r, can be accepted (any longer one raises the wirelength).  The
/// pass buckets the nodes into a g x g grid over the tree's bounding box
/// (g the smallest integer with 2g^2 >= V, so about two nodes per cell) and
/// registers every edge (c, parent(c)) in each cell its bounding box
/// overlaps.  For each v it visits only the cells meeting the square
/// [x_v ± r] x [y_v ± r], which holds every node within L1 distance r and
/// meets the box of every edge within L1 distance r; a per-pass stamp tests
/// an edge that sits in several cells once.  So the pass costs
/// O(V log V + registrations + in-window candidates) instead of O(V^2),
/// each candidate with an O(1) subtree test against preorder intervals and
/// an O(1) delay update, and applies the same move as the full scan.
/// `refine.moves_evaluated` counts the candidates that reach the delay
/// update (new edge no longer than r).  Returns true when a move was
/// applied.
bool edge_substitution_pass(RoutingTree& t, RefineMode mode);

/// Full refinement pipeline: normalize, Steinerize, then edge substitution
/// until fixpoint (bounded by `max_passes`), normalize again.  One scratch
/// (grid, delay oracle, children lists) serves every pass of the call.
void refine(RoutingTree& t, RefineMode mode, int max_passes = 8);

/// Produces Pareto-diverse refined variants of a tree — wirelength-biased,
/// delay-biased and either-way (in that order, one per RefineMode) — used
/// to enrich candidate sets in the local search.
std::vector<RoutingTree> refined_variants(const RoutingTree& t);

}  // namespace patlabor::tree
