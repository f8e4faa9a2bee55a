// Rooted rectilinear routing trees.
//
// A RoutingTree spans the net's pins (node 0 = source) plus optional Steiner
// nodes.  Edges connect a node to its parent and have length equal to the L1
// distance between their endpoints (each edge is realized as an L-shape /
// straight segment; per the paper's formulation, wirelength is the sum of
// edge lengths and delay is the maximum root-to-sink path length).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "patlabor/geom/net.hpp"
#include "patlabor/geom/point.hpp"
#include "patlabor/pareto/objective.hpp"

namespace patlabor::tree {

using geom::Length;
using geom::Net;
using geom::Point;

constexpr std::int32_t kNoParent = -1;

/// Working storage of orient_edges(), owned by the caller: `start` holds
/// one entry per node plus one, `seen` one per node, `adj` one per edge
/// endpoint and `heap` one more than that.
struct OrientScratch {
  std::span<std::uint32_t> start;
  std::span<std::uint8_t> seen;
  std::span<std::int32_t> adj;
  std::span<std::pair<Length, std::int32_t>> heap;
};

/// The orientation core of RoutingTree::from_edges, over caller-provided
/// buffers so a caller that interns points itself can orient without
/// allocating.  nodes[0, num_pins) are the pins (node 0 the source), the
/// rest Steiner points; edge e joins nodes ends[2e] and ends[2e + 1].
/// Fills parent[v] with v's parent in the shortest-path tree from node 0
/// (kNoParent when v is unreached) and dist[v] with its root path length
/// along tree edges (meaningless when unreached).  Adjacency lists keep
/// edge order; Dijkstra settles the lowest (dist, id) first and relaxes on
/// strict improvement only; an unreached pin whose coordinates equal an
/// earlier pin's hangs off the first such pin when that one was reached.
void orient_edges(std::span<const Point> nodes, std::size_t num_pins,
                  std::span<const std::int32_t> ends,
                  std::span<std::int32_t> parent, std::span<Length> dist,
                  const OrientScratch& scratch);

class RoutingTree {
 public:
  RoutingTree() = default;

  /// A star: every sink connected directly to the source.  The simplest
  /// valid tree; useful as a seed and in tests.
  static RoutingTree star(const Net& net);

  /// Builds a tree from an undirected edge list over points.  The edge set
  /// must connect all pins; orientation (parent pointers) is the
  /// shortest-path tree from the source over L1 edge lengths that
  /// orient_edges() finds by a binary-heap Dijkstra (O(E log E)).  Points
  /// are interned through a hash map in first-seen order (pins first, then
  /// each edge's second endpoint before its first).  Points not equal to
  /// any pin become Steiner nodes.  Degree-2 pass-through Steiner nodes are
  /// preserved as given.
  static RoutingTree from_edges(const Net& net,
                                std::span<const std::pair<Point, Point>> edges);

  /// Adopts already-oriented arrays as they are: nodes[0, num_pins) are the
  /// pins (node 0 the source), the rest Steiner points, and parents[v] is
  /// v's parent (kNoParent for the root and unreached nodes).  For builders
  /// that intern and orient themselves (the LUT query's scorer, the
  /// engine's map-back); nothing is checked.
  static RoutingTree from_parents(std::vector<Point> nodes,
                                  std::vector<std::int32_t> parents,
                                  std::size_t num_pins);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_pins() const { return num_pins_; }
  bool is_pin(std::size_t v) const { return v < num_pins_; }
  const Point& node(std::size_t v) const { return nodes_[v]; }
  std::int32_t parent(std::size_t v) const { return parent_[v]; }
  const std::vector<Point>& nodes() const { return nodes_; }
  const std::vector<std::int32_t>& parents() const { return parent_; }

  /// Adds a Steiner node; returns its index.
  std::size_t add_steiner(const Point& p, std::int32_t parent);

  /// Re-parents node v (caller must keep the structure acyclic).
  void set_parent(std::size_t v, std::int32_t p) { parent_[v] = p; }

  /// Total wirelength: sum of L1 edge lengths.
  Length wirelength() const;

  /// Delay: maximum L1 path length from the root to any sink pin.
  Length delay() const;

  /// Both objectives in one traversal.
  pareto::Objective objective() const;

  /// Root-to-node path length along tree edges for every node.
  std::vector<Length> path_lengths() const;

  /// Children adjacency (built on demand).
  std::vector<std::vector<std::int32_t>> children() const;

  /// True when v lies in the subtree rooted at u (u counts).
  bool in_subtree(std::size_t v, std::size_t u) const;

  /// Structural validity: parent pointers form a tree rooted at node 0
  /// covering all nodes, node 0 has no parent, pin count is consistent.
  /// Returns an empty string when valid, else a diagnostic.
  std::string validate() const;

  /// Removes Steiner leaves and unused nodes, splices out degree-2 Steiner
  /// pass-throughs whose removal does not change either objective, and
  /// compacts indices (pins keep indices 0..num_pins-1).
  void normalize();

  /// Order-independent structural hash (over the undirected edge set),
  /// for deduplicating topologies.
  std::uint64_t structural_hash() const;

 private:
  /// Removes the nodes with remap[v] < 0 (pins are never removed) and
  /// re-indexes in place; remap is left holding each node's new index.
  void compact(std::vector<std::int32_t>& remap);

  std::vector<Point> nodes_;
  std::vector<std::int32_t> parent_;
  std::size_t num_pins_ = 0;
};

/// Convenience: evaluates a set of trees into objective vectors.
std::vector<pareto::Objective> objectives(std::span<const RoutingTree> trees);

}  // namespace patlabor::tree
