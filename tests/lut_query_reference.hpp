// Reference oracle: the build-every-tree lookup-table query.
//
// LookupTable::query (patlabor/lut/lut.cpp) scores every stored topology
// of a net's index without building its tree, selects the frontier, and
// builds trees for the survivors only.  This header keeps the query it
// replaced: one RoutingTree per stored topology, validate() and objective()
// on each, then SolutionSet::select and take_payload.  It also keeps its
// own copy of the tree builder that query used (hash-map interning, CSR
// adjacency, binary-heap Dijkstra, duplicate-pin fix-up), so a change to
// the shared orientation core cannot hide by changing both sides of the
// comparison.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/lut/pattern.hpp"
#include "patlabor/lut/table_storage.hpp"
#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::testing {

/// RoutingTree::from_edges as the build-every-tree query called it: the
/// same ids and parents, assembled through the public tree API.
inline tree::RoutingTree reference_from_edges(
    const geom::Net& net,
    std::span<const std::pair<geom::Point, geom::Point>> edges) {
  using geom::Length;
  using geom::Point;
  std::vector<Point> nodes = net.pins;
  const std::size_t num_pins = net.pins.size();

  std::unordered_map<Point, std::int32_t, geom::PointHash> id;
  id.reserve(nodes.size() + edges.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    id.emplace(nodes[i], static_cast<std::int32_t>(i));
  auto intern = [&](const Point& p) -> std::int32_t {
    auto [it, inserted] =
        id.emplace(p, static_cast<std::int32_t>(nodes.size()));
    if (inserted) nodes.push_back(p);
    return it->second;
  };
  std::vector<std::int32_t> ends(2 * edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    ends[2 * e + 1] = intern(edges[e].second);
    ends[2 * e] = intern(edges[e].first);
  }

  const std::size_t nn = nodes.size();
  std::vector<std::uint32_t> start(nn + 1, 0);
  for (std::int32_t v : ends) ++start[static_cast<std::size_t>(v) + 1];
  for (std::size_t v = 0; v < nn; ++v) start[v + 1] += start[v];
  std::vector<std::int32_t> adj(ends.size());
  for (std::size_t e = 0; e < ends.size(); e += 2) {
    adj[start[static_cast<std::size_t>(ends[e])]++] = ends[e + 1];
    adj[start[static_cast<std::size_t>(ends[e + 1])]++] = ends[e];
  }
  for (std::size_t v = nn; v > 0; --v) start[v] = start[v - 1];
  start[0] = 0;

  std::vector<std::int32_t> parent(nn, tree::kNoParent);
  constexpr Length kUnreached = std::numeric_limits<Length>::max() / 4;
  std::vector<Length> dist(nn, kUnreached);
  std::vector<bool> seen(nn, false);
  using Entry = std::pair<Length, std::int32_t>;
  std::vector<Entry> heap;
  heap.reserve(ends.size() + 1);
  dist[0] = 0;
  heap.emplace_back(0, 0);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [du, ui] = heap.back();
    heap.pop_back();
    const auto u = static_cast<std::size_t>(ui);
    if (seen[u] || du > dist[u]) continue;
    seen[u] = true;
    for (std::uint32_t k = start[u]; k < start[u + 1]; ++k) {
      const auto v = static_cast<std::size_t>(adj[k]);
      const Length nd = du + geom::l1(nodes[u], nodes[v]);
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = ui;
        heap.emplace_back(nd, adj[k]);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    }
  }
  for (std::size_t v = 1; v < num_pins; ++v) {
    if (!seen[v]) {
      const auto it = id.find(nodes[v]);
      if (it != id.end() && static_cast<std::size_t>(it->second) != v &&
          seen[static_cast<std::size_t>(it->second)]) {
        parent[v] = it->second;
        seen[v] = true;
      }
    }
  }

  tree::RoutingTree t = tree::RoutingTree::star(net);
  for (std::size_t v = 0; v < num_pins; ++v) t.set_parent(v, parent[v]);
  for (std::size_t v = num_pins; v < nn; ++v) t.add_steiner(nodes[v], parent[v]);
  return t;
}

/// LookupTable::query as it built a tree for every stored topology.
inline lut::LookupTable::QueryResult reference_query(
    const lut::LookupTable& table, const geom::Net& net) {
  using geom::Point;
  const std::size_t degree = net.degree();
  lut::LookupTable::QueryResult out;

  auto numeric_fallback = [&]() {
    auto r = dw::pareto_dw(net);
    out.frontier = std::move(r.frontier);
    out.trees = std::move(r.trees);
    return out;
  };
  if (degree <= 3) return numeric_fallback();

  lut::RankCoords xs, ys;
  const lut::PinPattern pat = lut::pattern_of(net, xs, ys);
  const lut::Canonical cj = lut::canonical_joint(pat);
  const lut::LookupTable::Entry found = table.find(pat.n, cj.code);
  if (found.entry == nullptr) return numeric_fallback();

  const int n = pat.n;
  std::vector<tree::RoutingTree> trees;
  std::vector<pareto::Objective> objs;
  trees.reserve(found.entry->count);
  std::vector<std::pair<Point, Point>> edges;
  lut::RecordCursor cur(*found.view, *found.entry, n, table.origin());
  while (cur.next()) {
    edges.clear();
    edges.reserve(cur.edge_count());
    for (unsigned i = 0; i < cur.edge_count(); ++i) {
      const auto [a, b] = cur.edge(i);
      const lut::RankPoint ra = lut::inverse_transform_point(a, cj.transform, n);
      const lut::RankPoint rb = lut::inverse_transform_point(b, cj.transform, n);
      edges.emplace_back(Point{xs[ra.x], ys[ra.y]}, Point{xs[rb.x], ys[rb.y]});
    }
    tree::RoutingTree t = reference_from_edges(net, edges);
    if (!t.validate().empty()) continue;  // degenerate collapse; skip
    objs.push_back(t.objective());
    trees.push_back(std::move(t));
  }
  out.frontier = pareto::SolutionSet::select(objs);
  out.trees = pareto::take_payload(out.frontier, std::move(trees));
  return out;
}

}  // namespace patlabor::testing
