// Reference oracle: the map-back that rebuilt every tree from its edges.
//
// engine::map_back (patlabor/engine/map_back.cpp) interns by linear scan
// and orients through tree::orient_edges in reused per-thread buffers.
// This header keeps the map-back it replaced: each canonical tree's
// parent edges, in node id order with the child first, moved through the
// inverse isometry and handed to the edge-list tree builder.  The builder is the test-side
// copy in lut_query_reference.hpp (hash-map interning, its own Dijkstra and
// twin fix-up), so neither side of the comparison shares the library's
// orientation core.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "lut_query_reference.hpp"
#include "patlabor/geom/canonical.hpp"
#include "patlabor/geom/net.hpp"
#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::testing {

/// engine::map_back as it called RoutingTree::from_edges once per tree.
inline std::vector<tree::RoutingTree> reference_map_back(
    std::span<const tree::RoutingTree> trees, const geom::CanonicalNet& canon,
    const geom::Net& net) {
  const geom::Isometry back = canon.to_canonical.inverse();
  std::vector<tree::RoutingTree> out;
  out.reserve(trees.size());
  std::vector<std::pair<geom::Point, geom::Point>> edges;
  for (const tree::RoutingTree& ct : trees) {
    edges.clear();
    for (std::size_t v = 1; v < ct.num_nodes(); ++v)
      if (ct.parent(v) >= 0)
        edges.emplace_back(
            back.apply(ct.node(v)),
            back.apply(ct.node(static_cast<std::size_t>(ct.parent(v)))));
    out.push_back(reference_from_edges(net, edges));
  }
  return out;
}

}  // namespace patlabor::testing
