// Mapping exact-regime trees from the canonical frame back onto a net.
// Internal to the engine (engine.cpp and the tests); not part of the
// umbrella header.
#pragma once

#include <span>
#include <vector>

#include "patlabor/geom/canonical.hpp"
#include "patlabor/geom/net.hpp"
#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::engine {

/// Maps the trees of a frontier routed on `canon.net` back onto `net`
/// through the inverse of canon.to_canonical.  Each tree matches
/// RoutingTree::from_edges(net, edges) over its mapped parent edges,
/// listed in node id order, child first.
std::vector<tree::RoutingTree> map_back(
    std::span<const tree::RoutingTree> trees, const geom::CanonicalNet& canon,
    const geom::Net& net);

}  // namespace patlabor::engine
