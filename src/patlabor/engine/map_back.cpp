#include "patlabor/engine/map_back.hpp"

#include <cassert>
#include <cstdint>
#include <utility>

#include "patlabor/par/worker_context.hpp"

namespace patlabor::engine {

namespace {

/// Per-thread map-back buffers (par::WorkerContext): capacity only, every
/// buffer is overwritten before it is read.
struct MapBackScratch {
  std::vector<geom::Point> nodes;
  std::vector<std::int32_t> ends, parent, adj;
  std::vector<geom::Length> dist;
  std::vector<std::uint32_t> start;
  std::vector<std::uint8_t> seen;
  std::vector<std::pair<geom::Length, std::int32_t>> heap;
};

}  // namespace

std::vector<tree::RoutingTree> map_back(
    std::span<const tree::RoutingTree> trees, const geom::CanonicalNet& canon,
    const geom::Net& net) {
  const geom::Isometry back = canon.to_canonical.inverse();
  const std::size_t n = net.pins.size();
  auto& s = par::WorkerContext::current().get<MapBackScratch>();
  std::vector<tree::RoutingTree> out;
  out.reserve(trees.size());
  for (const tree::RoutingTree& ct : trees) {
    assert(ct.num_pins() == n);
    // from_edges over the mapped edge list: native pins first, then each
    // new point as the edges list it (parent endpoint before child),
    // interned by linear scan and oriented by orient_edges.
    s.nodes.assign(net.pins.begin(), net.pins.end());
    const auto intern = [&](const geom::Point& p) {
      std::size_t i = 0;
      while (i < s.nodes.size() && !(s.nodes[i] == p)) ++i;
      if (i == s.nodes.size()) s.nodes.push_back(p);
      return static_cast<std::int32_t>(i);
    };
    s.ends.clear();
    for (std::size_t v = 1; v < ct.num_nodes(); ++v) {
      if (ct.parent(v) == tree::kNoParent) continue;
      const std::int32_t p = intern(
          back.apply(ct.node(static_cast<std::size_t>(ct.parent(v)))));
      s.ends.push_back(intern(back.apply(ct.node(v))));
      s.ends.push_back(p);
    }
    const std::size_t nn = s.nodes.size();
    s.parent.resize(nn);
    s.dist.resize(nn);
    s.start.resize(nn + 1);
    s.seen.resize(nn);
    s.adj.resize(s.ends.size());
    s.heap.resize(s.ends.size() + 1);
    tree::orient_edges(s.nodes, n, s.ends, s.parent, s.dist,
                       {s.start, s.seen, s.adj, s.heap});
    out.push_back(tree::RoutingTree::from_parents(s.nodes, s.parent, n));
  }
  return out;
}

}  // namespace patlabor::engine
