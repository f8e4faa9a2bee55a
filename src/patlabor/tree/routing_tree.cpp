#include "patlabor/tree/routing_tree.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>

namespace patlabor::tree {

RoutingTree RoutingTree::star(const Net& net) {
  RoutingTree t;
  t.nodes_ = net.pins;
  t.num_pins_ = net.pins.size();
  t.parent_.assign(t.nodes_.size(), 0);
  t.parent_[0] = kNoParent;
  return t;
}

RoutingTree RoutingTree::from_parents(std::vector<Point> nodes,
                                      std::vector<std::int32_t> parents,
                                      std::size_t num_pins) {
  assert(nodes.size() == parents.size() && num_pins <= nodes.size());
  RoutingTree t;
  t.nodes_ = std::move(nodes);
  t.parent_ = std::move(parents);
  t.num_pins_ = num_pins;
  return t;
}

RoutingTree RoutingTree::from_edges(
    const Net& net, std::span<const std::pair<Point, Point>> edges) {
  RoutingTree t;
  t.nodes_ = net.pins;
  t.num_pins_ = net.pins.size();

  // Map distinct points to node ids in first-seen order; pins get their
  // fixed ids first.
  std::unordered_map<Point, std::int32_t, geom::PointHash> id;
  id.reserve(t.nodes_.size() + edges.size());
  for (std::size_t i = 0; i < t.nodes_.size(); ++i) {
    // Duplicate pins map to the first occurrence; extra duplicates become
    // isolated nodes attached below.
    id.try_emplace(t.nodes_[i], static_cast<std::int32_t>(i));
  }
  // try_emplace looks the point up before it allocates a map node.
  auto intern = [&](const Point& p) -> std::int32_t {
    auto [it, inserted] = id.try_emplace(
        p, static_cast<std::int32_t>(t.nodes_.size()));
    if (inserted) t.nodes_.push_back(p);
    return it->second;
  };
  // Each edge interns its second endpoint before its first; the ids of
  // points new to the pool, and so the parents below, follow that order.
  std::vector<std::int32_t> ends(2 * edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    ends[2 * e + 1] = intern(edges[e].second);
    ends[2 * e] = intern(edges[e].first);
  }

  const std::size_t nn = t.nodes_.size();
  t.parent_.resize(nn);
  std::vector<Length> dist(nn);
  std::vector<std::uint32_t> start(nn + 1);
  std::vector<std::uint8_t> seen(nn);
  std::vector<std::int32_t> adj(ends.size());
  std::vector<std::pair<Length, std::int32_t>> heap(ends.size() + 1);
  orient_edges(t.nodes_, t.num_pins_, ends, t.parent_, dist,
               {start, seen, adj, heap});
  return t;
}

void orient_edges(std::span<const Point> nodes, std::size_t num_pins,
                  std::span<const std::int32_t> ends,
                  std::span<std::int32_t> parent, std::span<Length> dist,
                  const OrientScratch& scratch) {
  const std::size_t nn = nodes.size();
  assert(parent.size() == nn && dist.size() == nn);
  assert(scratch.start.size() > nn && scratch.seen.size() >= nn &&
         scratch.adj.size() >= ends.size() &&
         scratch.heap.size() > ends.size());

  // Adjacency as CSR, each list in edge order.
  std::uint32_t* const start = scratch.start.data();
  std::int32_t* const adj = scratch.adj.data();
  std::fill(start, start + nn + 1, 0u);
  for (std::int32_t v : ends) ++start[static_cast<std::size_t>(v) + 1];
  for (std::size_t v = 0; v < nn; ++v) start[v + 1] += start[v];
  for (std::size_t e = 0; e < ends.size(); e += 2) {
    adj[start[static_cast<std::size_t>(ends[e])]++] = ends[e + 1];
    adj[start[static_cast<std::size_t>(ends[e + 1])]++] = ends[e];
  }
  for (std::size_t v = nn; v > 0; --v) start[v] = start[v - 1];
  start[0] = 0;

  // Orient as a shortest-path tree from the source: a binary-heap Dijkstra
  // that settles the lowest (dist, id) first and skips stale entries.
  // For an acyclic edge set this is the unique orientation; when duplicate
  // or overlapping edges produced cycles in the union, the SPT orientation
  // guarantees path lengths (hence delay) never exceed those of any
  // intended derivation of the same edge set.
  constexpr Length kUnreached = std::numeric_limits<Length>::max() / 4;
  std::fill(parent.begin(), parent.end(), kNoParent);
  std::fill(dist.begin(), dist.end(), kUnreached);
  std::uint8_t* const seen = scratch.seen.data();
  std::fill(seen, seen + nn, std::uint8_t{0});
  using Entry = std::pair<Length, std::int32_t>;
  Entry* const heap = scratch.heap.data();
  std::size_t heap_size = 0;
  dist[0] = 0;
  heap[heap_size++] = Entry{0, 0};
  while (heap_size > 0) {
    std::pop_heap(heap, heap + heap_size, std::greater<>());
    const auto [du, ui] = heap[--heap_size];
    const auto u = static_cast<std::size_t>(ui);
    if (seen[u] != 0 || du > dist[u]) continue;
    seen[u] = 1;
    for (std::uint32_t k = start[u]; k < start[u + 1]; ++k) {
      const auto v = static_cast<std::size_t>(adj[k]);
      const Length nd = du + geom::l1(nodes[u], nodes[v]);
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = ui;
        heap[heap_size++] = Entry{nd, adj[k]};
        std::push_heap(heap, heap + heap_size, std::greater<>());
      }
    }
  }
  // Unreached duplicates of pins (same coordinates) hang off their twin:
  // the first pin at those coordinates, whose id interning gave the point.
  for (std::size_t v = 1; v < num_pins; ++v) {
    if (seen[v] != 0) continue;
    for (std::size_t u = 0; u < v; ++u) {
      if (!(nodes[u] == nodes[v])) continue;
      if (seen[u] != 0) {
        parent[v] = static_cast<std::int32_t>(u);
        dist[v] = dist[u];
        seen[v] = 1;
      }
      break;
    }
  }
}

std::size_t RoutingTree::add_steiner(const Point& p, std::int32_t parent) {
  nodes_.push_back(p);
  parent_.push_back(parent);
  return nodes_.size() - 1;
}

Length RoutingTree::wirelength() const {
  Length w = 0;
  for (std::size_t v = 0; v < nodes_.size(); ++v)
    if (parent_[v] != kNoParent)
      w += geom::l1(nodes_[v], nodes_[static_cast<std::size_t>(parent_[v])]);
  return w;
}

std::vector<Length> RoutingTree::path_lengths() const {
  std::vector<Length> pl(nodes_.size(), -1);
  pl[0] = 0;
  // Iterative resolution that tolerates arbitrary node order.
  std::vector<std::size_t> stack;
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    if (pl[v] >= 0) continue;
    std::size_t u = v;
    while (pl[u] < 0 && parent_[u] != kNoParent) {
      stack.push_back(u);
      u = static_cast<std::size_t>(parent_[u]);
    }
    Length base = pl[u] >= 0 ? pl[u] : 0;
    while (!stack.empty()) {
      const std::size_t c = stack.back();
      stack.pop_back();
      base += geom::l1(nodes_[c], nodes_[static_cast<std::size_t>(parent_[c])]);
      pl[c] = base;
    }
  }
  return pl;
}

Length RoutingTree::delay() const {
  const auto pl = path_lengths();
  Length d = 0;
  for (std::size_t v = 1; v < num_pins_; ++v) d = std::max(d, pl[v]);
  return d;
}

pareto::Objective RoutingTree::objective() const {
  return pareto::Objective{wirelength(), delay()};
}

std::vector<std::vector<std::int32_t>> RoutingTree::children() const {
  std::vector<std::vector<std::int32_t>> ch(nodes_.size());
  for (std::size_t v = 0; v < nodes_.size(); ++v)
    if (parent_[v] != kNoParent)
      ch[static_cast<std::size_t>(parent_[v])].push_back(
          static_cast<std::int32_t>(v));
  return ch;
}

bool RoutingTree::in_subtree(std::size_t v, std::size_t u) const {
  std::size_t cur = v;
  while (true) {
    if (cur == u) return true;
    if (parent_[cur] == kNoParent) return false;
    cur = static_cast<std::size_t>(parent_[cur]);
  }
}

std::string RoutingTree::validate() const {
  if (nodes_.size() != parent_.size()) return "nodes/parent size mismatch";
  if (num_pins_ == 0 || num_pins_ > nodes_.size()) return "bad pin count";
  if (parent_[0] != kNoParent) return "root has a parent";
  for (std::size_t v = 1; v < nodes_.size(); ++v) {
    if (parent_[v] == kNoParent) return "non-root node " + std::to_string(v) +
                                        " has no parent (disconnected)";
    if (parent_[v] < 0 ||
        static_cast<std::size_t>(parent_[v]) >= nodes_.size())
      return "parent index out of range at node " + std::to_string(v);
  }
  // Cycle check: every node must reach the root within |V| steps.
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    std::size_t cur = v;
    std::size_t steps = 0;
    while (parent_[cur] != kNoParent) {
      cur = static_cast<std::size_t>(parent_[cur]);
      if (++steps > nodes_.size()) return "cycle through node " +
                                          std::to_string(v);
    }
  }
  return {};
}

void RoutingTree::normalize() {
  // Work arrays shared by every round: child counts, the child of each
  // single-child node, and the compaction map.
  std::vector<std::int32_t> count, only, remap;
  auto count_children = [&] {
    count.assign(nodes_.size(), 0);
    only.assign(nodes_.size(), kNoParent);
    for (std::size_t v = 0; v < nodes_.size(); ++v)
      if (parent_[v] != kNoParent) {
        ++count[static_cast<std::size_t>(parent_[v])];
        only[static_cast<std::size_t>(parent_[v])] =
            static_cast<std::int32_t>(v);
      }
  };
  // 1. Iteratively drop Steiner leaves.
  while (true) {
    count_children();
    // Collect in one sweep; removal = mark dead, compact at the end.
    remap.assign(nodes_.size(), 0);
    bool changed = false;
    for (std::size_t v = num_pins_; v < nodes_.size(); ++v) {
      if (count[v] == 0) {
        remap[v] = -1;
        changed = true;
      }
    }
    if (!changed) break;
    compact(remap);
  }
  // 2. Splice out degree-2 Steiner pass-throughs lying on a monotone path
  //    between parent and child (objective-neutral); off-path elbows are
  //    kept, they carry geometry.
  while (true) {
    count_children();
    bool changed = false;
    for (std::size_t v = num_pins_; v < nodes_.size(); ++v) {
      if (count[v] != 1 || parent_[v] == kNoParent) continue;
      const std::size_t p = static_cast<std::size_t>(parent_[v]);
      const std::size_t c = static_cast<std::size_t>(only[v]);
      if (geom::l1(nodes_[p], nodes_[v]) + geom::l1(nodes_[v], nodes_[c]) ==
          geom::l1(nodes_[p], nodes_[c])) {
        parent_[c] = static_cast<std::int32_t>(p);
        remap.assign(nodes_.size(), 0);
        remap[v] = -1;
        compact(remap);
        changed = true;
        break;  // indices shifted; restart the scan
      }
    }
    if (!changed) break;
  }
}

void RoutingTree::compact(std::vector<std::int32_t>& remap) {
  std::int32_t next = 0;
  for (std::size_t v = 0; v < nodes_.size(); ++v)
    remap[v] = v < num_pins_ || remap[v] >= 0 ? next++ : -1;
  // remap[v] <= v, so moving entries forward in index order never
  // overwrites one that is still to be read.
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    if (remap[v] < 0) continue;
    const auto r = static_cast<std::size_t>(remap[v]);
    const std::int32_t p = parent_[v];
    nodes_[r] = nodes_[v];
    parent_[r] =
        p == kNoParent ? kNoParent : remap[static_cast<std::size_t>(p)];
    assert((p == kNoParent || parent_[r] >= 0) &&
           "parent of a live node was removed");
  }
  nodes_.resize(static_cast<std::size_t>(next));
  parent_.resize(static_cast<std::size_t>(next));
}

std::uint64_t RoutingTree::structural_hash() const {
  // Hash the multiset of undirected edges by coordinates.
  std::uint64_t h = 0x243F6A8885A308D3ULL ^ nodes_.size();
  std::vector<std::uint64_t> edge_hashes;
  edge_hashes.reserve(nodes_.size());
  geom::PointHash ph;
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    if (parent_[v] == kNoParent) continue;
    const Point& a = nodes_[v];
    const Point& b = nodes_[static_cast<std::size_t>(parent_[v])];
    const std::uint64_t ha = ph(a < b ? a : b);
    const std::uint64_t hb = ph(a < b ? b : a);
    edge_hashes.push_back(ha * 0x100000001B3ULL ^ hb);
  }
  std::sort(edge_hashes.begin(), edge_hashes.end());
  for (std::uint64_t e : edge_hashes) h = (h ^ e) * 0x100000001B3ULL;
  return h;
}

std::vector<pareto::Objective> objectives(std::span<const RoutingTree> trees) {
  std::vector<pareto::Objective> out;
  out.reserve(trees.size());
  for (const RoutingTree& t : trees) out.push_back(t.objective());
  return out;
}

}  // namespace patlabor::tree
