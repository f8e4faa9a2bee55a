#include "patlabor/rsmt/rsmt.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "patlabor/geom/hanan.hpp"
#include "patlabor/rsmt/mst.hpp"
#include "patlabor/tree/refine.hpp"

namespace patlabor::rsmt {

using geom::HananGrid;
using geom::Length;
using geom::Net;
using geom::NodeId;
using geom::Point;
using tree::RoutingTree;

namespace {

constexpr Length kInf = std::numeric_limits<Length>::max() / 4;

// Backtracking record of one non-singleton DP state (mask, v): a merge
// stores its sub-partition `sub` (< 2^(kExactMaxDegree-1)), a grow stores
// kGrow | predecessor node id.  Singleton masks are always leaves: the
// grow step cannot improve dist(v, sink) (triangle inequality).
constexpr std::uint32_t kGrow = 1u << 31;

// Replaces (c, s) by (c2, s2) when the latter is lexicographically smaller.
void relax(Length& c, NodeId& s, Length c2, NodeId s2) {
  const bool take = c2 < c || (c2 == c && s2 < s);
  c = take ? c2 : c;
  s = take ? s2 : s;
}

// L1 distance transform over the Hanan grid: on entry cost[u] is a node
// cost and src[u] == u; on exit (cost[v], src[v]) is the lexicographic
// minimum over all u of (cost[u] + dist(u, v), u).  Sweeps along y inside
// each column, then along x over those column minima: the x distance is
// constant along each x sweep, so the minimum decomposes exactly.
void distance_transform(const HananGrid& grid, Length* cost, NodeId* src) {
  const int nx = grid.nx();
  const int ny = grid.ny();
  const std::span<const Length> gx = grid.x_gaps();
  const std::span<const Length> gy = grid.y_gaps();
  for (int xi = 0; xi < nx; ++xi) {
    Length* c = cost + static_cast<std::ptrdiff_t>(xi) * ny;
    NodeId* s = src + static_cast<std::ptrdiff_t>(xi) * ny;
    for (int yi = 1; yi < ny; ++yi)
      relax(c[yi], s[yi], c[yi - 1] + gy[static_cast<std::size_t>(yi - 1)],
            s[yi - 1]);
    for (int yi = ny - 2; yi >= 0; --yi)
      relax(c[yi], s[yi], c[yi + 1] + gy[static_cast<std::size_t>(yi)],
            s[yi + 1]);
  }
  auto sweep_column = [&](int to, int from, Length gap) {
    Length* c = cost + static_cast<std::ptrdiff_t>(to) * ny;
    NodeId* s = src + static_cast<std::ptrdiff_t>(to) * ny;
    const Length* fc = cost + static_cast<std::ptrdiff_t>(from) * ny;
    const NodeId* fs = src + static_cast<std::ptrdiff_t>(from) * ny;
    for (int yi = 0; yi < ny; ++yi) relax(c[yi], s[yi], fc[yi] + gap, fs[yi]);
  };
  for (int xi = 1; xi < nx; ++xi)
    sweep_column(xi, xi - 1, gx[static_cast<std::size_t>(xi - 1)]);
  for (int xi = nx - 2; xi >= 0; --xi)
    sweep_column(xi, xi + 1, gx[static_cast<std::size_t>(xi)]);
}

}  // namespace

RoutingTree exact_rsmt(const Net& net) {
  const std::size_t n = net.degree();
  assert(n >= 2 && n <= kExactMaxDegree);
  const HananGrid grid(net.pins);
  const int nv = grid.num_nodes();
  const auto unv = static_cast<std::size_t>(nv);
  const std::size_t nsinks = n - 1;
  const std::uint32_t full = (1u << nsinks) - 1;

  // dp[mask * nv + v]: cheapest cost of a tree that connects node v with
  // the sink set `mask`; how[] holds its backtracking record.
  std::vector<Length> dp((full + 1) * unv, kInf);
  std::vector<std::uint32_t> how((full + 1) * unv, 0);
  std::vector<Length> grown(unv);
  std::vector<NodeId> grown_from(unv);

  std::vector<NodeId> sink_node(nsinks);
  for (std::size_t i = 0; i < nsinks; ++i)
    sink_node[i] = grid.node_at(net.pins[i + 1]);

  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    Length* d = dp.data() + mask * unv;
    const std::uint32_t low = mask & (~mask + 1);
    const std::uint32_t others = mask ^ low;
    if (others == 0) {
      const NodeId sink = sink_node[static_cast<std::size_t>(
          std::countr_zero(mask))];
      for (int v = 0; v < nv; ++v) d[v] = grid.dist(v, sink);
      continue;
    }
    // Merge step: every proper sub-partition `sub` that holds the lowest
    // sink, in decreasing order; per v the first strictly better one wins.
    std::uint32_t* h = how.data() + mask * unv;
    for (std::uint32_t part = (others - 1) & others;;
         part = (part - 1) & others) {
      const std::uint32_t sub = part | low;
      const Length* a = dp.data() + sub * unv;
      const Length* b = dp.data() + (mask ^ sub) * unv;
      for (int v = 0; v < nv; ++v) {
        const Length cost = a[v] + b[v];
        const bool better = cost < d[v];
        d[v] = better ? cost : d[v];
        h[v] = better ? sub : h[v];
      }
      if (part == 0) break;
    }
    // Grow step: one L1-closure round (the grid metric satisfies the
    // triangle inequality, so a single round reaches the closure).  Ties
    // go to the lowest predecessor id, and only strict gains are taken.
    std::copy(d, d + nv, grown.begin());
    std::iota(grown_from.begin(), grown_from.end(), NodeId{0});
    distance_transform(grid, grown.data(), grown_from.data());
    for (int v = 0; v < nv; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (grown[uv] < d[v]) {
        d[v] = grown[uv];
        h[v] = kGrow | static_cast<std::uint32_t>(grown_from[uv]);
      }
    }
  }

  // Reconstruct the edge list.
  std::vector<std::pair<Point, Point>> edges;
  const NodeId root = grid.node_at(net.pins[0]);
  std::vector<std::pair<NodeId, std::uint32_t>> stack{{root, full}};
  while (!stack.empty()) {
    const auto [v, mask] = stack.back();
    stack.pop_back();
    if ((mask & (mask - 1)) == 0) {
      const NodeId sink = sink_node[static_cast<std::size_t>(
          std::countr_zero(mask))];
      if (sink != v) edges.emplace_back(grid.point(v), grid.point(sink));
      continue;
    }
    const std::uint32_t h = how[mask * unv + static_cast<std::size_t>(v)];
    if (h & kGrow) {
      const auto from = static_cast<NodeId>(h & ~kGrow);
      edges.emplace_back(grid.point(v), grid.point(from));
      stack.emplace_back(from, mask);
    } else {
      stack.emplace_back(v, h);
      stack.emplace_back(v, mask ^ h);
    }
  }

  RoutingTree t = RoutingTree::from_edges(net, edges);
  t.normalize();
  return t;
}

RoutingTree rsmt_heuristic(const Net& net) {
  RoutingTree t = rectilinear_mst(net);
  tree::refine(t, tree::RefineMode::kWirelength);
  return t;
}

RoutingTree rsmt(const Net& net) {
  if (net.degree() <= kExactMaxDegree && net.degree() >= 2)
    return exact_rsmt(net);
  return rsmt_heuristic(net);
}

}  // namespace patlabor::rsmt
