#include "patlabor/rsmt/rsmt.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
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

// Most merge partitions of one mask: the lowest sink plus any proper
// subset of the other kExactMaxDegree - 2 sinks.
constexpr std::size_t kMaxParts = std::size_t{1} << (kExactMaxDegree - 2);

// Fills subs[] with every proper sub-partition of `mask` that holds its
// lowest sink, in decreasing order, and returns how many there are.
std::size_t partitions(std::uint32_t mask, std::uint32_t* subs) {
  const std::uint32_t low = mask & (~mask + 1);
  const std::uint32_t others = mask ^ low;
  std::size_t np = 0;
  for (std::uint32_t part = (others - 1) & others;;
       part = (part - 1) & others) {
    subs[np++] = part | low;
    if (part == 0) break;
  }
  return np;
}

// Merge step, a pure min-plus reduction: d[v] becomes the minimum over the
// partitions of row(sub)[v] + row(mask ^ sub)[v].  Four partitions per pass
// over v, so d is loaded and stored once per four.
void merge(const Length* dp, std::size_t nv, std::uint32_t mask,
           const std::uint32_t* subs, std::size_t np, Length* d) {
  auto row = [&](std::uint32_t m) { return dp + m * nv; };
  std::fill(d, d + nv, kInf);
  std::size_t i = 0;
  for (; i + 4 <= np; i += 4) {
    const Length* a0 = row(subs[i]);
    const Length* b0 = row(mask ^ subs[i]);
    const Length* a1 = row(subs[i + 1]);
    const Length* b1 = row(mask ^ subs[i + 1]);
    const Length* a2 = row(subs[i + 2]);
    const Length* b2 = row(mask ^ subs[i + 2]);
    const Length* a3 = row(subs[i + 3]);
    const Length* b3 = row(mask ^ subs[i + 3]);
    for (std::size_t v = 0; v < nv; ++v) {
      const Length m01 = std::min(a0[v] + b0[v], a1[v] + b1[v]);
      const Length m23 = std::min(a2[v] + b2[v], a3[v] + b3[v]);
      d[v] = std::min(d[v], std::min(m01, m23));
    }
  }
  for (; i < np; ++i) {
    const Length* a = row(subs[i]);
    const Length* b = row(mask ^ subs[i]);
    for (std::size_t v = 0; v < nv; ++v) d[v] = std::min(d[v], a[v] + b[v]);
  }
}

// L1 distance transform over the Hanan grid, in place: on exit cost[v] is
// the minimum over all u of cost[u] + dist(u, v).  Sweeps along y inside
// each column, then along x over those column minima: the x distance is
// constant along each x sweep, so the minimum decomposes exactly.
void distance_transform(const HananGrid& grid, Length* cost) {
  const int nx = grid.nx();
  const int ny = grid.ny();
  const std::span<const Length> gx = grid.x_gaps();
  const std::span<const Length> gy = grid.y_gaps();
  for (int xi = 0; xi < nx; ++xi) {
    Length* c = cost + static_cast<std::ptrdiff_t>(xi) * ny;
    for (int yi = 1; yi < ny; ++yi)
      c[yi] = std::min(c[yi],
                       c[yi - 1] + gy[static_cast<std::size_t>(yi - 1)]);
    for (int yi = ny - 2; yi >= 0; --yi)
      c[yi] = std::min(c[yi], c[yi + 1] + gy[static_cast<std::size_t>(yi)]);
  }
  auto sweep_column = [&](int to, int from, Length gap) {
    Length* c = cost + static_cast<std::ptrdiff_t>(to) * ny;
    const Length* fc = cost + static_cast<std::ptrdiff_t>(from) * ny;
    for (int yi = 0; yi < ny; ++yi) c[yi] = std::min(c[yi], fc[yi] + gap);
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
  // the sink set `mask`.  Only values are stored.
  std::vector<Length> dp((full + 1) * unv);
  auto row = [&](std::uint32_t mask) { return dp.data() + mask * unv; };
  std::uint32_t subs[kMaxParts];

  std::vector<NodeId> sink_node(nsinks);
  for (std::size_t i = 0; i < nsinks; ++i)
    sink_node[i] = grid.node_at(net.pins[i + 1]);

  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    Length* d = row(mask);
    if ((mask & (mask - 1)) == 0) {
      const NodeId sink = sink_node[static_cast<std::size_t>(
          std::countr_zero(mask))];
      for (int v = 0; v < nv; ++v) d[v] = grid.dist(v, sink);
      continue;
    }
    merge(dp.data(), unv, mask, subs, partitions(mask, subs), d);
    // Grow step: one L1-closure round (the grid metric satisfies the
    // triangle inequality, so a single round reaches the closure).
    distance_transform(grid, d);
  }

  // Re-derive the choice of each state the tree visits, in the tie order
  // of rsmt.hpp.  merge_split() returns the first partition, in decreasing
  // order, whose sum reaches dp[mask][v], or 0 when none does: a grow.
  auto merge_split = [&](std::uint32_t mask, NodeId v) -> std::uint32_t {
    const std::size_t np = partitions(mask, subs);
    for (std::size_t i = 0; i < np; ++i)
      if (row(subs[i])[v] + row(mask ^ subs[i])[v] == row(mask)[v])
        return subs[i];
    return 0;
  };
  // A grow's predecessor is the lowest u whose merged value plus dist(u, v)
  // reaches dp[mask][v].  Final values satisfy the triangle inequality and
  // merged >= final, so that u is the lowest one with
  // dp[u] + dist(u, v) == dp[v] that is itself a merge state.
  auto grow_from = [&](std::uint32_t mask, NodeId v) -> NodeId {
    const Length* d = row(mask);
    for (NodeId u = 0; u < nv; ++u)
      if (u != v && d[u] + grid.dist(u, v) == d[v] && merge_split(mask, u))
        return u;
    assert(false && "a grow state has a merge-state predecessor");
    return v;
  };

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
    if (const std::uint32_t sub = merge_split(mask, v)) {
      stack.emplace_back(v, sub);
      stack.emplace_back(v, mask ^ sub);
    } else {
      const NodeId from = grow_from(mask, v);
      edges.emplace_back(grid.point(v), grid.point(from));
      stack.emplace_back(from, mask);
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
