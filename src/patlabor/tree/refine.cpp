#include "patlabor/tree/refine.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "patlabor/geom/box.hpp"
#include "patlabor/obs/obs.hpp"

namespace patlabor::tree {

namespace {

constexpr Length kNegInf = std::numeric_limits<Length>::min() / 4;

// Gives a reused buffer room for n entries.  A buffer that must grow takes
// twice that, so the few nodes each refinement pass adds never reallocate.
template <class T>
void room(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) v.reserve(2 * n);
}

// Sizes a reused buffer to n copies of `value`.
template <class T>
void fill(std::vector<T>& v, std::size_t n, std::type_identity_t<T> value) {
  room(v, n);
  v.assign(n, value);
}

// CSR offsets: turns per-bucket counts held at start[k + 1] into bucket
// beginnings.
void counts_to_offsets(std::vector<std::uint32_t>& start) {
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
}

// After a fill that advanced start[k] to the end of bucket k, restores
// start[k] to the bucket's beginning.
void shift_back(std::vector<std::uint32_t>& start) {
  for (std::size_t k = start.size() - 1; k > 0; --k) start[k] = start[k - 1];
  start[0] = 0;
}

Point median3(const Point& a, const Point& b, const Point& c) {
  auto med = [](geom::Coord x, geom::Coord y, geom::Coord z) {
    return std::max(std::min(x, y), std::min(std::max(x, y), z));
  };
  return Point{med(a.x, b.x, c.x), med(a.y, b.y, c.y)};
}

// Per-pass arrays for O(1) delay evaluation of a re-parenting move.
struct DelayOracle {
  std::vector<Length> pl;    // root->node path lengths
  std::vector<Length> in;    // max pl over sink pins inside subtree(v)
  std::vector<Length> out;   // max pl over sink pins outside subtree(v)
  Length w0 = 0;             // wirelength of the tree
  Length d0 = 0;             // delay of the tree

  SubtreeIntervals sub;      // preorder intervals: O(1) subtree test

  void build(const RoutingTree& t) {
    sub.build(t);
    const std::size_t n = t.num_nodes();
    fill(pl, n, 0);
    fill(in, n, kNegInf);
    fill(out, n, kNegInf);
    w0 = 0;
    d0 = 0;
    // pl, w0 and d0 top-down: each edge length is taken once.
    for (std::size_t u : sub.order) {
      if (t.parent(u) == kNoParent) continue;
      const auto p = static_cast<std::size_t>(t.parent(u));
      const Length len = geom::l1(t.node(u), t.node(p));
      pl[u] = pl[p] + len;
      w0 += len;
      if (t.is_pin(u)) {
        in[u] = pl[u];
        d0 = std::max(d0, pl[u]);
      }
    }
    // in[] by reverse preorder: a subtree is folded before its root.
    for (auto it = sub.order.rbegin(); it != sub.order.rend(); ++it) {
      const std::size_t u = *it;
      if (t.parent(u) != kNoParent) {
        const auto p = static_cast<std::size_t>(t.parent(u));
        in[p] = std::max(in[p], in[u]);
      }
    }
    // out[] top-down: a child sees its parent's outside, the parent itself
    // and the largest in[] of its siblings — the top child in[] for every
    // child but the one holding it, which sees the runner-up.
    for (std::size_t u : sub.order) {
      const Length self = (u >= 1 && t.is_pin(u)) ? pl[u] : kNegInf;
      const auto cs = sub.children(u);
      Length top = kNegInf, second = kNegInf;
      std::int32_t top_child = kNoParent;
      for (std::int32_t c : cs) {
        const Length x = in[static_cast<std::size_t>(c)];
        if (x > top) {
          second = top;
          top = x;
          top_child = c;
        } else if (x > second) {
          second = x;
        }
      }
      const Length base = std::max(out[u], self);
      for (std::int32_t c : cs)
        out[static_cast<std::size_t>(c)] =
            std::max(base, c == top_child ? second : top);
    }
  }

  /// Delay if node v's subtree were shifted by `delta` (path lengths inside
  /// the subtree all change by delta; everything else is unchanged).
  Length delay_after_shift(std::size_t v, Length delta) const {
    const Length inside = in[v] == kNegInf ? kNegInf : in[v] + delta;
    return std::max<Length>(std::max(inside, out[v]), 0);
  }
};

// Uniform g x g grid over the tree's bounding box: nodes bucketed by cell,
// every edge (c, parent(c)) registered in each cell its box overlaps, both
// as CSR arrays in ascending id order.  Offsets from the box corner are
// unsigned and cells are found by division, so no cell arithmetic
// overflows while the box span fits a Length (which l1 already needs).
struct CellGrid {
  Point lo{};
  std::uint64_t span_x = 0, span_y = 0;  // box extent
  std::uint64_t cell_w = 1, cell_h = 1;  // cell extent
  std::size_t g = 1;
  std::vector<std::uint32_t> node_start, node_ids;
  std::vector<std::uint32_t> edge_start, edge_ids;
  std::vector<std::size_t> edge_stamp;  // last v that tested edge c

  static std::uint64_t offset(geom::Coord x, geom::Coord x0) {
    return static_cast<std::uint64_t>(x) - static_cast<std::uint64_t>(x0);
  }
  std::size_t cx(geom::Coord x) const {
    return static_cast<std::size_t>(offset(x, lo.x) / cell_w);
  }
  std::size_t cy(geom::Coord y) const {
    return static_cast<std::size_t>(offset(y, lo.y) / cell_h);
  }
  std::size_t cell(const Point& p) const { return cy(p.y) * g + cx(p.x); }

  // Cells [first, last] along one axis covering [off - r, off + r] clamped
  // to [0, span] (off = offset of the centre from the box corner).
  static std::pair<std::size_t, std::size_t> window(std::uint64_t off,
                                                    std::uint64_t span,
                                                    std::uint64_t r,
                                                    std::uint64_t cell) {
    const std::uint64_t a = off > r ? off - r : 0;
    const std::uint64_t b = span - off > r ? off + r : span;
    return {static_cast<std::size_t>(a / cell),
            static_cast<std::size_t>(b / cell)};
  }

  void build(const RoutingTree& t) {
    const std::size_t n = t.num_nodes();
    g = 1;
    while (2 * g * g < n) ++g;
    Point hi = t.node(0);
    lo = hi;
    for (const Point& p : t.nodes()) {
      lo.x = std::min(lo.x, p.x);
      lo.y = std::min(lo.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
    span_x = offset(hi.x, lo.x);
    span_y = offset(hi.y, lo.y);
    // span / cell < g for cell = span / g + 1 (span < 2^63: no wrap).
    cell_w = span_x / g + 1;
    cell_h = span_y / g + 1;
    const std::size_t cells = g * g;

    fill(node_start, cells + 1, 0);
    fill(node_ids, n, 0);
    for (std::size_t v = 0; v < n; ++v) ++node_start[cell(t.node(v)) + 1];
    counts_to_offsets(node_start);
    for (std::size_t v = 0; v < n; ++v)
      node_ids[node_start[cell(t.node(v))]++] = static_cast<std::uint32_t>(v);
    shift_back(node_start);

    // Edges: count per cell, then fill in ascending child order.
    fill(edge_start, cells + 1, 0);
    auto for_cells = [&](std::size_t c, auto&& f) {
      const Point& a = t.node(c);
      const Point& b = t.node(static_cast<std::size_t>(t.parent(c)));
      const std::size_t x1 = cx(std::max(a.x, b.x));
      const std::size_t y1 = cy(std::max(a.y, b.y));
      for (std::size_t y = cy(std::min(a.y, b.y)); y <= y1; ++y)
        for (std::size_t x = cx(std::min(a.x, b.x)); x <= x1; ++x)
          f(y * g + x);
    };
    for (std::size_t c = 1; c < n; ++c)
      for_cells(c, [&](std::size_t k) { ++edge_start[k + 1]; });
    counts_to_offsets(edge_start);
    fill(edge_ids, edge_start[cells], 0);
    for (std::size_t c = 1; c < n; ++c)
      for_cells(c, [&](std::size_t k) {
        edge_ids[edge_start[k]++] = static_cast<std::uint32_t>(c);
      });
    shift_back(edge_start);
    fill(edge_stamp, n, 0);
  }
};

// Buffers of one refine() call, reused by all of its passes.
struct RefineScratch {
  DelayOracle oracle;
  CellGrid grid;
  // Steinerization's live children lists: singly linked from `head`
  // through `next`, each in ascending id order.
  std::vector<std::int32_t> head, next;
};

Length steinerize(RoutingTree& t, RefineScratch& s) {
  constexpr std::int32_t kNone = -1;
  const std::size_t n0 = t.num_nodes();
  fill(s.head, n0, kNone);
  fill(s.next, n0, kNone);
  // Prepending in descending id order leaves every list ascending.
  for (std::size_t v = n0; v-- > 0;) {
    if (t.parent(v) == kNoParent) continue;
    const auto p = static_cast<std::size_t>(t.parent(v));
    s.next[v] = s.head[p];
    s.head[p] = static_cast<std::int32_t>(v);
  }
  auto at = [](std::int32_t v) { return static_cast<std::size_t>(v); };

  Length saved = 0;
  std::uint64_t merges = 0;
  // Nodes below p keep their children and positions across a merge at p,
  // so none of them gains a positive merge: the scan resumes at p.
  for (std::size_t p = 0; p < t.num_nodes();) {
    Length best_gain = 0;
    std::int32_t bi = kNone, bj = kNone;
    Point best_s{};
    for (std::int32_t i = s.head[p]; i != kNone; i = s.next[at(i)]) {
      for (std::int32_t j = s.next[at(i)]; j != kNone; j = s.next[at(j)]) {
        const Point m = median3(t.node(p), t.node(at(i)), t.node(at(j)));
        const Length gain = geom::l1(t.node(p), m);
        if (gain > best_gain) {
          best_gain = gain;
          bi = i;
          bj = j;
          best_s = m;
        }
      }
    }
    if (best_gain == 0) {
      ++p;
      continue;
    }
    // The median lies on monotone p->bi and p->bj paths, so both
    // children's path lengths (hence the delay) are unchanged while the
    // shared prefix p->m is now billed once instead of twice.
    const auto m = static_cast<std::int32_t>(
        t.add_steiner(best_s, static_cast<std::int32_t>(p)));
    t.set_parent(at(bi), m);
    t.set_parent(at(bj), m);
    saved += best_gain;
    ++merges;
    // p's list drops bi and bj and appends m, the largest id; m's list is
    // {bi, bj}, ascending because bi precedes bj in p's list.  This is the
    // list RoutingTree::children() would rebuild.
    std::int32_t prev = kNone;
    for (std::int32_t c = s.head[p]; c != kNone;) {
      const std::int32_t nc = s.next[at(c)];
      if (c == bi || c == bj) {
        (prev == kNone ? s.head[p] : s.next[at(prev)]) = nc;
      } else {
        prev = c;
      }
      c = nc;
    }
    (prev == kNone ? s.head[p] : s.next[at(prev)]) = m;
    s.head.push_back(bi);
    s.next.push_back(kNone);
    s.next[at(bi)] = bj;
    s.next[at(bj)] = kNone;
  }
  PL_COUNT("refine.steiner_merges", merges);
  return saved;
}

bool edge_substitution_pass(RoutingTree& t, RefineMode mode,
                            RefineScratch& s) {
  DelayOracle& oracle = s.oracle;
  oracle.build(t);
  CellGrid& grid = s.grid;
  grid.build(t);
  const Length w0 = oracle.w0;
  const Length d0 = oracle.d0;

  auto accept = [&](Length w, Length d) {
    switch (mode) {
      case RefineMode::kWirelength:
        return w < w0 && d <= d0;
      case RefineMode::kDelay:
        return d < d0 && w <= w0;
      case RefineMode::kEither:
        return (w < w0 && d <= d0) || (d < d0 && w <= w0);
    }
    return false;
  };

  struct Move {
    std::size_t v = 0;
    bool via_edge = false;
    std::size_t target = 0;  // new parent, or the child of the split edge
    Point q{};               // split point when via_edge
    Length gain = 0;         // (w0 - w) + (d0 - d)
  };
  bool have_move = false;
  std::uint64_t evaluated = 0;  // flushed once per pass, not per candidate
  Move best;
  // The ranking key: gain descending, then v, node before edge, target id.
  auto offer = [&](Length w, Length d, Move m) {
    if (!accept(w, d)) return;
    m.gain = (w0 - w) + (d0 - d);
    if (have_move) {
      if (m.gain != best.gain) {
        if (m.gain < best.gain) return;
      } else if (m.v != best.v) {
        if (m.v > best.v) return;
      } else if (m.via_edge != best.via_edge) {
        if (m.via_edge) return;
      } else if (m.target > best.target) {
        return;
      }
    }
    best = m;
    have_move = true;
  };

  const std::size_t g = grid.g;
  for (std::size_t v = 1; v < t.num_nodes(); ++v) {
    const auto old_parent = static_cast<std::size_t>(t.parent(v));
    const Point pv = t.node(v);
    const Length old_len = geom::l1(pv, t.node(old_parent));
    const auto r = static_cast<std::uint64_t>(old_len);
    const auto [x0, x1] = CellGrid::window(CellGrid::offset(pv.x, grid.lo.x),
                                           grid.span_x, r, grid.cell_w);
    const auto [y0, y1] = CellGrid::window(CellGrid::offset(pv.y, grid.lo.y),
                                           grid.span_y, r, grid.cell_h);

    // Candidate 1: re-parent to a node outside subtree(v).  The cells of
    // one grid row are contiguous in the CSR arrays.
    for (std::size_t y = y0; y <= y1; ++y) {
      const std::uint32_t end = grid.node_start[y * g + x1 + 1];
      for (std::uint32_t k = grid.node_start[y * g + x0]; k < end; ++k) {
        const std::size_t u = grid.node_ids[k];
        if (u == old_parent || oracle.sub.contains(v, u)) continue;
        const Length len = geom::l1(pv, t.node(u));
        if (len > old_len) continue;  // w > w0: no mode accepts it
        ++evaluated;
        const Length delta = (oracle.pl[u] + len) - oracle.pl[v];
        offer(w0 - old_len + len, oracle.delay_after_shift(v, delta),
              Move{v, false, u, {}, 0});
      }
    }

    // Candidate 2: attach inside an existing edge (c -> parent(c)): split
    // the edge at the projection q of v onto BB(c, parent(c)); q lies on a
    // monotone realization, so splitting adds no wirelength.
    for (std::size_t y = y0; y <= y1; ++y) {
      const std::uint32_t end = grid.edge_start[y * g + x1 + 1];
      for (std::uint32_t k = grid.edge_start[y * g + x0]; k < end; ++k) {
        const std::size_t c = grid.edge_ids[k];
        if (grid.edge_stamp[c] == v) continue;  // seen in another cell
        grid.edge_stamp[c] = v;
        if (c == v) continue;
        // p inside subtree(v) puts its child c there too, so c alone
        // decides.
        if (oracle.sub.contains(v, c)) continue;
        const auto p = static_cast<std::size_t>(t.parent(c));
        geom::BBox bb;
        bb.expand(t.node(c));
        bb.expand(t.node(p));
        const Point q = bb.project(pv);
        if (q == t.node(c) || q == t.node(p)) continue;  // covered by case 1
        const Length len = geom::l1(pv, q);
        if (len > old_len) continue;  // w > w0: no mode accepts it
        ++evaluated;
        const Length pl_q = oracle.pl[p] + geom::l1(t.node(p), q);
        const Length delta = (pl_q + len) - oracle.pl[v];
        offer(w0 - old_len + len, oracle.delay_after_shift(v, delta),
              Move{v, true, c, q, 0});
      }
    }
  }

  PL_COUNT("refine.moves_evaluated", evaluated);
  if (!have_move) return false;
  PL_COUNT("refine.moves_accepted", 1);
  if (best.via_edge) {
    const auto c = best.target;
    const auto p = t.parent(c);
    const auto q = t.add_steiner(best.q, p);
    t.set_parent(c, static_cast<std::int32_t>(q));
    t.set_parent(best.v, static_cast<std::int32_t>(q));
  } else {
    t.set_parent(best.v, static_cast<std::int32_t>(best.target));
  }
  return true;
}

}  // namespace

void SubtreeIntervals::build(const RoutingTree& t) {
  const std::size_t n = t.num_nodes();
  // Children as CSR, filled in ascending id order.
  fill(child_start, n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    if (t.parent(v) != kNoParent)
      ++child_start[static_cast<std::size_t>(t.parent(v)) + 1];
  counts_to_offsets(child_start);
  fill(child, child_start[n], 0);
  for (std::size_t v = 0; v < n; ++v)
    if (t.parent(v) != kNoParent)
      child[child_start[static_cast<std::size_t>(t.parent(v))]++] =
          static_cast<std::int32_t>(v);
  shift_back(child_start);

  order.clear();
  room(order, n);
  fill(pre, n, 0);
  fill(size, n, 0);
  // Stack DFS from every parentless node in index order (node 0 first):
  // a node's whole subtree is popped before anything below it on the
  // stack, so every subtree is one contiguous run of `order`.
  stack.clear();
  room(stack, n);
  for (std::size_t r = 0; r < n; ++r) {
    if (t.parent(r) != kNoParent) continue;
    stack.push_back(r);
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      pre[u] = order.size();
      order.push_back(u);
      for (std::int32_t c : children(u))
        stack.push_back(static_cast<std::size_t>(c));
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t u = *it;
    ++size[u];
    if (t.parent(u) != kNoParent)
      size[static_cast<std::size_t>(t.parent(u))] += size[u];
  }
}

Length steinerize(RoutingTree& t) {
  RefineScratch s;
  return steinerize(t, s);
}

bool edge_substitution_pass(RoutingTree& t, RefineMode mode) {
  RefineScratch s;
  return edge_substitution_pass(t, mode, s);
}

void refine(RoutingTree& t, RefineMode mode, int max_passes) {
  RefineScratch s;
  t.normalize();
  steinerize(t, s);
  for (int pass = 0; pass < max_passes; ++pass) {
    if (!edge_substitution_pass(t, mode, s)) break;
    steinerize(t, s);
  }
  t.normalize();
}

std::vector<RoutingTree> refined_variants(const RoutingTree& t) {
  std::vector<RoutingTree> out;
  for (const RefineMode mode :
       {RefineMode::kWirelength, RefineMode::kDelay, RefineMode::kEither}) {
    RoutingTree v = t;
    refine(v, mode);
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace patlabor::tree
