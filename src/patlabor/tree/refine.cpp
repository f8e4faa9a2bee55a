#include "patlabor/tree/refine.hpp"

#include <algorithm>
#include <limits>

#include "patlabor/geom/box.hpp"
#include "patlabor/obs/obs.hpp"

namespace patlabor::tree {

namespace {

constexpr Length kNegInf = std::numeric_limits<Length>::min() / 4;

Point median3(const Point& a, const Point& b, const Point& c) {
  auto med = [](geom::Coord x, geom::Coord y, geom::Coord z) {
    return std::max(std::min(x, y), std::min(std::max(x, y), z));
  };
  return Point{med(a.x, b.x, c.x), med(a.y, b.y, c.y)};
}

// Per-pass scratch arrays for O(1) delay evaluation of a re-parenting move.
struct DelayOracle {
  std::vector<Length> pl;    // root->node path lengths
  std::vector<Length> in;    // max pl over sink pins inside subtree(v)
  std::vector<Length> out;   // max pl over sink pins outside subtree(v)

  SubtreeIntervals sub;      // preorder intervals: O(1) subtree test

  void build(const RoutingTree& t) {
    pl = t.path_lengths();
    const std::size_t n = t.num_nodes();
    in.assign(n, kNegInf);
    out.assign(n, kNegInf);
    const auto ch = t.children();
    sub.build(t, ch);
    // in[] by reverse topological order: process children before parents.
    for (auto it = sub.order.rbegin(); it != sub.order.rend(); ++it) {
      const std::size_t u = *it;
      if (u >= 1 && t.is_pin(u)) in[u] = pl[u];
      for (std::int32_t c : ch[u])
        in[u] = std::max(in[u], in[static_cast<std::size_t>(c)]);
    }
    // out[] top-down.
    for (std::size_t u : sub.order) {
      const Length self = (u >= 1 && t.is_pin(u)) ? pl[u] : kNegInf;
      // Prefix/suffix maxima over children to exclude one child at a time.
      const auto& cs = ch[u];
      std::vector<Length> pre(cs.size() + 1, kNegInf);
      std::vector<Length> suf(cs.size() + 1, kNegInf);
      for (std::size_t i = 0; i < cs.size(); ++i)
        pre[i + 1] =
            std::max(pre[i], in[static_cast<std::size_t>(cs[i])]);
      for (std::size_t i = cs.size(); i-- > 0;)
        suf[i] = std::max(suf[i + 1], in[static_cast<std::size_t>(cs[i])]);
      for (std::size_t i = 0; i < cs.size(); ++i) {
        const auto c = static_cast<std::size_t>(cs[i]);
        out[c] = std::max({out[u], self, pre[i], suf[i + 1]});
      }
    }
  }

  /// Delay if node v's subtree were shifted by `delta` (path lengths inside
  /// the subtree all change by delta; everything else is unchanged).
  Length delay_after_shift(std::size_t v, Length delta) const {
    const Length inside = in[v] == kNegInf ? kNegInf : in[v] + delta;
    return std::max<Length>(std::max(inside, out[v]), 0);
  }
};

}  // namespace

void SubtreeIntervals::build(
    const RoutingTree& t,
    const std::vector<std::vector<std::int32_t>>& children) {
  const std::size_t n = t.num_nodes();
  order.clear();
  order.reserve(n);
  pre.assign(n, 0);
  size.assign(n, 0);
  // Stack DFS from every parentless node in index order (node 0 first):
  // a node's whole subtree is popped before anything below it on the
  // stack, so every subtree is one contiguous run of `order`.
  std::vector<std::size_t> stack;
  for (std::size_t r = 0; r < n; ++r) {
    if (t.parent(r) != kNoParent) continue;
    stack.push_back(r);
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      pre[u] = order.size();
      order.push_back(u);
      for (std::int32_t c : children[u])
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
  Length saved = 0;
  std::uint64_t merges = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto ch = t.children();
    for (std::size_t p = 0; p < t.num_nodes(); ++p) {
      const auto& cs = ch[p];
      if (cs.size() < 2) continue;
      Length best_gain = 0;
      std::size_t bi = 0, bj = 0;
      Point best_s{};
      for (std::size_t i = 0; i < cs.size(); ++i) {
        for (std::size_t j = i + 1; j < cs.size(); ++j) {
          const Point s = median3(t.node(p),
                                  t.node(static_cast<std::size_t>(cs[i])),
                                  t.node(static_cast<std::size_t>(cs[j])));
          const Length gain = geom::l1(t.node(p), s);
          if (gain > best_gain) {
            best_gain = gain;
            bi = static_cast<std::size_t>(cs[i]);
            bj = static_cast<std::size_t>(cs[j]);
            best_s = s;
          }
        }
      }
      if (best_gain > 0) {
        // The median lies on monotone p->ci and p->cj paths, so both
        // children's path lengths (hence the delay) are unchanged while the
        // shared prefix p->s is now billed once instead of twice.
        const auto s =
            t.add_steiner(best_s, static_cast<std::int32_t>(p));
        t.set_parent(bi, static_cast<std::int32_t>(s));
        t.set_parent(bj, static_cast<std::int32_t>(s));
        saved += best_gain;
        ++merges;
        changed = true;
        break;  // children lists are stale; rescan
      }
    }
  }
  PL_COUNT("refine.steiner_merges", merges);
  return saved;
}

bool edge_substitution_pass(RoutingTree& t, RefineMode mode) {
  DelayOracle oracle;
  oracle.build(t);
  const Length w0 = t.wirelength();
  const Length d0 = t.delay();

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
    std::size_t attach_edge_child = 0;  // meaningful when via_edge
    bool via_edge = false;
    std::size_t new_parent = 0;  // node id when !via_edge
    Point q{};                   // split point when via_edge
    Length w = 0, d = 0;
  };
  bool have_move = false;
  std::uint64_t evaluated = 0;  // flushed once per pass, not per candidate
  Move best;
  // Preference: maximize the summed improvement.
  auto better = [&](const Move& m) {
    if (!have_move) return true;
    return (w0 - m.w) + (d0 - m.d) > (w0 - best.w) + (d0 - best.d);
  };

  for (std::size_t v = 1; v < t.num_nodes(); ++v) {
    const auto old_parent = static_cast<std::size_t>(t.parent(v));
    const Length old_len = geom::l1(t.node(v), t.node(old_parent));

    // Candidate 1: re-parent to any node outside subtree(v).
    for (std::size_t u = 0; u < t.num_nodes(); ++u) {
      if (u == old_parent || oracle.sub.contains(v, u)) continue;
      ++evaluated;
      const Length len = geom::l1(t.node(v), t.node(u));
      if (len > old_len) continue;  // w > w0: no mode accepts it
      const Length w = w0 - old_len + len;
      const Length delta = (oracle.pl[u] + len) - oracle.pl[v];
      const Length d = oracle.delay_after_shift(v, delta);
      if (accept(w, d)) {
        Move m{v, 0, false, u, {}, w, d};
        if (better(m)) {
          best = m;
          have_move = true;
        }
      }
    }

    // Candidate 2: attach inside an existing edge (c -> parent(c)): split
    // the edge at the projection q of v onto BB(c, parent(c)); q lies on a
    // monotone realization, so splitting adds no wirelength.
    for (std::size_t c = 1; c < t.num_nodes(); ++c) {
      if (c == v) continue;
      const auto p = static_cast<std::size_t>(t.parent(c));
      // p inside subtree(v) puts its child c there too, so c alone decides.
      if (oracle.sub.contains(v, c)) continue;
      geom::BBox bb;
      bb.expand(t.node(c));
      bb.expand(t.node(p));
      const Point q = bb.project(t.node(v));
      if (q == t.node(c) || q == t.node(p)) continue;  // covered by case 1
      ++evaluated;
      const Length len = geom::l1(t.node(v), q);
      if (len > old_len) continue;  // w > w0: no mode accepts it
      const Length w = w0 - old_len + len;
      const Length pl_q = oracle.pl[p] + geom::l1(t.node(p), q);
      const Length delta = (pl_q + len) - oracle.pl[v];
      const Length d = oracle.delay_after_shift(v, delta);
      if (accept(w, d)) {
        Move m{v, c, true, 0, q, w, d};
        if (better(m)) {
          best = m;
          have_move = true;
        }
      }
    }
  }

  PL_COUNT("refine.moves_evaluated", evaluated);
  if (!have_move) return false;
  PL_COUNT("refine.moves_accepted", 1);
  if (best.via_edge) {
    const auto c = best.attach_edge_child;
    const auto p = t.parent(c);
    const auto q = t.add_steiner(best.q, p);
    t.set_parent(c, static_cast<std::int32_t>(q));
    t.set_parent(best.v, static_cast<std::int32_t>(q));
  } else {
    t.set_parent(best.v, static_cast<std::int32_t>(best.new_parent));
  }
  return true;
}

void refine(RoutingTree& t, RefineMode mode, int max_passes) {
  t.normalize();
  steinerize(t);
  for (int pass = 0; pass < max_passes; ++pass) {
    if (!edge_substitution_pass(t, mode)) break;
    steinerize(t);
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
