#include "patlabor/dw/pareto_dw.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <span>
#include <utility>

#include "patlabor/geom/box.hpp"
#include "patlabor/geom/hanan.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/util/arena.hpp"

namespace patlabor::dw {

using geom::BBox;
using geom::HananGrid;
using geom::Length;
using geom::Net;
using geom::NodeId;
using geom::Point;
using pareto::Objective;
using tree::RoutingTree;

namespace {

// Provenance of a DP entry, for tree reconstruction.
//
// Each state (v, mask) keeps two Pareto sets as {offset, count} spans into
// shared append-only arenas (see util/arena.hpp):
//   base:  Pareto set of the merge phase (and leaf base case); entries
//          reference `final` spans of strictly smaller masks.
//   final: Pareto set of base ∪ grow candidates; grow entries reference the
//          `base` span of their origin node at the same mask, copy entries
//          reference `base` of the same state.  One hop from the origin
//          reaches the closure because L1 obeys the triangle inequality;
//          the grow sweeps relay through other nodes but record only the
//          origin.
//
// Neither phase enumerates Eq. (1)'s candidate sets.  Merge walks each
// partition's sum–max product as a two-pointer staircase and folds it into
// a running staircase (see fold_product).  Grow is a Pareto L1 distance
// transform: a row sweep and a column sweep of running staircases over the
// box of nodes holding a base set (see Solver::grow).  Both keep exactly
// the survivors of a lowest-index Pareto filter over Eq. (1)'s candidates
// in enumeration order, and among equal objectives that filter's choice of
// provenance, so the trees are those of the enumerating DP.  Both arenas
// live for the whole solve: reconstruction traverses spans of every mask.
struct BaseEntry {
  Objective obj;
  std::uint32_t sub = 0;   // merge: one side of the partition; 0 => leaf
  std::int32_t ia = -1;    // merge: index into final(v, sub)
  std::int32_t ib = -1;    // merge: index into final(v, mask^sub)
};

struct FinalEntry {
  Objective obj;
  NodeId from = -1;        // grow origin; -1 => copy of own base entry
  std::int32_t idx = -1;   // index into base(from or v, mask)
};

struct State {
  util::ArenaSpan base;
  util::ArenaSpan final_;
};

// Rank among equal objectives: the order in which Eq. (1) lists the grow
// candidates of a node, own base entries (from = -1) first, then origins by
// NodeId, then index.  The lowest rank survives.  Merge entries need no
// rank: the earlier partition wins (see fold_product).
bool before(const FinalEntry& x, const FinalEntry& y) {
  if (x.obj != y.obj) return x.obj < y.obj;
  return x.from != y.from ? x.from < y.from : x.idx < y.idx;
}

// Appends Pareto(in[0] ∪ … ∪ in[K-1]) + len to `out` in staircase order.
// Every input is a strict staircase and none may live in `out`; among
// equal objectives the entry ranked first by before() survives.
template <std::size_t K, typename Out>
void merge_staircases(const std::array<std::span<const FinalEntry>, K>& in,
                      Length len, Out& out) {
  std::array<const FinalEntry*, K> cur;
  std::array<const FinalEntry*, K> end;
  std::size_t n = 0;  // non-empty inputs, compacted to the front
  for (const auto& row : in) {
    if (row.empty()) continue;
    cur[n] = row.data();
    end[n] = row.data() + row.size();
    ++n;
  }
  Length best_d = std::numeric_limits<Length>::max();
  while (n > 1) {
    std::size_t pick = 0;
    for (std::size_t k = 1; k < n; ++k)
      if (before(*cur[k], *cur[pick])) pick = k;
    FinalEntry e = *cur[pick]++;
    if (cur[pick] == end[pick]) {
      --n;
      cur[pick] = cur[n];
      end[pick] = end[n];
    }
    if (e.obj.d >= best_d) continue;
    best_d = e.obj.d;
    e.obj.w += len;
    e.obj.d += len;
    out.push_back(e);
  }
  // One input left: its tail below best_d is already a strict staircase.
  if (n == 1) {
    for (const FinalEntry* p = cur[0]; p != end[0]; ++p) {
      if (p->obj.d >= best_d) continue;
      out.push_back(
          FinalEntry{Objective{p->obj.w + len, p->obj.d + len}, p->from,
                     p->idx});
    }
  }
}

// True when some entry of the staircase `run` is no worse than (w, d) in
// both objectives.  (w, d) is the ideal point of a partition's product, so
// no pair of the product can survive `run` or win a tie against it.
bool covers(std::span<const BaseEntry> run, Length w, Length d) {
  const auto it = std::upper_bound(
      run.begin(), run.end(), w,
      [](Length x, const BaseEntry& e) { return x < e.obj.w; });
  return it != run.begin() && std::prev(it)->obj.d <= d;
}

// out ← Pareto(run ∪ (A ⊕ B)) for two strict staircases A and B, without
// enumerating the pairs; run's entries win ties (earlier partitions).  A
// pair's delay is the larger of its sides', so only advancing that side
// (both on a tie) can lower it.  The walk yields a strict staircase of at
// most |A| + |B| pairs, exactly the Pareto-optimal ones, so each optimal
// objective of A ⊕ B comes from a single pair.
void fold_product(std::span<const BaseEntry> run,
                  std::span<const FinalEntry> fa,
                  std::span<const FinalEntry> fb, std::uint32_t sub,
                  std::vector<BaseEntry>& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t a = 0;
  std::size_t b = 0;
  Length best_d = std::numeric_limits<Length>::max();
  for (;;) {
    const bool pair = a < fa.size() && b < fb.size();
    BaseEntry e;
    if (pair) {
      e = BaseEntry{Objective{fa[a].obj.w + fb[b].obj.w,
                              std::max(fa[a].obj.d, fb[b].obj.d)},
                    sub, static_cast<std::int32_t>(a),
                    static_cast<std::int32_t>(b)};
    }
    if (i < run.size() && (!pair || !(e.obj < run[i].obj))) {
      e = run[i++];
    } else if (pair) {
      const Length da = fa[a].obj.d;
      const Length db = fb[b].obj.d;
      if (da >= db) ++a;
      if (db >= da) ++b;
    } else {
      return;
    }
    if (e.obj.d >= best_d) continue;
    best_d = e.obj.d;
    out.push_back(e);
  }
}

// Per-mask rows of the grow sweeps: one staircase per grid node, stored
// flat.  Cleared every mask; capacity persists.
struct RowPool {
  util::Arena<FinalEntry> entries;
  std::vector<util::ArenaSpan> at;  // per grid node; empty unless written

  void reset(std::size_t nodes) {
    entries.clear();
    at.assign(nodes, util::ArenaSpan{});
  }
  std::span<const FinalEntry> operator[](NodeId v) const {
    return entries.view(at[static_cast<std::size_t>(v)]);
  }
};

}  // namespace

/// The reusable half of the solver: everything whose capacity survives a
/// solve.  Cleared (cheaply — clear() keeps capacity) by the Solver ctor,
/// so a stale scratch can never leak results into the next solve.
struct DwScratch::Impl {
  std::vector<NodeId> active;      // nodes surviving corner pruning
  std::vector<char> is_active;     // per grid node
  std::vector<NodeId> sink_node;   // grid node of each sink
  std::vector<State> states;
  util::Arena<BaseEntry> base_arena;
  util::Arena<FinalEntry> final_arena;
  // Merge phase: the running staircase over the partitions so far.
  std::vector<BaseEntry> merged, merged_next;
  // Grow phase (see Solver::grow), per-node rows of one mask:
  RowPool src;      // base(v) tagged from = v
  RowPool left;     // origins left of v in its row
  RowPool hx;       // origins of v's row other than v
  RowPool up;       // origins of the rows below v, via v's column
  RowPool closure;  // every origin, at a node outside nodes clamp to
  std::vector<char> row_has_base;   // per Hanan row
  std::vector<char> needs_closure;  // per grid node
  // The running sweep staircase and a node's own base tagged from = -1.
  std::vector<FinalEntry> run, run_next, own;
};

DwScratch::DwScratch() : impl_(std::make_unique<Impl>()) {}
DwScratch::~DwScratch() = default;
DwScratch::DwScratch(DwScratch&&) noexcept = default;
DwScratch& DwScratch::operator=(DwScratch&&) noexcept = default;

namespace {

// Grid-index box [x0, x1] × [y0, y1]; empty until the first expand().
struct IndexBox {
  int x0 = std::numeric_limits<int>::max();
  int x1 = -1;
  int y0 = std::numeric_limits<int>::max();
  int y1 = -1;

  bool empty() const { return x1 < x0; }
  void expand(int x, int y) {
    x0 = std::min(x0, x);
    x1 = std::max(x1, x);
    y0 = std::min(y0, y);
    y1 = std::max(y1, y);
  }
  bool contains(int x, int y) const {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }
};

class Solver {
 public:
  Solver(const Net& net, const ParetoDwOptions& options, DwScratch::Impl& s)
      : net_(net), options_(options), grid_(net.pins), s_(s) {
    s_.active.clear();
    s_.base_arena.clear();
    s_.final_arena.clear();
  }

  ParetoDwResult run();

 private:
  State& state(NodeId v, std::uint32_t mask) {
    return s_.states[static_cast<std::size_t>(v) * (full_ + 1) + mask];
  }
  const State& state(NodeId v, std::uint32_t mask) const {
    return s_.states[static_cast<std::size_t>(v) * (full_ + 1) + mask];
  }

  void solve_mask(std::uint32_t mask);
  void grow(std::uint32_t mask, const IndexBox& box);
  void advance(std::span<const FinalEntry> a, std::span<const FinalEntry> b,
               Length len);
  void commit_final(NodeId v, std::uint32_t mask,
                    const std::array<std::span<const FinalEntry>, 4>& rows,
                    Length len);
  void reconstruct_base(NodeId v, std::uint32_t mask, std::int32_t idx,
                        std::vector<std::pair<Point, Point>>& edges) const;
  void reconstruct_final(NodeId v, std::uint32_t mask, std::int32_t idx,
                         std::vector<std::pair<Point, Point>>& edges) const;

  const Net& net_;
  ParetoDwOptions options_;
  HananGrid grid_;
  std::uint32_t full_ = 0;
  DwScratch::Impl& s_;  // reusable storage (arenas, states, scratch rows)
  std::uint64_t created_ = 0;
  std::uint64_t merge_cands_ = 0;  // |Eq. (1) merge candidates|, closed form
  std::uint64_t grow_cands_ = 0;   // |Eq. (1) grow candidates|, closed form
  std::uint64_t kept_ = 0;         // entries surviving the Pareto filters
};

void Solver::solve_mask(std::uint32_t mask) {
  const std::size_t nsinks = net_.degree() - 1;

  // Bounding box of the sinks in `mask` (Lemma 3 restriction).
  BBox bb;
  for (std::size_t i = 0; i < nsinks; ++i)
    if (mask & (1u << i)) bb.expand(net_.pins[i + 1]);

  // ---- Merge phase (or leaf base case) ----
  // Partitions in enumeration order (sub descending, the canonical side
  // holds the lowest bit); earlier partitions win ties.
  IndexBox box;  // grid box of the nodes that hold a base set
  std::uint64_t base_total = 0;
  for (NodeId v : s_.active) {
    const Point pv = grid_.point(v);
    if (options_.bbox_restriction && !bb.contains(pv)) continue;
    State& st = state(v, mask);
    if ((mask & (mask - 1)) == 0) {
      const std::size_t i = static_cast<std::size_t>(std::countr_zero(mask));
      const Length len = grid_.dist(v, s_.sink_node[i]);
      const std::uint32_t m = s_.base_arena.mark();
      s_.base_arena.push_back(BaseEntry{Objective{len, len}, 0, -1, -1});
      st.base = s_.base_arena.since(m);
      ++created_;
    } else {
      s_.merged.clear();
      const std::uint32_t low = mask & (~mask + 1);
      for (std::uint32_t sub = (mask - 1) & mask; sub > 0;
           sub = (sub - 1) & mask) {
        if (!(sub & low)) continue;
        const auto fa = s_.final_arena.view(state(v, sub).final_);
        const auto fb = s_.final_arena.view(state(v, mask ^ sub).final_);
        merge_cands_ += std::uint64_t{fa.size()} * fb.size();
        if (fa.empty() || fb.empty() ||
            covers(s_.merged, fa.front().obj.w + fb.front().obj.w,
                   std::max(fa.back().obj.d, fb.back().obj.d)))
          continue;
        fold_product(s_.merged, fa, fb, sub, s_.merged_next);
        s_.merged.swap(s_.merged_next);
      }
      const std::uint32_t m = s_.base_arena.mark();
      for (const BaseEntry& e : s_.merged) s_.base_arena.push_back(e);
      st.base = s_.base_arena.since(m);
      created_ += st.base.size();
      kept_ += st.base.size();
    }
    if (!st.base.empty()) {
      box.expand(grid_.x_index(v), grid_.y_index(v));
      base_total += st.base.size();
    }
  }

  // ---- Grow phase: one L1-closure round from every base set ----
  grow_cands_ += s_.active.size() * base_total;
  grow(mask, box);
}

// run ← Pareto(run ∪ a ∪ b) + len: one step of a sweep.
void Solver::advance(std::span<const FinalEntry> a,
                     std::span<const FinalEntry> b, Length len) {
  if (a.empty() && b.empty()) {
    for (FinalEntry& e : s_.run) {
      e.obj.w += len;
      e.obj.d += len;
    }
    return;
  }
  s_.run_next.clear();
  merge_staircases<3>({s_.run, a, b}, len, s_.run_next);
  s_.run.swap(s_.run_next);
}

void Solver::commit_final(
    NodeId v, std::uint32_t mask,
    const std::array<std::span<const FinalEntry>, 4>& rows, Length len) {
  State& st = state(v, mask);
  const std::uint32_t m = s_.final_arena.mark();
  merge_staircases<4>(rows, len, s_.final_arena);
  st.final_ = s_.final_arena.since(m);
  created_ += st.final_.size();
  kept_ += st.final_.size();
}

// The grow closure final(v) = Pareto(own(v) ∪ ⋃_{u≠v} base(u) + |uv|) as a
// Pareto L1 distance transform.  L1 is separable, so inside the box B of
// the nodes holding a base set:
//   rows:    sweeping a running staircase left and right along each Hanan
//            row, shifting by every x gap and merging in each node's base
//            set (tagged from = node), gives hx(v), the origins of v's row
//            other than v;
//   columns: sweeping hin(w) = hx(w) ∪ base(w) up and down each column
//            gives up(v) and down(v), the origins of the other rows;
//   final(v) = own(v) ∪ hx(v) ∪ up(v) ∪ down(v), own tagged from = -1.
// Sweeps relay through corner-pruned nodes, but only active nodes commit,
// so every entry still names its origin and reconstruction emits the
// single edge v → from.  An origin never returns to itself along a sweep.
// An active v outside B reaches every origin u through p = clamp(v, B),
// since |uv| = |up| + |pv|: final(v) = closure(p) + |pv|, where closure(p)
// tags p's own base set from = p, not -1.
void Solver::grow(std::uint32_t mask, const IndexBox& box) {
  assert(!box.empty() && "a mask's sink nodes always hold a base set");
  const std::size_t nodes = static_cast<std::size_t>(grid_.num_nodes());
  for (RowPool* pool : {&s_.src, &s_.left, &s_.hx, &s_.up, &s_.closure})
    pool->reset(nodes);
  s_.row_has_base.assign(static_cast<std::size_t>(grid_.ny()), 0);
  s_.needs_closure.assign(nodes, 0);
  const auto clamp = [&](int x, int y) {
    return grid_.node(std::clamp(x, box.x0, box.x1),
                      std::clamp(y, box.y0, box.y1));
  };

  for (NodeId v : s_.active) {
    const int x = grid_.x_index(v);
    const int y = grid_.y_index(v);
    if (box.contains(x, y)) {
      const auto base = s_.base_arena.view(state(v, mask).base);
      if (base.empty()) continue;
      const std::uint32_t m = s_.src.entries.mark();
      for (std::size_t i = 0; i < base.size(); ++i)
        s_.src.entries.push_back(
            FinalEntry{base[i].obj, v, static_cast<std::int32_t>(i)});
      s_.src.at[static_cast<std::size_t>(v)] = s_.src.entries.since(m);
      s_.row_has_base[static_cast<std::size_t>(y)] = 1;
    } else {
      s_.needs_closure[static_cast<std::size_t>(clamp(x, y))] = 1;
    }
  }

  const auto xg = grid_.x_gaps();
  const auto yg = grid_.y_gaps();
  // Row sweeps: left(v), then hx(v) = left(v) ∪ right(v).
  for (int y = box.y0; y <= box.y1; ++y) {
    if (!s_.row_has_base[static_cast<std::size_t>(y)]) continue;
    s_.run.clear();
    for (int x = box.x0; x <= box.x1; ++x) {
      const NodeId v = grid_.node(x, y);
      if (!s_.run.empty()) {
        const std::uint32_t m = s_.left.entries.mark();
        for (const FinalEntry& e : s_.run) s_.left.entries.push_back(e);
        s_.left.at[static_cast<std::size_t>(v)] = s_.left.entries.since(m);
      }
      if (x < box.x1) advance(s_.src[v], {}, xg[static_cast<std::size_t>(x)]);
    }
    s_.run.clear();
    for (int x = box.x1; x >= box.x0; --x) {
      const NodeId v = grid_.node(x, y);
      const std::uint32_t m = s_.hx.entries.mark();
      merge_staircases<2>({s_.left[v], s_.run}, 0, s_.hx.entries);
      s_.hx.at[static_cast<std::size_t>(v)] = s_.hx.entries.since(m);
      if (x > box.x0)
        advance(s_.src[v], {}, xg[static_cast<std::size_t>(x - 1)]);
    }
  }

  // Column sweeps: up(v) going up; down(v) going down, where every node
  // in B that is active or a clamp target gets its final set or closure.
  for (int x = box.x0; x <= box.x1; ++x) {
    s_.run.clear();
    for (int y = box.y0; y <= box.y1; ++y) {
      const NodeId v = grid_.node(x, y);
      const std::size_t vi = static_cast<std::size_t>(v);
      if (!s_.run.empty() && (s_.is_active[vi] || s_.needs_closure[vi])) {
        const std::uint32_t m = s_.up.entries.mark();
        for (const FinalEntry& e : s_.run) s_.up.entries.push_back(e);
        s_.up.at[vi] = s_.up.entries.since(m);
      }
      if (y < box.y1)
        advance(s_.hx[v], s_.src[v], yg[static_cast<std::size_t>(y)]);
    }
    s_.run.clear();
    for (int y = box.y1; y >= box.y0; --y) {
      const NodeId v = grid_.node(x, y);
      const std::size_t vi = static_cast<std::size_t>(v);
      if (s_.is_active[vi]) {
        s_.own.clear();
        const auto base = s_.base_arena.view(state(v, mask).base);
        for (std::size_t i = 0; i < base.size(); ++i)
          s_.own.push_back(
              FinalEntry{base[i].obj, -1, static_cast<std::int32_t>(i)});
        commit_final(v, mask, {s_.own, s_.hx[v], s_.up[v], s_.run}, 0);
      }
      if (s_.needs_closure[vi]) {
        const std::uint32_t m = s_.closure.entries.mark();
        merge_staircases<4>({s_.src[v], s_.hx[v], s_.up[v], s_.run}, 0,
                            s_.closure.entries);
        s_.closure.at[vi] = s_.closure.entries.since(m);
      }
      if (y > box.y0)
        advance(s_.hx[v], s_.src[v], yg[static_cast<std::size_t>(y - 1)]);
    }
  }

  // Active nodes outside B: the clamp target's closure, shifted.
  for (NodeId v : s_.active) {
    const int x = grid_.x_index(v);
    const int y = grid_.y_index(v);
    if (box.contains(x, y)) continue;
    const NodeId p = clamp(x, y);
    commit_final(v, mask, {s_.closure[p], {}, {}, {}}, grid_.dist(v, p));
  }
}

void Solver::reconstruct_base(
    NodeId v, std::uint32_t mask, std::int32_t idx,
    std::vector<std::pair<Point, Point>>& edges) const {
  const BaseEntry& e =
      s_.base_arena.at(state(v, mask).base, static_cast<std::uint32_t>(idx));
  if (e.sub == 0) {
    const std::size_t i = static_cast<std::size_t>(std::countr_zero(mask));
    const NodeId s = s_.sink_node[i];
    if (s != v) edges.emplace_back(grid_.point(v), grid_.point(s));
    return;
  }
  reconstruct_final(v, e.sub, e.ia, edges);
  reconstruct_final(v, mask ^ e.sub, e.ib, edges);
}

void Solver::reconstruct_final(
    NodeId v, std::uint32_t mask, std::int32_t idx,
    std::vector<std::pair<Point, Point>>& edges) const {
  const FinalEntry& e =
      s_.final_arena.at(state(v, mask).final_, static_cast<std::uint32_t>(idx));
  if (e.from < 0) {
    reconstruct_base(v, mask, e.idx, edges);
    return;
  }
  edges.emplace_back(grid_.point(v), grid_.point(e.from));
  reconstruct_base(e.from, mask, e.idx, edges);
}

ParetoDwResult Solver::run() {
  PL_SPAN("dw.run");
  const std::size_t n = net_.degree();
  assert(n >= 2 && n <= 17 && "Pareto-DW is for small-degree nets");
  const std::size_t nsinks = n - 1;
  full_ = (1u << nsinks) - 1;

  // Node universe after Lemma 2 pruning.
  std::vector<bool> prunable(static_cast<std::size_t>(grid_.num_nodes()),
                             false);
  if (options_.corner_pruning) prunable = grid_.corner_prunable(net_.pins);
  s_.is_active.assign(prunable.size(), 0);
  for (NodeId v = 0; v < grid_.num_nodes(); ++v) {
    if (prunable[static_cast<std::size_t>(v)]) continue;
    s_.active.push_back(v);
    s_.is_active[static_cast<std::size_t>(v)] = 1;
  }

  s_.sink_node.resize(nsinks);
  for (std::size_t i = 0; i < nsinks; ++i)
    s_.sink_node[i] = grid_.node_at(net_.pins[i + 1]);

  s_.states.assign(static_cast<std::size_t>(grid_.num_nodes()) * (full_ + 1),
                 State{});

  for (std::uint32_t mask = 1; mask <= full_; ++mask) solve_mask(mask);

  const NodeId root = grid_.node_at(net_.pins[0]);
  const State& answer = state(root, full_);
  const auto answer_final = s_.final_arena.view(answer.final_);

  ParetoDwResult result;
  result.solutions_created = created_;
  // final_ sets are Pareto-filtered in objective order, so the collected
  // frontier already satisfies the staircase invariant.
  pareto::ObjVec frontier;
  frontier.reserve(answer_final.size());
  for (const FinalEntry& e : answer_final) frontier.push_back(e.obj);
  result.frontier = pareto::SolutionSet::adopt_staircase(std::move(frontier));
  if (options_.want_trees) {
    result.trees.reserve(answer_final.size());
    for (std::size_t i = 0; i < answer_final.size(); ++i) {
      std::vector<std::pair<Point, Point>> edges;
      reconstruct_final(root, full_, static_cast<std::int32_t>(i), edges);
      RoutingTree t = RoutingTree::from_edges(net_, edges);
      t.normalize();
      result.trees.push_back(std::move(t));
    }
  }
  // Hot-loop tallies are accumulated locally and flushed once per solve.
  PL_COUNT("dw.runs", 1);
  PL_COUNT("dw.states_expanded", created_);
  PL_COUNT("dw.merge_candidates", merge_cands_);
  PL_COUNT("dw.grow_candidates", grow_cands_);
  PL_COUNT("pareto.points_filtered", merge_cands_ + grow_cands_ - kept_);
  PL_HIST("dw.frontier_size", result.frontier.size());
  return result;
}

}  // namespace

ParetoDwResult pareto_dw(const Net& net, const ParetoDwOptions& options,
                         DwScratch* scratch) {
  if (net.degree() == 1) {
    ParetoDwResult r;
    r.frontier = pareto::SolutionSet::adopt_staircase({Objective{0, 0}});
    if (options.want_trees) {
      RoutingTree t = RoutingTree::star(net);
      r.trees.push_back(std::move(t));
    }
    return r;
  }
  if (scratch != nullptr) {
    Solver solver(net, options, scratch->impl());
    return solver.run();
  }
  DwScratch local;
  Solver solver(net, options, local.impl());
  return solver.run();
}

pareto::SolutionSet pareto_frontier(const Net& net) {
  ParetoDwOptions opts;
  opts.want_trees = false;
  return pareto_dw(net, opts).frontier;
}

}  // namespace patlabor::dw
