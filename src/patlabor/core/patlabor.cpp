#include "patlabor/core/patlabor.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "patlabor/dw/pareto_dw.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/par/worker_context.hpp"
#include "patlabor/rsma/rsma.hpp"
#include "patlabor/rsmt/rsmt.hpp"
#include "patlabor/tree/refine.hpp"

namespace patlabor::core {

using geom::Length;
using geom::Net;
using geom::Point;
using pareto::Objective;
using tree::RoutingTree;

namespace {

/// Pareto-filters a tree population by objective, in place.  Selection
/// buffers come from the executing thread's WorkerContext, so steady-state
/// filtering reuses capacity instead of allocating per round.
void filter_population(std::vector<RoutingTree>& trees) {
  const std::size_t before = trees.size();
  auto& scratch = par::WorkerContext::current().get<pareto::FilterScratch>();
  auto set = pareto::SolutionSet::select(tree::objectives(trees), scratch);
  trees = pareto::take_payload(set, std::move(trees));
  PL_COUNT("search.trees_filtered", before - trees.size());
}

}  // namespace

RoutingTree regenerate_subtopology(const RoutingTree& t,
                                   const std::vector<std::size_t>& pins,
                                   const RoutingTree& subtopology,
                                   ReattachMode mode) {
  // A = {source} ∪ selected pins.
  std::vector<bool> in_a(t.num_nodes(), false);
  in_a[0] = true;
  for (std::size_t p : pins) in_a[p] = true;

  // cnt(v) = number of A nodes in subtree(v); the edge (v, parent) lies on
  // the minimal subtree spanning A iff cnt(v) >= 1 (the root side always
  // holds the source).
  const auto ch = t.children();
  std::vector<int> cnt(t.num_nodes(), 0);
  std::vector<std::size_t> order;
  order.reserve(t.num_nodes());
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    order.push_back(u);
    for (std::int32_t c : ch[u]) stack.push_back(static_cast<std::size_t>(c));
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t u = *it;
    if (in_a[u]) ++cnt[u];
    for (std::int32_t c : ch[u]) cnt[u] += cnt[static_cast<std::size_t>(c)];
  }

  // Edge pool: kept tree edges plus the regenerated sub-topology.
  std::vector<std::pair<Point, Point>> edges;
  for (std::size_t v = 1; v < t.num_nodes(); ++v)
    if (cnt[v] == 0)
      edges.emplace_back(t.node(v),
                         t.node(static_cast<std::size_t>(t.parent(v))));
  for (std::size_t w = 1; w < subtopology.num_nodes(); ++w)
    edges.emplace_back(
        subtopology.node(w),
        subtopology.node(static_cast<std::size_t>(subtopology.parent(w))));

  // Net view for the final tree: the original net's pins.
  Net net;
  net.pins.assign(t.nodes().begin(),
                  t.nodes().begin() + static_cast<std::ptrdiff_t>(t.num_pins()));

  // Intern points in first-seen order — the net's pins, then edge
  // endpoints in pool order — so ids, and with them every tie-break below,
  // follow the pool.
  std::unordered_map<Point, std::size_t, geom::PointHash> id;
  id.reserve(net.pins.size() + 2 * edges.size());
  std::vector<Point> pts;
  auto intern = [&](const Point& p) {
    auto [it, inserted] = id.emplace(p, pts.size());
    if (inserted) pts.push_back(p);
    return it->second;
  };
  std::vector<std::size_t> pin_ids;
  for (const Point& p : net.pins) pin_ids.push_back(intern(p));
  std::vector<std::pair<std::size_t, std::size_t>> ends;
  for (const auto& [a, b] : edges) {
    const std::size_t ia = intern(a);
    ends.emplace_back(ia, intern(b));
  }
  const std::size_t np = pts.size();

  // Connected components of the edge pool; the component holding the
  // source is the core, every other component holding a pin is an orphan
  // fragment to re-attach.
  std::vector<std::size_t> comp(np);
  for (std::size_t i = 0; i < np; ++i) comp[i] = i;
  auto find = [&](std::size_t x) {
    while (comp[x] != x) x = comp[x] = comp[comp[x]];
    return x;
  };
  for (const auto& [a, b] : ends) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra != rb) comp[ra] = rb;
  }
  for (std::size_t i = 0; i < np; ++i) comp[i] = find(i);
  std::vector<bool> has_pin(np, false);
  for (std::size_t i : pin_ids) has_pin[comp[i]] = true;
  const std::size_t core = comp[pin_ids[0]];
  std::vector<std::vector<std::size_t>> members(np);  // ascending ids
  for (std::size_t i = 0; i < np; ++i) members[comp[i]].push_back(i);

  // Anchor prices: 0 for kNearest; for kDelayAware, the anchor's path
  // length from the source.  The core's lengths come from one Dijkstra.
  // An attached fragment hangs off the core by its single new edge
  // (bo, bc), so no core length changes and the fragment's lengths are
  // pl[bc] + l1(bc, bo) plus a Dijkstra inside the fragment seeded at bo.
  const bool delay_aware = mode == ReattachMode::kDelayAware;
  constexpr Length kUnreached = std::numeric_limits<Length>::max() / 4;
  std::vector<Length> pl(np, delay_aware ? kUnreached : 0);
  std::vector<std::vector<std::size_t>> adj(delay_aware ? np : 0);
  if (delay_aware) {
    for (const auto& [a, b] : ends) {
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
  }
  std::vector<std::pair<Length, std::size_t>> heap;
  auto settle_from = [&](std::size_t seed, Length d0) {
    pl[seed] = d0;
    heap.assign(1, {d0, seed});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > pl[u]) continue;
      for (std::size_t v : adj[u]) {
        const Length nd = d + geom::l1(pts[u], pts[v]);
        if (nd < pl[v]) {
          pl[v] = nd;
          heap.emplace_back(nd, v);
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
      }
    }
  };
  if (delay_aware) settle_from(pin_ids[0], 0);

  // Greedy re-attachment: each round joins the orphan point / core anchor
  // pair with the lexicographically least (price, orphan id, anchor id),
  // where price = l1(orphan, anchor) + pl[anchor].  Anchor prices never
  // change once a point is in the core, so every orphan point keeps its
  // best (price, anchor) and only meets the points that joined last round.
  std::vector<std::size_t> orphans;
  for (std::size_t i = 0; i < np; ++i)
    if (comp[i] != core && has_pin[comp[i]]) orphans.push_back(i);
  std::vector<Length> price(np, std::numeric_limits<Length>::max());
  std::vector<std::size_t> anchor(np, np);
  auto offer = [&](const std::vector<std::size_t>& anchors) {
    for (std::size_t i : orphans)
      for (std::size_t j : anchors) {
        const Length c = geom::l1(pts[i], pts[j]) + pl[j];
        if (c < price[i] || (c == price[i] && j < anchor[i])) {
          price[i] = c;
          anchor[i] = j;
        }
      }
  };
  offer(members[core]);
  while (!orphans.empty()) {
    std::size_t bo = orphans[0];
    for (std::size_t i : orphans)
      if (price[i] < price[bo]) bo = i;
    const std::size_t bc = anchor[bo];
    edges.emplace_back(pts[bo], pts[bc]);
    if (delay_aware) settle_from(bo, pl[bc] + geom::l1(pts[bc], pts[bo]));
    const std::size_t joined = comp[bo];
    std::erase_if(orphans, [&](std::size_t i) { return comp[i] == joined; });
    offer(members[joined]);
  }

  RoutingTree result = RoutingTree::from_edges(net, edges);
  result.normalize();
  return result;
}

PatLaborResult patlabor(const Net& net, const PatLaborOptions& options) {
  PL_SPAN("core.patlabor");
  PatLaborResult result;
  const std::size_t n = net.degree();
  const std::size_t lambda =
      std::min<std::size_t>(options.lambda, lut::kMaxLutDegree);

  if (n <= lambda || n <= 3) {
    PL_COUNT("search.small_exact", 1);
    auto [frontier, trees] = exact_small_frontier(net, options.table);
    result.frontier = std::move(frontier);
    result.trees = std::move(trees);
    return result;
  }

  // ---- Local search (Section V-B) ----
  std::vector<RoutingTree> population;
  {
    PL_SPAN("search.seed");
    RoutingTree t0 = rsmt::rsmt(net);  // FLUTE's role
    // SALT-style post-processing of the seed gives the population its
    // starting Pareto diversity; the arborescence seed anchors the
    // min-delay corner of the curve (the local search then trades its
    // wirelength down).
    for (RoutingTree& v : tree::refined_variants(t0))
      population.push_back(std::move(v));
    population.push_back(std::move(t0));
    RoutingTree arb = rsma::rsma(net);
    tree::refine(arb, tree::RefineMode::kWirelength, 4);
    population.push_back(std::move(arb));
    filter_population(population);
  }
  std::unordered_set<std::uint64_t> expanded;
  // Coverage rotation: prefer pins not yet regenerated, so one pass of the
  // local search touches every pin (the Remark-1 "each pin once" regime),
  // then continue freely on the worst-delay trees.
  std::vector<bool> untouched(n, true);
  untouched[0] = false;
  std::size_t untouched_left = n - 1;

  const int iterations =
      options.iteration_factor * static_cast<int>(n / lambda);
  PL_SPAN("search.local_search");
  for (int it = 0; it < iterations; ++it) {
    PL_COUNT("search.rounds", 1);
    // Select the worst-delay tree not expanded yet.
    std::size_t pick = population.size();
    Length worst = -1;
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (expanded.count(population[i].structural_hash()) > 0) continue;
      const Length d = population[i].delay();
      if (d > worst) {
        worst = d;
        pick = i;
      }
    }
    if (pick == population.size()) break;  // every tree already expanded
    const RoutingTree target = population[pick];
    expanded.insert(target.structural_hash());
    ++result.iterations;

    const auto pins = options.policy.select_pins(
        target, lambda - 1,
        untouched_left >= lambda - 1 ? &untouched : nullptr);
    if (pins.empty()) break;
    for (std::size_t p : pins) {
      if (untouched[p]) {
        untouched[p] = false;
        --untouched_left;
      }
    }
    Net subnet;
    subnet.pins.push_back(net.source());
    for (std::size_t p : pins) subnet.pins.push_back(target.node(p));

    auto [sub_frontier, sub_trees] = [&] {
      PL_SPAN("search.subnet_solve");
      return exact_small_frontier(subnet, options.table);
    }();
    (void)sub_frontier;
    {
      PL_SPAN("search.reattach");
      // Candidate regenerations (one per sub-topology x reattach mode) are
      // independent: evaluate them across the pool, then fold the valid
      // ones into the population in index order.  The ordered reduction
      // keeps the population — and hence the frontier — bit-identical for
      // every pool size.
      constexpr ReattachMode kModes[] = {ReattachMode::kNearest,
                                         ReattachMode::kDelayAware};
      const std::size_t num_jobs = sub_trees.size() * std::size(kModes);
      auto candidates = par::parallel_transform(
          num_jobs,
          [&](std::size_t j) {
            const RoutingTree& sub = sub_trees[j / std::size(kModes)];
            const ReattachMode mode = kModes[j % std::size(kModes)];
            RoutingTree candidate =
                regenerate_subtopology(target, pins, sub, mode);
            if (!candidate.validate().empty()) {
              PL_COUNT("search.moves_rejected", 1);
              return std::optional<RoutingTree>();
            }
            if (options.refine)
              tree::refine(candidate, tree::RefineMode::kEither, 4);
            PL_COUNT("search.moves_accepted", 1);
            return std::optional<RoutingTree>(std::move(candidate));
          },
          options.pool);
      for (std::optional<RoutingTree>& c : candidates)
        if (c.has_value()) population.push_back(std::move(*c));
    }
    filter_population(population);
  }

  filter_population(population);
  std::sort(population.begin(), population.end(),
            [](const RoutingTree& a, const RoutingTree& b) {
              return a.objective() < b.objective();
            });
  // The population is nondominated and sorted by objective, so its
  // objectives are already a staircase.
  result.frontier =
      pareto::SolutionSet::adopt_staircase(tree::objectives(population));
  result.trees = std::move(population);
  return result;
}

SmallFrontier exact_small_frontier(const Net& net,
                                   const lut::LookupTable* table) {
  if (table != nullptr && table->covers(net.degree())) {
    auto q = table->query(net);
    return {std::move(q.frontier), std::move(q.trees)};
  }
  // A table that is present but too shallow for this degree is invisible to
  // query(); count the skip so the stats distinguish it from "no table".
  if (table != nullptr) PL_COUNT("lut.skipped_uncovered", 1);
  // Numeric DW runs in the local-search inner loop whenever the subnet
  // degree exceeds the table (lambda-pin subnets are degree lambda, tables
  // usually stop one short), so solver storage is reused per worker thread
  // — this is where the per-batch allocation count mostly came from.
  auto& scratch = par::WorkerContext::current().get<dw::DwScratch>();
  auto r = dw::pareto_dw(net, {}, &scratch);
  return {std::move(r.frontier), std::move(r.trees)};
}

}  // namespace patlabor::core
