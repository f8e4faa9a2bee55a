#include "patlabor/engine/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <utility>

#include "patlabor/eval/metrics.hpp"
#include "patlabor/geom/canonical.hpp"
#include "patlabor/obs/events.hpp"
#include "patlabor/obs/obs.hpp"
#include "patlabor/par/ordered.hpp"
#include "patlabor/util/timer.hpp"

namespace patlabor::engine {

namespace {

bool cache_enabled_from_env() {
  const char* v = std::getenv("PATLABOR_CACHE");
  return v == nullptr || std::string_view(v) != "0";
}

/// Maps canonical-frame trees back into the original frame through the
/// inverse isometry.  from_edges re-interns the nodes against the original
/// net's pins, so pin ids and the structural hash come out exactly as a
/// native-frame construction of the same tree would produce them.
std::vector<tree::RoutingTree> map_back(
    const std::vector<tree::RoutingTree>& trees, const geom::Isometry& back,
    const geom::Net& net) {
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
    out.push_back(tree::RoutingTree::from_edges(net, edges));
  }
  return out;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache.capacity, options_.cache.shards) {
  if (options_.jobs != 0)
    private_pool_ = std::make_unique<par::ThreadPool>(options_.jobs);
  cache_enabled_ = options_.cache.enabled.value_or(cache_enabled_from_env()) &&
                   options_.cache.capacity > 0;
}

void Engine::adopt_table(lut::LookupTable table) {
  owned_table_ = std::move(table);
}

const lut::LookupTable* Engine::table() const {
  if (options_.table != nullptr) return options_.table;
  return owned_table_ ? &*owned_table_ : nullptr;
}

par::ThreadPool* Engine::pool() const { return private_pool_.get(); }

RouterContext Engine::context() const {
  RouterContext ctx;
  ctx.table = table();
  ctx.policy = options_.policy;
  ctx.pool = pool();
  ctx.lambda = options_.lambda;
  ctx.iteration_factor = options_.iteration_factor;
  ctx.refine = options_.refine;
  return ctx;
}

core::PatLaborOptions Engine::patlabor_options(
    par::ThreadPool* task_pool) const {
  core::PatLaborOptions opt;
  opt.lambda = options_.lambda;
  opt.table = table();
  opt.policy = options_.policy;
  opt.iteration_factor = options_.iteration_factor;
  opt.refine = options_.refine;
  opt.pool = task_pool;
  return opt;
}

obs::EventSink* Engine::event_sink() const {
  // obs::compiled_in() is constexpr: under PATLABOR_OBS=OFF this folds to
  // nullptr and every event-filling branch below compiles away.
  return obs::compiled_in() ? options_.events : nullptr;
}

RouteResponse Engine::route_patlabor(const geom::Net& net,
                                     obs::NetEvent* event,
                                     par::ThreadPool* task_pool) const {
  // The exact-frontier regime of core::patlabor (see its implementation):
  // below this the frontier is provably exact, a pure function of the pin
  // geometry, and invariant under the canonicalization isometries.
  const std::size_t lambda = std::min(
      options_.lambda, static_cast<std::size_t>(lut::kMaxLutDegree));
  const bool exact = net.degree() <= lambda || net.degree() <= 3;

  geom::CanonicalNet canon;
  std::uint64_t key = 0;
  const std::vector<geom::Point>* entry_pins = nullptr;
  if (exact) {
    canon = geom::canonicalize(net);
    key = canon.key;
    entry_pins = &canon.net.pins;
  } else {
    key = geom::pin_sequence_hash(net.pins);
    entry_pins = &net.pins;
  }

  if (event != nullptr) {
    event->regime = exact ? "exact" : "local";
    // The join key for run-to-run diffing is always the canonical-form
    // hash, even in the local-search regime (which caches by native pin
    // sequence): isomorphic nets must line up across runs.
    event->chash = exact ? canon.key : geom::canonicalize(net).key;
    event->cache_enabled = cache_enabled_;
  }

  if (cache_enabled_) {
    if (auto hit = cache_.find(key, *entry_pins)) {
      RouteResponse r;
      r.frontier = std::move(hit->frontier);
      r.trees = exact ? map_back(hit->trees, canon.to_canonical.inverse(), net)
                      : std::move(hit->trees);
      r.iterations = hit->iterations;
      r.cache_hit = true;
      return r;
    }
  }

  // Exact-regime nets are routed in the canonical frame whether or not the
  // cache is on — this is what makes a later cache hit (which replays the
  // canonical-frame result) bit-identical to a miss.
  core::PatLaborResult result =
      core::patlabor(exact ? canon.net : net, patlabor_options(task_pool));

  RouteResponse r;
  r.frontier = result.frontier;
  r.trees = exact ? map_back(result.trees, canon.to_canonical.inverse(), net)
                  : result.trees;
  r.iterations = result.iterations;
  if (cache_enabled_)
    cache_.insert(key, CacheEntry{*entry_pins, std::move(result.frontier),
                                  std::move(result.trees), result.iterations});
  return r;
}

RouteResponse Engine::route_impl(const geom::Net& net,
                                 const RouteRequest& request,
                                 obs::NetEvent* event,
                                 par::ThreadPool* task_pool) const {
  PL_SPAN("engine.route");
  util::Timer wall;
  const double cpu0 = event != nullptr ? util::thread_cpu_seconds() : 0.0;
  const Method method = parse_method(request.method);
  RouteResponse r;
  // PatLabor takes no sweep parameter; it always runs behind the cache.
  if (method == Method::kPatLabor) {
    r = route_patlabor(net, event, task_pool);
  } else {
    RouterContext ctx = context();
    ctx.pool = task_pool;
    const std::unique_ptr<Router> router =
        registry_.make(request.method, ctx, request.params);
    std::vector<tree::RoutingTree> trees = router->route(net);

    // Pareto-filter the method's output into the uniform frontier shape:
    // one representative tree per nondominated objective, w ascending.
    r.frontier = pareto::SolutionSet::select(tree::objectives(trees));
    r.trees = pareto::take_payload(r.frontier, std::move(trees));
    if (event != nullptr) {
      event->regime = "sweep";
      event->chash = geom::canonicalize(net).key;
      event->cache_enabled = false;
    }
  }
  PL_HIST("engine.route.frontier", r.frontier.size());
  if (event != nullptr) {
    event->net = net.name;
    event->tag = request.tag;
    event->degree = net.degree();
    event->method = request.method;
    event->cache_hit = r.cache_hit;
    event->frontier_size = r.frontier.size();
    if (!r.frontier.empty()) {
      // Frontiers are sorted w ascending / d descending.
      event->w_min = r.frontier.front().w;
      event->w_max = r.frontier.back().w;
      event->d_max = r.frontier.front().d;
      event->d_min = r.frontier.back().d;
    }
    event->hypervolume = eval::net_hypervolume(r.frontier, net);
    event->iterations = r.iterations;
    event->wall_us = static_cast<std::uint64_t>(wall.seconds() * 1e6);
    const double cpu = util::thread_cpu_seconds() - cpu0;
    event->cpu_us = cpu > 0.0 ? static_cast<std::uint64_t>(cpu * 1e6) : 0;
    PL_HIST("engine.route.wall_us", event->wall_us);
  }
  return r;
}

RouteResponse Engine::route(const geom::Net& net,
                            const RouteRequest& request) const {
  obs::EventSink* sink = event_sink();
  if (sink == nullptr) return route_impl(net, request, nullptr, pool());
  obs::NetEvent event;
  RouteResponse r = route_impl(net, request, &event, pool());
  sink->emit(event);
  return r;
}

template <typename RequestAt>
std::vector<RouteResponse> Engine::route_batch_impl(
    std::span<const geom::Net> nets, RequestAt&& request_at,
    std::vector<obs::NetEvent>* events_out) const {
  PL_SPAN("engine.route_batch");
  // One coarse task per net, claimed by the pool lanes from a shared
  // counter; a net's nested candidate evaluation runs inline on its
  // worker (inline_pool), so workers never block on nested batches and a
  // batch of N nets is exactly N scheduler tasks.
  par::ThreadPool& nested = par::inline_pool();
  if (!obs::compiled_in()) events_out = nullptr;
  obs::EventSink* sink = events_out != nullptr ? nullptr : event_sink();
  if (events_out == nullptr && sink == nullptr)
    return par::parallel_transform(
        nets.size(),
        [&](std::size_t i) {
          return route_impl(nets[i], request_at(i), nullptr, &nested);
        },
        pool());

  // Collected events land in disjoint slots of the pre-sized vector (the
  // caller owns emission order); streamed events go through an ordered
  // flush so records land in the file in net order regardless of
  // scheduling.
  std::optional<par::OrderedSink<obs::NetEvent>> ordered;
  if (events_out != nullptr)
    events_out->resize(nets.size());
  else
    ordered.emplace([sink](obs::NetEvent&& e) { sink->emit(e); });
  auto out = par::parallel_transform(
      nets.size(),
      [&](std::size_t i) {
        obs::NetEvent streamed;
        obs::NetEvent& event =
            events_out != nullptr ? (*events_out)[i] : streamed;
        event.index = i;
        RouteResponse r = route_impl(nets[i], request_at(i), &event, &nested);
        if (ordered) ordered->put(i, std::move(event));
        return r;
      },
      pool());
  if (sink != nullptr) sink->flush();
  return out;
}

std::vector<RouteResponse> Engine::route_batch(
    std::span<const geom::Net> nets, const RouteRequest& request) const {
  return route_batch_impl(nets,
                          [&](std::size_t) -> const RouteRequest& {
                            return request;
                          });
}

std::vector<RouteResponse> Engine::route_batch(
    std::span<const geom::Net> nets,
    std::span<const RouteRequest> requests) const {
  if (requests.size() != nets.size())
    throw std::invalid_argument(
        "route_batch: " + std::to_string(nets.size()) + " nets but " +
        std::to_string(requests.size()) + " requests");
  return route_batch_impl(nets,
                          [&](std::size_t i) -> const RouteRequest& {
                            return requests[i];
                          });
}

std::vector<RouteResponse> Engine::route_batch_collect(
    std::span<const geom::Net> nets, std::span<const RouteRequest> requests,
    std::vector<obs::NetEvent>& events_out) const {
  if (requests.size() != nets.size())
    throw std::invalid_argument(
        "route_batch_collect: " + std::to_string(nets.size()) + " nets but " +
        std::to_string(requests.size()) + " requests");
  events_out.clear();
  return route_batch_impl(
      nets, [&](std::size_t i) -> const RouteRequest& { return requests[i]; },
      &events_out);
}

}  // namespace patlabor::engine
