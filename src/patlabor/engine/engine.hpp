// The routing engine: the long-lived serving facade of the repository.
//
// An Engine owns the immutable routing context — lookup table, trained
// policy, thread pool — once, and serves every request through one
// request/response API instead of callers re-threading options through the
// free functions:
//
//   engine::Engine eng(opts);
//   auto r = eng.route(net, {.method = "patlabor"});
//   auto all = eng.route_batch(nets, {.method = "salt"});
//
// Methods are resolved by name through the MethodRegistry (see
// registry.hpp); `patlabor` additionally runs behind the canonicalization-
// keyed frontier cache:
//
//   * exact regime (degree <= lambda, where the frontier is provably
//     exact): the net is canonicalized under translation / axis swap /
//     reflection (geom::canonicalize — the LUT pattern symmetry group) and
//     routed *in the canonical frame*, cache on or off; results are mapped
//     back through the inverse isometry.  The exact frontier is invariant
//     under isometries and the computation is a pure function of the
//     canonical net, so all isomorphic nets share one cache entry and
//     cache on/off is bit-identical by construction.
//   * local-search regime (degree > lambda): the heuristic search is *not*
//     isometry-equivariant (verified empirically), so nets are computed in
//     their native frame and cached by exact pin sequence — re-serving
//     repeated nets (e.g. across global-routing iterations) while never
//     answering a merely-isomorphic net from a large-net entry.
//
// Either way the determinism contract of DESIGN.md §7 extends to the
// cache: for every net, cache on, cache off, a cache hit, and any --jobs
// value produce bit-identical frontiers and trees.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "patlabor/core/patlabor.hpp"
#include "patlabor/engine/cache.hpp"
#include "patlabor/engine/registry.hpp"
#include "patlabor/engine/router.hpp"
#include "patlabor/geom/net.hpp"
#include "patlabor/lut/lut.hpp"
#include "patlabor/par/pool.hpp"

namespace patlabor::obs {
class EventSink;
struct NetEvent;
}  // namespace patlabor::obs

namespace patlabor::engine {

struct EngineOptions {
  /// PatLabor's λ (exact-frontier threshold and sub-problem size).
  std::size_t lambda = 9;
  /// Optional lookup table, owned by the caller and outliving the engine.
  /// Alternatively pass ownership via Engine::adopt_table.
  const lut::LookupTable* table = nullptr;
  /// Pin-selection policy for the local search.
  core::Policy policy;
  /// PatLabor local-search iteration multiplier.
  int iteration_factor = 2;
  /// Shared post-processing (see baselines::SweepOptions::refine).
  bool refine = true;
  /// Parallelism for route_batch and the local search: 0 uses the global
  /// pool; any other value gives the engine a private pool of that size.
  std::size_t jobs = 0;
  /// Frontier-cache sizing and enablement (see CacheOptions).
  CacheOptions cache;
  /// Optional structured result telemetry (see obs/events.hpp): the engine
  /// emits one JSONL record per routed net — regime, cache behaviour,
  /// frontier quality, per-net timing.  Not owned; must outlive the
  /// engine.  route_batch flushes events in net order (deterministic
  /// layout for any jobs value); compiled out under PATLABOR_OBS=OFF.
  obs::EventSink* events = nullptr;
};

/// One routing request.  Defaults to the full PatLabor frontier.  This is
/// also the request half of the service wire schema (serve/proto.hpp): the
/// daemon decodes frames into this exact struct, so embedding and RPC
/// serve one schema.
struct RouteRequest {
  std::string method = "patlabor";
  /// Sweep parameter overrides (alpha / epsilon / beta); empty uses
  /// default_params(method).  Ignored by parameterless methods.
  std::vector<double> params;
  /// Origin tag threaded into the JSONL event stream (obs::NetEvent::tag):
  /// the daemon stamps each request with its client's identity so a shared
  /// event file attributes every record.  Empty = untagged (omitted from
  /// the record).  Never affects routing.
  std::string tag;
};

struct RouteResponse {
  pareto::SolutionSet frontier;          ///< Pareto curve, w ascending
  std::vector<tree::RoutingTree> trees;  ///< parallel to frontier
  int iterations = 0;                    ///< PatLabor local-search rounds
  bool cache_hit = false;                ///< answered from the cache
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Transfers ownership of a lookup table to the engine (e.g. one loaded
  /// from disk).  Call before routing; not thread-safe against route().
  void adopt_table(lut::LookupTable table);

  /// Routes one net.  Thread-safe: the context is immutable and the cache
  /// internally synchronized.  Throws std::invalid_argument on unknown
  /// method names.
  RouteResponse route(const geom::Net& net,
                      const RouteRequest& request = {}) const;

  /// Routes every net (in parallel over the engine's pool), results in
  /// input order, bit-identical for every pool size.  Each net is one pool
  /// task, claimed by the lanes from a shared counter
  /// (par::ThreadPool::run_indexed); each net's nested work (candidate
  /// evaluation) runs inline on its worker, so the scheduler only ever
  /// sees coarse net-granularity tasks.
  std::vector<RouteResponse> route_batch(std::span<const geom::Net> nets,
                                         const RouteRequest& request = {}) const;

  /// Heterogeneous batch: one request per net (requests.size() must equal
  /// nets.size()).  This is the admission-queue shape of the daemon — a
  /// coalesced batch mixes clients, methods and tags — with the same
  /// scheduling and determinism contract as the uniform overload.
  std::vector<RouteResponse> route_batch(
      std::span<const geom::Net> nets,
      std::span<const RouteRequest> requests) const;

  /// Heterogeneous batch that *collects* per-net events instead of
  /// emitting them: `events_out` comes back sized nets.size(), indexed by
  /// batch position, ready for the caller to complete (the daemon stamps
  /// service-lifecycle fields) and emit itself.  EngineOptions::events is
  /// not consulted — nothing is emitted here.  Under PATLABOR_OBS=OFF the
  /// vector comes back empty and no event work is done.
  std::vector<RouteResponse> route_batch_collect(
      std::span<const geom::Net> nets, std::span<const RouteRequest> requests,
      std::vector<obs::NetEvent>& events_out) const;

  const MethodRegistry& registry() const { return registry_; }
  /// The context handed to Routers (table resolved, pool attached).
  RouterContext context() const;

  bool cache_enabled() const { return cache_enabled_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

  /// The pool route_batch runs on: the engine's private pool when
  /// options.jobs != 0, else the process-global pool.  Exposed so callers
  /// (the scaling bench, diagnostics) can read its worker timelines and
  /// lock stats; do not run batches on it behind the engine's back.
  par::ThreadPool* pool() const;

 private:
  /// `task_pool` is the pool for the net's *intra*-net parallelism
  /// (candidate evaluation): route() passes the engine pool, route_batch
  /// passes par::inline_pool() so nested work stays on the owning worker.
  RouteResponse route_impl(const geom::Net& net, const RouteRequest& request,
                           obs::NetEvent* event,
                           par::ThreadPool* task_pool) const;
  /// The one batch loop behind route_batch and route_batch_collect;
  /// `request_at(i)` yields the i-th net's request (uniform or per-net).
  /// Events stream to the configured sink, or, when `events_out` is given,
  /// fill it instead (resized to nets.size(); untouched under
  /// PATLABOR_OBS=OFF).
  template <typename RequestAt>
  std::vector<RouteResponse> route_batch_impl(
      std::span<const geom::Net> nets, RequestAt&& request_at,
      std::vector<obs::NetEvent>* events_out = nullptr) const;
  RouteResponse route_patlabor(const geom::Net& net, obs::NetEvent* event,
                               par::ThreadPool* task_pool) const;
  core::PatLaborOptions patlabor_options(par::ThreadPool* task_pool) const;
  const lut::LookupTable* table() const;
  /// The configured event sink, or nullptr when events are off (always
  /// nullptr — folded away — in PATLABOR_OBS=OFF builds).
  obs::EventSink* event_sink() const;

  EngineOptions options_;
  std::optional<lut::LookupTable> owned_table_;
  std::unique_ptr<par::ThreadPool> private_pool_;
  MethodRegistry registry_;
  mutable FrontierCache cache_;
  bool cache_enabled_ = true;
};

}  // namespace patlabor::engine
