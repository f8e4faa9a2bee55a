// The engine's frontier cache: a sharded, mutex-striped LRU map from
// canonical net keys to computed frontiers + topologies.
//
// Keys come from geom::canonicalize, so every net that is a translation /
// axis swap / reflection of an already-routed net can be answered from the
// cache.  Each entry also stores the exact pin sequence it answers
// (canonical pins for the exact regime, native pins for the local-search
// regime — see engine.hpp); a lookup only hits when the probe pins match,
// which makes hash collisions harmless and enforces the determinism
// contract for nets the symmetry argument does not cover.
//
// Concurrency: the key space is striped over shards, each a plain LRU — a
// recency-ordered list plus a key -> list-node index — behind one mutex.
// find_shared() and insert() are O(1) under their stripe's lock and copy
// no entry there: entries are shared immutable values, so a hit copies a
// pointer and evicted entries are freed after the lock is released (or
// by the last reader still holding one).  Racing inserts of the same key are
// benign because the engine only ever inserts bit-identical values for a
// given key — and for the same reason a miss needs no locked double-check:
// recomputing is correct, just slower.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "patlabor/geom/point.hpp"
#include "patlabor/obs/timed_mutex.hpp"
#include "patlabor/pareto/solution_set.hpp"
#include "patlabor/tree/routing_tree.hpp"

namespace patlabor::engine {

struct CacheOptions {
  /// Maximum number of cached nets across all shards (0 disables caching).
  std::size_t capacity = 1 << 13;
  /// Number of mutex stripes; rounded up to a power of two, then halved
  /// while it exceeds `capacity`.
  std::size_t shards = 16;
  /// Tri-state enable: unset defers to the PATLABOR_CACHE environment
  /// variable ("0" disables, anything else — including unset — enables).
  std::optional<bool> enabled;
};

/// Whether a cache configured by `options` is used: never at capacity 0,
/// else `enabled` when set, else the PATLABOR_CACHE environment variable.
/// The engine, the CLI and the daemon's manifest all ask this one rule.
bool cache_is_enabled(const CacheOptions& options);

/// Per-stripe counters: population, hit/miss/eviction skew, and the
/// stripe's lock-wait totals (all-zero lock stats while recording is off).
struct ShardStats {
  std::size_t entries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  obs::LockStats lock;
};

/// Point-in-time counters.  hits/misses/evictions are cumulative; entries
/// is the current population.  `shards` breaks the same totals down per
/// stripe so skew (one hot stripe serializing everyone) is visible.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::vector<ShardStats> shards;
};

/// A cached routing answer.  `pins` is the exact pin sequence this entry
/// answers; `frontier`/`trees` are in that frame.  The cache holds each
/// entry as a shared immutable value (find_shared).
struct CacheEntry {
  std::vector<geom::Point> pins;
  pareto::SolutionSet frontier;
  std::vector<tree::RoutingTree> trees;
  int iterations = 0;
};

class FrontierCache {
 public:
  explicit FrontierCache(std::size_t capacity = 1 << 13,
                         std::size_t shards = 16);

  /// The entry for (key, pins), bumped to most-recent, or null.  A key
  /// match with different pins is a miss.  Only the pointer is copied under
  /// the stripe lock; the entry is immutable and outlives its eviction
  /// while a caller holds it.
  std::shared_ptr<const CacheEntry> find_shared(
      std::uint64_t key, const std::vector<geom::Point>& pins);

  /// find_shared() with the entry copied out (after the lock is released),
  /// or nullopt.
  std::optional<CacheEntry> find(std::uint64_t key,
                                 const std::vector<geom::Point>& pins);

  /// Inserts (or refreshes) the entry for `key` as most-recent, evicting
  /// the least recently used entry of the shard if it is full.
  void insert(std::uint64_t key, CacheEntry entry);

  CacheStats stats() const;

  std::size_t capacity() const { return capacity_; }

 private:
  /// Most recent first.
  using Lru =
      std::list<std::pair<std::uint64_t, std::shared_ptr<const CacheEntry>>>;

  /// Everything but `mu` is guarded by `mu`, whose lock-wait accounting
  /// rolls up into the engine.cache.lock.* counter family.
  struct Shard {
    obs::TimedMutex mu{"engine.cache.lock"};
    Lru lru;
    std::unordered_map<std::uint64_t, Lru::iterator> index;
    std::size_t limit = 0;  ///< this stripe's share of the capacity
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_of(std::uint64_t key);

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Approximate live population, mirrored into the engine.cache.entries
  /// gauge for the metrics exposition layer.
  std::atomic<std::int64_t> population_{0};
};

}  // namespace patlabor::engine
