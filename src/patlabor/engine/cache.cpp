#include "patlabor/engine/cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <utility>

#include "patlabor/obs/obs.hpp"

namespace patlabor::engine {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

bool cache_is_enabled(const CacheOptions& options) {
  if (options.capacity == 0) return false;
  if (options.enabled.has_value()) return *options.enabled;
  const char* v = std::getenv("PATLABOR_CACHE");
  return v == nullptr || std::string_view(v) != "0";
}

FrontierCache::FrontierCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  // No more stripes than entries, and the remainder handed out one entry
  // per stripe, so the stripe limits sum to exactly `capacity`.
  std::size_t n = round_up_pow2(std::max<std::size_t>(shards, 1));
  while (n > 1 && n > capacity_) n >>= 1;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->limit = capacity_ / n + (i < capacity_ % n ? 1 : 0);
  }
}

FrontierCache::Shard& FrontierCache::shard_of(std::uint64_t key) {
  // Fibonacci mix so nearby keys spread across stripes.
  const std::uint64_t mixed = key * 0x9e3779b97f4a7c15ULL;
  return *shards_[(mixed >> 32) & (shards_.size() - 1)];
}

std::shared_ptr<const CacheEntry> FrontierCache::find_shared(
    std::uint64_t key, const std::vector<geom::Point>& pins) {
  if (capacity_ == 0) return nullptr;
  Shard& sh = shard_of(key);
  std::shared_ptr<const CacheEntry> out;
  {
    std::lock_guard<obs::TimedMutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end() && it->second->second->pins == pins) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      out = it->second->second;
      ++sh.hits;
    } else {
      ++sh.misses;
    }
  }
  if (out != nullptr)
    PL_COUNT("engine.cache.hit", 1);
  else
    PL_COUNT("engine.cache.miss", 1);
  return out;
}

std::optional<CacheEntry> FrontierCache::find(
    std::uint64_t key, const std::vector<geom::Point>& pins) {
  if (const auto hit = find_shared(key, pins)) return *hit;
  return std::nullopt;
}

void FrontierCache::insert(std::uint64_t key, CacheEntry value) {
  if (capacity_ == 0) return;
  auto entry = std::make_shared<const CacheEntry>(std::move(value));
  Shard& sh = shard_of(key);
  Lru evicted;  // destroyed after the lock is released
  bool added = false;
  {
    std::lock_guard<obs::TimedMutex> lock(sh.mu);
    const auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      // Refresh; the old value leaves with `entry`, outside the lock.
      std::swap(it->second->second, entry);
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    } else {
      sh.lru.emplace_front(key, std::move(entry));
      sh.index.emplace(key, sh.lru.begin());
      added = true;
      while (sh.lru.size() > sh.limit) {
        sh.index.erase(sh.lru.back().first);
        evicted.splice(evicted.end(), sh.lru, std::prev(sh.lru.end()));
      }
      sh.evictions += evicted.size();
    }
  }
  const std::int64_t delta =
      (added ? 1 : 0) - static_cast<std::int64_t>(evicted.size());
  if (delta != 0)
    PL_GAUGE_SET("engine.cache.entries",
                 population_.fetch_add(delta, std::memory_order_relaxed) +
                     delta);
  if (!evicted.empty()) PL_COUNT("engine.cache.evict", evicted.size());
}

CacheStats FrontierCache::stats() const {
  CacheStats s;
  s.shards.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardStats ss;
    ss.lock = sh->mu.stats();  // read before our own acquisition below
    {
      std::lock_guard<obs::TimedMutex> lock(sh->mu);
      ss.entries = sh->lru.size();
      ss.hits = sh->hits;
      ss.misses = sh->misses;
      ss.evictions = sh->evictions;
    }
    s.hits += ss.hits;
    s.misses += ss.misses;
    s.evictions += ss.evictions;
    s.entries += ss.entries;
    s.shards.push_back(std::move(ss));
  }
  return s;
}

}  // namespace patlabor::engine
