#include "query/plan_cache.h"

#include <functional>

#include "common/metric_names.h"
#include "common/metrics.h"

namespace flex::query {

std::string PlanCacheKey(char lang_tag, const std::string& text) {
  std::string key;
  key.reserve(2 + text.size());
  key.push_back(lang_tag);
  key.push_back(':');
  key.append(text);
  return key;
}

PlanCache::PlanCache(size_t capacity)
    : per_shard_capacity_(capacity == 0 ? 0
                                        : std::max<size_t>(1, capacity / kShards)) {}

PlanCache::Shard& PlanCache::ShardOf(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

std::shared_ptr<const ir::Plan> PlanCache::Lookup(const std::string& key) {
  if (per_shard_capacity_ == 0) {
    FLEX_COUNTER_INC(metrics::kPlanCacheMissesTotal);
    return nullptr;
  }
  Shard& shard = ShardOf(key);
  MutexLock lock(&shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.counters.misses;
    FLEX_COUNTER_INC(metrics::kPlanCacheMissesTotal);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.counters.hits;
  FLEX_COUNTER_INC(metrics::kPlanCacheHitsTotal);
  return it->second->second;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const ir::Plan> plan) {
  if (per_shard_capacity_ == 0 || plan == nullptr) return;
  Shard& shard = ShardOf(key);
  MutexLock lock(&shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // Concurrent miss: another client compiled the same template first.
    // Keep one copy; refresh recency.
    it->second->second = std::move(plan);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.entries.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.counters.evictions;
    FLEX_COUNTER_INC(metrics::kPlanCacheEvictionsTotal);
  }
  shard.lru.emplace_front(key, std::move(plan));
  shard.entries.emplace(key, shard.lru.begin());
}

void PlanCache::InvalidateAll() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.lru.clear();
    shard.entries.clear();
    ++shard.counters.invalidations;
  }
  FLEX_COUNTER_INC(metrics::kPlanCacheInvalidationsTotal);
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    total += shard.lru.size();
  }
  return total;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats merged;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    merged.hits += shard.counters.hits;
    merged.misses += shard.counters.misses;
    merged.evictions += shard.counters.evictions;
    merged.invalidations += shard.counters.invalidations;
  }
  // InvalidateAll bumps every shard's cell once; report calls, not cells.
  merged.invalidations /= kShards;
  return merged;
}

}  // namespace flex::query
