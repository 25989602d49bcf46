#ifndef FLEX_QUERY_PLAN_CACHE_H_
#define FLEX_QUERY_PLAN_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "ir/plan.h"

namespace flex::query {

/// Builds the canonical plan-cache key `<lang>:<text>`. Each cache belongs
/// to one QueryService, whose optimizer options and graph are fixed at
/// construction, so language and text alone determine the compiled plan.
std::string PlanCacheKey(char lang_tag, const std::string& text);

/// Merged view of one cache's counters (scrape/test path; the per-shard
/// cells are the source of truth).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;  ///< InvalidateAll calls, not entries dropped.
};

/// Sharded LRU cache of compiled (parsed + optimized) plans, keyed on
/// language + query text — the parameterized-query hot path of §5: a query
/// template is compiled once and served to every client that re-submits it
/// with fresh parameters, skipping parse and optimize entirely.
///
/// Concurrency design (the serving path runs this under 8+ concurrent
/// clients): the key space is hash-sharded over kShards independent
/// (mutex, LRU list, map) triples, so two clients running different
/// templates rarely touch the same lock. Counters are per-shard cells
/// bumped under the already-held shard mutex and merged only at stats()
/// time — the same no-shared-hot-atomic rule the PR 3 metric counters
/// follow (a single process-wide atomic on this path was measurable).
///
/// Plans are immutable once built (`shared_ptr<const ir::Plan>`), so a hit
/// is safe to execute concurrently with other hits on the same entry; the
/// cache only copies the pointer. Invalidation (RegisterProcedure, catalog
/// change) drops every entry; in-flight queries keep their pinned pointer
/// and finish on the plan they resolved, which is the snapshot semantics
/// the serving tests assert (a cached plan is never *stale*, because the
/// optimizer's inputs — schema and catalog — are immutable for the life of
/// a QueryService; invalidation exists for the procedure-registration
/// surface where name resolution could change).
class PlanCache {
 public:
  static constexpr size_t kShards = 8;

  /// Total entry capacity, split evenly across shards (each shard gets at
  /// least one slot). Capacity 0 disables the cache: Lookup always misses
  /// and Insert drops.
  explicit PlanCache(size_t capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The cached plan for `key`, or nullptr. A hit moves the entry to the
  /// shard's MRU position.
  std::shared_ptr<const ir::Plan> Lookup(const std::string& key);

  /// Inserts (or replaces) `key`; evicts the shard's LRU entry when the
  /// shard is full.
  void Insert(const std::string& key, std::shared_ptr<const ir::Plan> plan);

  /// Drops every entry (procedure registration / catalog change). Queries
  /// already holding a looked-up plan finish on it.
  void InvalidateAll();

  /// Live entries across all shards.
  size_t size() const;

  bool enabled() const { return per_shard_capacity_ > 0; }
  size_t capacity() const { return per_shard_capacity_ * kShards; }

  /// Counters merged across shards (not linearizable with concurrent
  /// lookups, like any sharded counter).
  PlanCacheStats stats() const;

 private:
  struct Shard {
    mutable Mutex mu;
    /// MRU-first recency list; map values point into it.
    std::list<std::pair<std::string, std::shared_ptr<const ir::Plan>>> lru
        GUARDED_BY(mu);
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string,
                            std::shared_ptr<const ir::Plan>>>::iterator>
        entries GUARDED_BY(mu);
    /// Per-shard counter cells (merged by stats()); bumped under mu, which
    /// the caller already holds for the cache operation itself.
    PlanCacheStats counters GUARDED_BY(mu);
  };

  Shard& ShardOf(const std::string& key);

  size_t per_shard_capacity_;
  std::array<Shard, kShards> shards_;
};

}  // namespace flex::query

#endif  // FLEX_QUERY_PLAN_CACHE_H_
