#include "exec/key_centric_cache.h"

#include <utility>

#include "obs/observability.h"

namespace svqa::exec {

namespace {

// Hit/miss accounting for the ctx-aware entry points: one increment on
// the pre-registered handle, no lock, no-op without a metrics scope.
void CountLookup(const ExecContext& ctx, bool scope_cache, bool hit) {
  const obs::StackMetrics* m = obs::MetricsOf(ctx.obs);
  if (m == nullptr) return;
  if (scope_cache) {
    (hit ? m->cache_scope_hits : m->cache_scope_misses)->Incr();
  } else {
    (hit ? m->cache_path_hits : m->cache_path_misses)->Incr();
  }
}

}  // namespace

const char* CachePolicyName(CachePolicy policy) {
  return policy == CachePolicy::kLfu ? "LFU" : "LRU";
}

KeyCentricCache::KeyCentricCache(KeyCentricCacheOptions options)
    : options_(options),
      scope_(options.capacity),
      path_(options.capacity) {}

std::optional<ScopeValue> KeyCentricCache::GetScopeShared(
    const std::string& key, SimClock* clock) {
  if (!options_.enable_scope || options_.capacity == 0) return std::nullopt;
  if (clock != nullptr) clock->Charge(CostKind::kCacheProbe);
  // Interning on Get too: a miss must reach the policy store so its
  // hit/miss accounting matches a string-keyed store exactly.
  const graph::SymbolId id = keys_.Intern(key);
  return options_.policy == CachePolicy::kLfu ? scope_.lfu.Get(id)
                                              : scope_.lru.Get(id);
}

void KeyCentricCache::PutScopeShared(const std::string& key,
                                     ScopeValue value) {
  if (!options_.enable_scope || options_.capacity == 0) return;
  const graph::SymbolId id = keys_.Intern(key);
  if (options_.policy == CachePolicy::kLfu) {
    scope_.lfu.Put(id, std::move(value));
  } else {
    scope_.lru.Put(id, std::move(value));
  }
}

std::optional<PathValue> KeyCentricCache::GetPathShared(const std::string& key,
                                                        SimClock* clock) {
  if (!options_.enable_path || options_.capacity == 0) return std::nullopt;
  if (clock != nullptr) clock->Charge(CostKind::kCacheProbe);
  const graph::SymbolId id = keys_.Intern(key);
  return options_.policy == CachePolicy::kLfu ? path_.lfu.Get(id)
                                              : path_.lru.Get(id);
}

void KeyCentricCache::PutPathShared(const std::string& key, PathValue value) {
  if (!options_.enable_path || options_.capacity == 0) return;
  const graph::SymbolId id = keys_.Intern(key);
  if (options_.policy == CachePolicy::kLfu) {
    path_.lfu.Put(id, std::move(value));
  } else {
    path_.lru.Put(id, std::move(value));
  }
}

std::optional<ScopeValue> KeyCentricCache::GetScopeShared(
    const std::string& key, const ExecContext& ctx) {
  if (!ctx.ProbeFault(FaultSite::kCacheOp, key).ok()) {
    // Degrade to a miss: the probe still cost a round-trip, but the
    // caller recomputes and the query survives.
    obs::CountFault(ctx.obs, FaultSite::kCacheOp);
    if (ctx.clock != nullptr) ctx.clock->Charge(CostKind::kCacheProbe);
    CountLookup(ctx, /*scope_cache=*/true, /*hit=*/false);
    return std::nullopt;
  }
  auto hit = GetScopeShared(key, ctx.clock);
  CountLookup(ctx, /*scope_cache=*/true, hit.has_value());
  return hit;
}

void KeyCentricCache::PutScopeShared(const std::string& key, ScopeValue value,
                                     const ExecContext& ctx) {
  if (!ctx.ProbeFault(FaultSite::kCacheOp, key).ok()) {  // write dropped
    obs::CountFault(ctx.obs, FaultSite::kCacheOp);
    return;
  }
  PutScopeShared(key, std::move(value));
}

std::optional<PathValue> KeyCentricCache::GetPathShared(
    const std::string& key, const ExecContext& ctx) {
  if (!ctx.ProbeFault(FaultSite::kCacheOp, key).ok()) {
    obs::CountFault(ctx.obs, FaultSite::kCacheOp);
    if (ctx.clock != nullptr) ctx.clock->Charge(CostKind::kCacheProbe);
    CountLookup(ctx, /*scope_cache=*/false, /*hit=*/false);
    return std::nullopt;
  }
  auto hit = GetPathShared(key, ctx.clock);
  CountLookup(ctx, /*scope_cache=*/false, hit.has_value());
  return hit;
}

void KeyCentricCache::PutPathShared(const std::string& key, PathValue value,
                                    const ExecContext& ctx) {
  if (!ctx.ProbeFault(FaultSite::kCacheOp, key).ok()) {  // write dropped
    obs::CountFault(ctx.obs, FaultSite::kCacheOp);
    return;
  }
  PutPathShared(key, std::move(value));
}

cache::CacheStats KeyCentricCache::ScopeStats() const {
  return options_.policy == CachePolicy::kLfu ? scope_.lfu.stats()
                                              : scope_.lru.stats();
}

cache::CacheStats KeyCentricCache::PathStats() const {
  return options_.policy == CachePolicy::kLfu ? path_.lfu.stats()
                                              : path_.lru.stats();
}

cache::CacheStats KeyCentricCache::TotalStats() const {
  cache::CacheStats total = ScopeStats();
  total.Merge(PathStats());
  return total;
}

void KeyCentricCache::Clear() {
  scope_.lfu.Clear();
  scope_.lru.Clear();
  path_.lfu.Clear();
  path_.lru.Clear();
}

}  // namespace svqa::exec
