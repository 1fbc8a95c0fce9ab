#ifndef SVQA_EXEC_KEY_CENTRIC_CACHE_H_
#define SVQA_EXEC_KEY_CENTRIC_CACHE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_stats.h"
#include "cache/lfu_cache.h"
#include "cache/lru_cache.h"
#include "exec/relation_pairs.h"
#include "graph/graph.h"
#include "graph/interning.h"
#include "util/exec_context.h"
#include "util/sim_clock.h"

namespace svqa::exec {

/// \brief Cache replacement policy for the key-centric cache (Fig. 11
/// compares the two).
enum class CachePolicy { kLfu, kLru };

const char* CachePolicyName(CachePolicy policy);

/// \brief Configuration of the key-centric cache (§V-B).
struct KeyCentricCacheOptions {
  /// Pool size in items; 0 disables the pool entirely.
  std::size_t capacity = 100;
  CachePolicy policy = CachePolicy::kLfu;
  /// Cache matchVertex scopes (candidate vertex sets per element key).
  bool enable_scope = true;
  /// Cache relation-pair paths (RP sets per (sub, obj, predicate) key).
  bool enable_path = true;
};

/// Shared immutable cache values: readers hold the entry itself instead
/// of copying vectors out per probe.
using ScopeValue = std::shared_ptr<const std::vector<graph::VertexId>>;
using PathValue = std::shared_ptr<const std::vector<RelationPair>>;

/// \brief The key-centric cache: a *scope* store (matchVertex results)
/// and a *path* store (getRelationpairs results), each under the chosen
/// eviction policy. Every probe charges CostKind::kCacheProbe.
///
/// Key representation: callers address entries by the stable string
/// keys (`VertexMatcher::ScopeKey` / `QueryGraphExecutor::PathKey`), but
/// the policy stores are keyed by interned `SymbolId`s from a private
/// table — the eviction lists hash and compare 32-bit ids, not strings.
/// The string -> id mapping is injective, so hit/miss and eviction
/// sequences are exactly those of a string-keyed store. Fault probes
/// stay keyed by the string (the injector's site/key hashing is part of
/// the observable model).
///
/// Values are immutable `shared_ptr` vectors handed out without copying:
/// a hit shares the entry with the cache and with any concurrent reader.
///
/// Thread-safe by composition: `options_` is immutable after
/// construction, the interner and each policy store are internally
/// locked. `Clear` and the `*Stats` snapshots are per-store atomic, not
/// atomic across the scope and path stores — fine for their diagnostic
/// role. The `SimClock*` argument is caller-owned per-query state and is
/// charged outside any cache lock.
class KeyCentricCache {
 public:
  explicit KeyCentricCache(KeyCentricCacheOptions options = {});

  /// Lookups return the entry shared with the cache (and any concurrent
  /// reader); it must be treated as immutable.
  std::optional<ScopeValue> GetScopeShared(const std::string& key,
                                           SimClock* clock = nullptr);
  void PutScopeShared(const std::string& key, ScopeValue value);
  std::optional<PathValue> GetPathShared(const std::string& key,
                                         SimClock* clock = nullptr);
  void PutPathShared(const std::string& key, PathValue value);

  /// Context-aware variants: each op consults the context's fault policy
  /// at FaultSite::kCacheOp (keyed by the cache key, so a Get and Put of
  /// the same key in one attempt draw one verdict). An injected fault
  /// *degrades* rather than fails — a Get becomes a charged miss and a
  /// Put drops the write — because a flaky cache must slow queries down,
  /// never take them down.
  std::optional<ScopeValue> GetScopeShared(const std::string& key,
                                           const ExecContext& ctx);
  void PutScopeShared(const std::string& key, ScopeValue value,
                      const ExecContext& ctx);
  std::optional<PathValue> GetPathShared(const std::string& key,
                                         const ExecContext& ctx);
  void PutPathShared(const std::string& key, PathValue value,
                     const ExecContext& ctx);

  const KeyCentricCacheOptions& options() const { return options_; }
  cache::CacheStats ScopeStats() const;
  cache::CacheStats PathStats() const;
  /// Scope + path stores merged into one snapshot.
  cache::CacheStats TotalStats() const;
  void Clear();

 private:
  template <typename V>
  struct PolicyPair {
    explicit PolicyPair(std::size_t capacity)
        : lfu(capacity), lru(capacity) {}
    cache::LfuCache<graph::SymbolId, V> lfu;
    cache::LruCache<graph::SymbolId, V> lru;
  };

  const KeyCentricCacheOptions options_;  // immutable after construction
  /// String key -> dense id; internally locked, append-only.
  graph::SymbolTable keys_;
  PolicyPair<ScopeValue> scope_;  // internally locked
  PolicyPair<PathValue> path_;    // internally locked
};

}  // namespace svqa::exec

#endif  // SVQA_EXEC_KEY_CENTRIC_CACHE_H_
