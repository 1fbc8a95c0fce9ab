#include "serve/graph_snapshot_store.h"

#include <utility>

#include "serve/durability.h"

namespace svqa::serve {

namespace {

std::unique_ptr<exec::KeyCentricCache> MakeCache(
    const SnapshotStoreOptions& options) {
  if (!options.enable_cache) return nullptr;
  return std::make_unique<exec::KeyCentricCache>(options.cache);
}

}  // namespace

GraphSnapshot::GraphSnapshot(uint64_t id, aggregator::MergedGraph merged,
                             const text::EmbeddingModel* embeddings,
                             const SnapshotStoreOptions& options,
                             std::shared_ptr<graph::SymbolTable> symbols)
    : id_(id),
      merged_(std::move(merged)),
      frozen_(merged_.graph.Freeze(std::move(symbols))),
      cache_(MakeCache(options)),
      executor_(std::make_unique<exec::QueryGraphExecutor>(
          &merged_, embeddings, cache_.get(), options.executor, frozen_)) {}

GraphSnapshotStore::GraphSnapshotStore(const text::EmbeddingModel* embeddings,
                                       SnapshotStoreOptions options)
    : embeddings_(embeddings),
      options_(options),
      symbols_(std::make_shared<graph::SymbolTable>()) {}

SnapshotPtr GraphSnapshotStore::Current() const {
  MutexLock lock(&mu_);
  return current_;
}

uint64_t GraphSnapshotStore::Publish(aggregator::MergedGraph merged) {
  uint64_t id = 0;
  {
    MutexLock lock(&mu_);
    id = next_id_++;
  }
  // Durability first: the WAL acknowledges the new state before any
  // reader can observe it, so the durable log is never behind a graph
  // a query was answered on. (Engine ingests pre-log via LogIntent;
  // this call then just consumes the pending intent.)
  if (options_.durability != nullptr) {
    options_.durability->OnPublish(merged, symbols_.get());
  }
  // Build outside the lock: readers keep serving the current snapshot
  // while the next one (graph + cache + executor) comes up.
  auto snapshot =
      std::make_shared<const GraphSnapshot>(id, std::move(merged),
                                            embeddings_, options_, symbols_);
  {
    MutexLock lock(&mu_);
    // Concurrent publishers may finish building out of order; never let
    // an older snapshot overwrite a newer one.
    if (current_ == nullptr || id > current_->id()) {
      current_ = std::move(snapshot);
    }
    ++publish_count_;
  }
  return id;
}

uint64_t GraphSnapshotStore::latest_id() const {
  MutexLock lock(&mu_);
  return current_ == nullptr ? 0 : current_->id();
}

uint64_t GraphSnapshotStore::publish_count() const {
  MutexLock lock(&mu_);
  return publish_count_;
}

}  // namespace svqa::serve
