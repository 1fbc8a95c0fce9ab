#ifndef SVQA_CORE_OPTIONS_H_
#define SVQA_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "aggregator/merger.h"
#include "exec/executor.h"
#include "exec/key_centric_cache.h"
#include "obs/observability.h"
#include "serve/durability.h"
#include "vision/detector.h"
#include "vision/relation_model.h"
#include "vision/tde.h"

namespace svqa::core {

/// \brief End-to-end configuration of an SvqaEngine.
struct SvqaOptions {
  /// Scene graph generation.
  vision::DetectorOptions detector;
  vision::RelationModel::Kind sgg_model =
      vision::RelationModel::Kind::kNeuralMotifs;
  vision::InferenceMode sgg_mode = vision::InferenceMode::kTde;

  /// Data aggregation (Algorithm 1).
  aggregator::MergerOptions merger;

  /// Key-centric caching (§V-B); set enable_cache=false for the
  /// no-cache ablation. Caches are snapshot-scoped: each snapshot the
  /// engine's GraphSnapshotStore publishes gets a fresh cache built with
  /// these options (cached scopes are only valid for the graph they were
  /// computed over).
  bool enable_cache = true;
  exec::KeyCentricCacheOptions cache;

  /// Executor tuning (label index, similarity memos, maxScore
  /// threshold). Every snapshot the engine publishes compiles a frozen
  /// CSR image of its merged graph — interned into the store-wide symbol
  /// table — and the executor reads only that image, in id space (see
  /// DESIGN.md "Memory layout & snapshot compilation").
  exec::ExecutorOptions executor;

  /// Resilience: per-query virtual deadline, transient-failure retries,
  /// fault-injection policy, and cooperative cancellation, threaded
  /// through Ask and ExecuteBatch (see DESIGN.md "Failure model").
  exec::ResilienceOptions resilience;
  /// Walk Ask failures down the degradation ladder — full execution,
  /// then a cached-subgraph partial answer, then the conservative
  /// answer ("no" / 0 / "unknown") — instead of surfacing the error.
  /// The rung taken is recorded in Answer::diagnostics. Disable to get
  /// the raw failure Status.
  bool enable_degradation = true;

  /// Durability: when `durability.env` is set, every ingest is
  /// WAL-logged before it becomes visible, snapshot files are persisted
  /// under `durability.dir`, and SvqaEngine::WarmStart can rebuild the
  /// serving state after a crash (see DESIGN.md "Durability & crash
  /// recovery"). Null env = fully in-memory, exactly as before.
  serve::DurabilitySetup durability;

  /// Observability: when `obs.enabled` the engine owns one
  /// obs::Observability — metrics registry with the pre-registered stack
  /// families, flight recorder, and per-query trace sampling — threaded
  /// through Ask and ExecuteBatch (see DESIGN.md "Observability").
  /// Off by default: every hook compiled into the stack then sees a
  /// null scope and costs one predictable branch.
  obs::ObsOptions obs;

  /// Embedding / noise seed.
  uint64_t seed = 42;

  /// Validates internal consistency.
  Status Validate() const;
};

}  // namespace svqa::core

#endif  // SVQA_CORE_OPTIONS_H_
