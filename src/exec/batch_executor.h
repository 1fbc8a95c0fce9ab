#ifndef SVQA_EXEC_BATCH_EXECUTOR_H_
#define SVQA_EXEC_BATCH_EXECUTOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "exec/executor.h"
#include "exec/scheduler.h"
#include "obs/observability.h"
#include "query/query_graph.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace svqa::exec {

/// \brief Outcome of one query in a batch. Every slot gets a definitive
/// Status — one query's failure never aborts or poisons its siblings.
struct QueryOutcome {
  Status status;
  Answer answer;
  /// Virtual time this query consumed (including retry backoff).
  double latency_micros = 0;
  /// Retry/degradation record, populated even when `status` is an error.
  Diagnostics diagnostics;
  /// Span tree of this query's execution, present when the batch ran
  /// with an Observability whose sampler selected this input index.
  /// Keyed to the query's own SimClock, so the exported trace is
  /// byte-identical across modes and worker counts.
  std::shared_ptr<obs::Tracer> trace;
};

/// \brief How a batch is driven through the executor.
enum class BatchMode {
  /// Deterministic single-thread replay: queries execute on the caller
  /// thread in schedule order (the shared cache sees the same global
  /// order every run) and the parallel makespan is *accounted*, not
  /// measured. This is the reproducible Exp-5 configuration.
  kSimulated,
  /// Real parallel execution: `num_workers` util::ThreadPool workers
  /// share one QueryGraphExecutor + KeyCentricCache and pull queries
  /// dynamically (least-loaded); wall_micros is the measured makespan.
  /// Answers are byte-identical to kSimulated; per-query virtual
  /// latencies can differ when a shared cache/memo is enabled, because
  /// the hit/miss interleaving is real (see DESIGN.md).
  kThreaded,
};

const char* BatchModeName(BatchMode mode);

/// \brief Batch execution options.
struct BatchOptions {
  /// Run the §V-B frequency-ratio scheduler before execution.
  bool use_scheduler = true;
  /// Worker count. In kSimulated mode each query is *assigned* (in
  /// schedule order) to the least-loaded virtual worker and the batch's
  /// virtual latency is the makespan; in kThreaded mode this is the
  /// real thread-pool size.
  std::size_t num_workers = 1;
  BatchMode mode = BatchMode::kSimulated;
  /// Per-query deadline, retry, fault-injection, and cancellation knobs.
  /// Each query runs under its own deadline on its own clock; the retry
  /// jitter is salted with the query's input index, so the schedule is a
  /// pure function of (seed, batch) — identical across modes and worker
  /// counts.
  ResilienceOptions resilience;
  /// Observability domain for the batch (metrics + flight recorder +
  /// trace sampling); nullptr disables all telemetry. Not owned. Each
  /// query sampled by `obs->ShouldTrace(input index)` gets its own
  /// Tracer, returned on its QueryOutcome. Overrides any
  /// `resilience.obs` scope, which cannot be shared across parallel
  /// queries anyway (a Tracer is single-threaded, like a SimClock).
  obs::Observability* obs = nullptr;
};

/// \brief Batch result: per-query outcomes (input order) plus totals.
struct BatchResult {
  std::vector<QueryOutcome> outcomes;
  /// Virtual latency of the whole batch: makespan over the per-worker
  /// virtual loads (equals the serial sum when num_workers == 1).
  double total_micros = 0;
  /// Host wall-clock time actually spent. Diagnostics in kSimulated
  /// mode; the measured makespan in kThreaded mode.
  double wall_micros = 0;
  /// Virtual load per worker (kSimulated: least-loaded assignment;
  /// kThreaded: what each pool worker actually executed).
  std::vector<double> worker_micros;
  /// Aggregate operation accounting: every per-query clock merged
  /// serially (op counts add; elapsed equals the serial latency sum).
  SimClock ops;
};

/// \brief Executes N query graphs through a shared executor/cache with
/// optional scheduling (§V-B / Exp-5).
///
/// Outcomes are input-order stable in both modes. A lazily-created
/// internal ThreadPool is reused across ExecuteAll calls; concurrent
/// ExecuteAll calls on the *same* BatchExecutor are not supported (use
/// one BatchExecutor per driving thread — they may share the executor).
class BatchExecutor {
 public:
  BatchExecutor(const QueryGraphExecutor* executor, BatchOptions options = {});
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  BatchResult ExecuteAll(const std::vector<query::QueryGraph>& graphs) const;

  const BatchOptions& options() const { return options_; }

 private:
  std::vector<int> ScheduleOrder(
      const std::vector<query::QueryGraph>& graphs) const;
  void ExecuteSimulated(const std::vector<query::QueryGraph>& graphs,
                        const std::vector<int>& order,
                        BatchResult* result) const;
  void ExecuteThreaded(const std::vector<query::QueryGraph>& graphs,
                       const std::vector<int>& order,
                       BatchResult* result) const;
  /// Returns the reusable pool, (re)built to `workers` threads.
  ThreadPool* EnsurePool(std::size_t workers) const SVQA_EXCLUDES(pool_mu_);
  /// Per-query telemetry setup: when the batch carries an enabled
  /// Observability, fills `*scope` (tracer if sampled, metric handles,
  /// the worker's flight lane) and points `resilience->obs` at it.
  /// Returns the tracer (null when unsampled or telemetry is off).
  std::shared_ptr<obs::Tracer> MakeQueryScope(uint64_t query_id,
                                              uint32_t lane,
                                              ResilienceOptions* resilience,
                                              obs::Scope* scope) const;

  const QueryGraphExecutor* executor_;
  BatchOptions options_;
  mutable Mutex pool_mu_;
  mutable std::unique_ptr<ThreadPool> pool_ SVQA_GUARDED_BY(pool_mu_);
};

}  // namespace svqa::exec

#endif  // SVQA_EXEC_BATCH_EXECUTOR_H_
