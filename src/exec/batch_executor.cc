#include "exec/batch_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace svqa::exec {

const char* BatchModeName(BatchMode mode) {
  switch (mode) {
    case BatchMode::kSimulated:
      return "simulated";
    case BatchMode::kThreaded:
      return "threaded";
  }
  return "unknown";
}

BatchExecutor::BatchExecutor(const QueryGraphExecutor* executor,
                             BatchOptions options)
    : executor_(executor), options_(options) {}

BatchExecutor::~BatchExecutor() = default;

std::vector<int> BatchExecutor::ScheduleOrder(
    const std::vector<query::QueryGraph>& graphs) const {
  std::vector<int> order(graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  if (options_.use_scheduler) {
    std::vector<const query::QueryGraph*> ptrs;
    ptrs.reserve(graphs.size());
    for (const auto& g : graphs) ptrs.push_back(&g);
    order = ScheduleQueries(ptrs).order;
  }
  return order;
}

void BatchExecutor::ExecuteSimulated(
    const std::vector<query::QueryGraph>& graphs,
    const std::vector<int>& order, BatchResult* result) const {
  // Queries execute on the caller thread in schedule order (the shared
  // cache sees that global order — a deterministic approximation of
  // concurrent execution); each is then *assigned* to the virtual
  // worker with the least accumulated load (greedy list scheduling /
  // LPT in arrival order), so the virtual makespan is a lower bound on
  // any schedule-order-preserving dispatch rather than an artifact of
  // round-robin dealing.
  std::vector<double>& loads = result->worker_micros;
  for (const int qi : order) {
    SimClock clock;
    QueryOutcome& outcome = result->outcomes[static_cast<std::size_t>(qi)];
    ResilienceOptions resilience = options_.resilience;
    obs::Scope scope;
    // Everything runs on the caller thread: lane 0.
    outcome.trace = MakeQueryScope(static_cast<uint64_t>(qi), /*lane=*/0,
                                   &resilience, &scope);
    Result<Answer> r = executor_->ExecuteResilient(
        graphs[static_cast<std::size_t>(qi)], &clock, resilience,
        /*salt=*/static_cast<uint64_t>(qi), &outcome.diagnostics);
    outcome.status = r.status();
    if (r.ok()) outcome.answer = *r;
    outcome.latency_micros = clock.ElapsedMicros();
    result->ops.MergeSerial(clock);
    *std::min_element(loads.begin(), loads.end()) += outcome.latency_micros;
  }
}

void BatchExecutor::ExecuteThreaded(
    const std::vector<query::QueryGraph>& graphs,
    const std::vector<int>& order, BatchResult* result) const {
  const std::size_t workers = result->worker_micros.size();
  ThreadPool* pool = EnsurePool(workers);

  // Self-scheduling dispatch: whichever worker is free pulls the next
  // query in schedule order — dynamic least-loaded assignment. Each
  // query gets its own SimClock; slots of `outcomes`, `clocks` and
  // `worker_micros` are disjoint per task, so no locking is needed
  // beyond the atomic cursor.
  std::vector<SimClock> clocks(graphs.size());
  std::atomic<std::size_t> cursor{0};
  pool->ParallelFor(workers, [&](std::size_t w) {
    for (;;) {
      const std::size_t pos = cursor.fetch_add(1, std::memory_order_relaxed);
      if (pos >= order.size()) return;
      const auto qi = static_cast<std::size_t>(order[pos]);
      SimClock& clock = clocks[qi];
      QueryOutcome& outcome = result->outcomes[qi];
      ResilienceOptions resilience = options_.resilience;
      obs::Scope scope;
      outcome.trace = MakeQueryScope(static_cast<uint64_t>(qi),
                                     /*lane=*/static_cast<uint32_t>(w),
                                     &resilience, &scope);
      // Per-query isolation: the resilient call owns this slot's clock,
      // deadline, and retry loop; an error lands in this slot's Status
      // and the worker simply pulls the next query.
      Result<Answer> r = executor_->ExecuteResilient(
          graphs[qi], &clock, resilience,
          /*salt=*/static_cast<uint64_t>(qi), &outcome.diagnostics);
      outcome.status = r.status();
      if (r.ok()) outcome.answer = *r;
      outcome.latency_micros = clock.ElapsedMicros();
      result->worker_micros[w] += outcome.latency_micros;
    }
  });

  for (const SimClock& clock : clocks) result->ops.MergeSerial(clock);
}

BatchResult BatchExecutor::ExecuteAll(
    const std::vector<query::QueryGraph>& graphs) const {
  // Measurement-only wall clock: wall_micros reports the observed
  // makespan for benchmarks; answers and virtual latencies never read
  // it, so replay determinism is untouched.
  // svqa-lint: allow(virtual-time)
  const auto wall_start = std::chrono::steady_clock::now();
  BatchResult result;
  result.outcomes.resize(graphs.size());
  const std::size_t workers = std::max<std::size_t>(1, options_.num_workers);
  result.worker_micros.assign(workers, 0.0);

  const std::vector<int> order = ScheduleOrder(graphs);
  if (!graphs.empty()) {
    if (options_.mode == BatchMode::kThreaded) {
      ExecuteThreaded(graphs, order, &result);
    } else {
      ExecuteSimulated(graphs, order, &result);
    }
  }

  result.total_micros = *std::max_element(result.worker_micros.begin(),
                                          result.worker_micros.end());
  result.wall_micros =
      std::chrono::duration<double, std::micro>(
          // svqa-lint: allow(virtual-time) — same measurement site.
          std::chrono::steady_clock::now() - wall_start)
          .count();
  return result;
}

std::shared_ptr<obs::Tracer> BatchExecutor::MakeQueryScope(
    uint64_t query_id, uint32_t lane, ResilienceOptions* resilience,
    obs::Scope* scope) const {
  if (options_.obs == nullptr || !options_.obs->enabled()) return nullptr;
  std::shared_ptr<obs::Tracer> tracer;
  if (options_.obs->ShouldTrace(query_id)) {
    tracer = std::make_shared<obs::Tracer>(query_id);
  }
  *scope = options_.obs->MakeScope(tracer.get(), lane, query_id);
  resilience->obs = scope;
  return tracer;
}

ThreadPool* BatchExecutor::EnsurePool(std::size_t workers) const {
  MutexLock lock(&pool_mu_);
  if (pool_ == nullptr || pool_->num_threads() != workers) {
    pool_ = std::make_unique<ThreadPool>(workers);
  }
  return pool_.get();
}

}  // namespace svqa::exec
