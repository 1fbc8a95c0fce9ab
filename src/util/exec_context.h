#ifndef SVQA_UTIL_EXEC_CONTEXT_H_
#define SVQA_UTIL_EXEC_CONTEXT_H_

#include <string>
#include <string_view>

#include "util/arena.h"
#include "util/cancellation.h"
#include "util/fault_injector.h"
#include "util/sim_clock.h"
#include "util/status.h"

namespace svqa {

namespace obs {
// Forward declaration only: util sits below obs in the layer DAG, so
// ExecContext carries the observability scope as an opaque pointer and
// never includes an obs header. Layers above (exec, serve) include
// obs/trace.h to dereference it.
struct Scope;
}  // namespace obs

/// \brief Per-operation execution context threaded through the online
/// pipeline (executor -> matcher -> constraints): the virtual clock plus
/// the resilience hooks — cooperative cancellation, a virtual-time
/// deadline, and the shared fault policy.
///
/// Check-point contract: components call `Checkpoint` between units of
/// work (per query-graph vertex, before/after each scan) and propagate
/// any non-OK status upward unchanged. Check-points are observational —
/// they charge nothing to the clock — and compare the clock's elapsed
/// virtual time against the deadline, so timeout behaviour is
/// deterministic on any host. `Probe` consults the fault policy at the
/// instrumented FaultSites; a default-constructed context (no policy, no
/// token, unbounded deadline) makes every hook a no-op, preserving the
/// fault-free fast path.
struct ExecContext {
  SimClock* clock = nullptr;
  const FaultPolicy* faults = nullptr;
  const CancellationToken* cancel = nullptr;
  Deadline deadline = Deadline::Unbounded();
  /// Retry attempt this execution runs under; salts fault draws so
  /// transient faults can clear on retry.
  uint32_t attempt = 0;
  /// Per-query scratch arena for executor/matcher intermediates (binding
  /// sets, traversal frontiers). Owned by the driving call, reset
  /// between queries and retry attempts; nullptr makes each call use a
  /// local arena. Nothing allocated from it may outlive the query (see
  /// util/arena.h).
  util::Arena* arena = nullptr;
  /// Observability scope for the query this context runs under: the
  /// per-query tracer plus the shared metric handles and flight lane
  /// (obs/trace.h). nullptr — the default, and the whole story when
  /// `ObsOptions.enabled` is false — makes every telemetry hook a
  /// single-branch no-op, preserving the fast path.
  const obs::Scope* obs = nullptr;

  static ExecContext WithClock(SimClock* clock) {
    ExecContext ctx;
    ctx.clock = clock;
    return ctx;
  }

  /// Cancellation/deadline check-point. `where` names the check-point in
  /// the returned status message.
  Status Checkpoint(std::string_view where) const {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("cancelled at " + std::string(where));
    }
    if (clock != nullptr && deadline.bounded() && deadline.Expired(*clock)) {
      return Status::DeadlineExceeded(
          "virtual deadline exceeded at " + std::string(where));
    }
    return Status::OK();
  }

  /// Fault-policy probe; OK when no policy is installed.
  Status ProbeFault(FaultSite site, std::string_view key) const {
    if (faults == nullptr) return Status::OK();
    return faults->Probe(site, key, attempt);
  }
};

}  // namespace svqa

#endif  // SVQA_UTIL_EXEC_CONTEXT_H_
