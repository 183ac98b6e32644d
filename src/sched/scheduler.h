#ifndef EDGELET_SCHED_SCHEDULER_H_
#define EDGELET_SCHED_SCHEDULER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "sched/ledger.h"
#include "sched/spare_pool.h"

namespace edgelet::core {
class EdgeletFramework;
}  // namespace edgelet::core

namespace edgelet::sched {

// Service-level knobs of the multi-tenant query service (README "Service
// knobs", DESIGN.md §5i).
struct ServiceConfig {
  // Upper bound on QEPs executing simultaneously over the shared fleet.
  size_t max_concurrent_queries = 4;
  // Admission-time feasibility screen: reject queries whose minimum
  // qualifying crowd exceeds the fleet or whose deadline cannot fit the
  // collection window plus the repair/emission margins (the same budget
  // inequality the RepairController evaluates at t = 0).
  bool admission_feasibility_check = true;
  // Cross-tenant cleartext-exposure cap per device (raw tuples, cumulative
  // over the device's lifetime; 0 = unbounded).
  uint64_t max_exposure_tuples_per_device = 0;
  // Cap on shared-pool spares reserved per query (0 = all the planner
  // nominated).
  size_t max_reserved_spares_per_query = 0;
};

// One tenant's submission: a query plus its privacy/resilience demands and
// execution schedule, queued for admission.
struct SubmitRequest {
  query::Query query;  // query_id must be nonzero and unique in flight
  core::PrivacyConfig privacy;
  resilience::ResilienceConfig resilience;
  exec::Strategy strategy = exec::Strategy::kOvercollection;
  exec::ExecutionConfig exec;
  // The request expires (admission-timeout reject) if it has not started
  // within this window after submission.
  SimDuration max_queue_wait = 30 * kMinute;
  // Restricts the planner to these processor hosts (empty = the whole
  // processor fleet). The multi-tenant tests use disjoint pools to prove
  // concurrent runs bit-identical to isolated ones.
  std::vector<net::NodeId> processor_pool;
};

enum class QueryState : uint8_t {
  kQueued = 0,
  kRunning,
  kCompleted,      // ran to its deadline (report.success may still be false)
  kEarlyAborted,   // fail-safe abort before the deadline (repair infeasible)
  kRejected,       // never admitted
};

enum class RejectReason : uint8_t {
  kNone = 0,
  kInvalidRequest,     // query_id == 0 or duplicate in-flight id
  kInfeasible,         // admission-time crowd/deadline screen failed
  kExposureBudget,     // per-device cross-tenant exposure cap would overflow
  kAdmissionTimeout,   // expired in the queue (max_queue_wait)
  kResourceStarvation, // nothing running, nothing admittable: cannot progress
  kStartFailed,        // planner or execution start rejected the deployment
};

std::string_view QueryStateName(QueryState state);
std::string_view RejectReasonName(RejectReason reason);

// Terminal record of one submission, kept for the service's lifetime.
struct QueryOutcome {
  uint64_t ticket = 0;
  uint64_t query_id = 0;
  QueryState state = QueryState::kQueued;
  RejectReason reject_reason = RejectReason::kNone;
  std::string detail;
  SimTime submitted_at = 0;
  SimTime started_at = kSimTimeNever;
  SimTime finished_at = kSimTimeNever;
  // Filled for kCompleted / kEarlyAborted. `deployment` is the plan as
  // executed (spare_pool replaced by the shared-pool reservation), which
  // the validity oracle needs to recompute the centralized reference.
  exec::ExecutionReport report;
  exec::Deployment deployment;
};

// The multi-tenant execution service: admits, plans, and runs many QEPs
// concurrently over one shared fleet/network/simulator. Admission is
// earliest-deadline-first over each request's completion deadline
// (submitted_at + max_queue_wait + exec.deadline), with a feasibility
// screen at submit time; the DeviceLedger enforces processor-role
// exclusivity and cross-tenant exposure budgets; the SharedSparePool
// brokers repair spares. Drain() multiplexes every admitted execution over
// the one simulator, finalizing each at its own deadline or fail-safe
// abort boundary — all decisions happen at deterministic simulation times,
// so a drain is bit-identical for every sim_shards value.
class QueryScheduler {
 public:
  QueryScheduler(core::EdgeletFramework* framework, ServiceConfig config);
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Plans the query over the (possibly restricted) processor pool, screens
  // feasibility, and queues it for admission. Returns the ticket that keys
  // the submission's outcome; an immediately rejected submission still
  // returns a ticket (its outcome records the reason).
  Result<uint64_t> Submit(SubmitRequest request);

  // Runs the simulator until every submitted query completed, failed safe,
  // or was rejected; then drains the post-deadline event tails so the
  // framework is quiescent. Never wedges: when nothing is running and
  // nothing can be admitted, the remaining queue is rejected.
  Status Drain();

  const QueryOutcome* outcome(uint64_t ticket) const;
  const std::vector<QueryOutcome>& outcomes() const { return outcomes_; }
  const DeviceLedger& ledger() const { return ledger_; }
  const SharedSparePool& spares() const { return spare_pool_; }
  const ServiceConfig& config() const { return config_; }
  size_t pending_count() const { return pending_.size(); }
  size_t running_count() const { return running_.size(); }
  bool busy() const { return !pending_.empty() || !running_.empty(); }

 private:
  struct Pending {
    uint64_t ticket = 0;
    SubmitRequest request;
    exec::Deployment deployment;
    SimTime submitted_at = 0;
    SimTime latest_start = 0;        // submitted_at + max_queue_wait
    SimTime completion_deadline = 0; // EDF key: latest_start + exec.deadline
  };
  struct Running {
    uint64_t ticket = 0;
    exec::QueryExecution* execution = nullptr;  // owned by the framework
  };

  // Admission-time feasibility screen; OK or the reject reason.
  Status FeasibilityScreen(const SubmitRequest& request,
                           const exec::Deployment& deployment) const;
  bool InFlight(uint64_t query_id) const;
  QueryOutcome& OutcomeFor(uint64_t ticket);

  // Admits every admittable pending request (EDF order), expiring stale
  // ones. Returns the number started.
  size_t TryAdmit(SimTime now);
  // Finalizes running executions that reached their deadline or an abort
  // decision boundary at `now`.
  void Reap(SimTime now);
  // Next simulation time at which any running execution needs a decision.
  SimTime NextDecision(SimTime now) const;
  void FinishRunning(size_t index, SimTime now);
  void RejectPending(size_t index, RejectReason reason, std::string detail,
                     SimTime now);

  core::EdgeletFramework* framework_;
  ServiceConfig config_;
  DeviceLedger ledger_;
  SharedSparePool spare_pool_;
  std::vector<Pending> pending_;
  std::vector<Running> running_;
  std::vector<QueryOutcome> outcomes_;  // indexed by ticket - 1
  uint64_t next_ticket_ = 1;
};

}  // namespace edgelet::sched

#endif  // EDGELET_SCHED_SCHEDULER_H_
