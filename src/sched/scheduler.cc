#include "sched/scheduler.h"

#include <algorithm>

#include "core/framework.h"
#include "exec/repair.h"

namespace edgelet::sched {

std::string_view QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued: return "queued";
    case QueryState::kRunning: return "running";
    case QueryState::kCompleted: return "completed";
    case QueryState::kEarlyAborted: return "early-aborted";
    case QueryState::kRejected: return "rejected";
  }
  return "unknown";
}

std::string_view RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kInvalidRequest: return "invalid-request";
    case RejectReason::kInfeasible: return "infeasible";
    case RejectReason::kExposureBudget: return "exposure-budget";
    case RejectReason::kAdmissionTimeout: return "admission-timeout";
    case RejectReason::kResourceStarvation: return "resource-starvation";
    case RejectReason::kStartFailed: return "start-failed";
  }
  return "unknown";
}

QueryScheduler::QueryScheduler(core::EdgeletFramework* framework,
                               ServiceConfig config)
    : framework_(framework),
      config_(config),
      ledger_(config.max_exposure_tuples_per_device) {}

QueryScheduler::~QueryScheduler() = default;

Status QueryScheduler::FeasibilityScreen(
    const SubmitRequest& request, const exec::Deployment& deployment) const {
  // Crowd screen: Overcollection gathers (n+m) partitions of quota tuples,
  // so the fleet must at least contain that many qualifying contributors
  // (an upper-bound screen — predicates can only shrink the crowd).
  const uint64_t members = framework_->fleet()->contributor_members();
  if (deployment.MinQualifyingCrowd() > members) {
    return Status::FailedPrecondition(
        "minimum qualifying crowd exceeds the fleet");
  }
  // Deadline screen: the answer must be emitted combiner_margin before the
  // deadline, after a full collection window. Saturating adds: a huge
  // window must fail the screen, not wrap past the deadline.
  const exec::ExecutionConfig& ec = request.exec;
  if (SatAdd(ec.collection_window, ec.combiner_margin) > ec.deadline) {
    return Status::FailedPrecondition(
        "deadline cannot fit collection window plus combiner margin");
  }
  // Horizon screen: a deadline or queue wait so large that the completion
  // horizon saturates the 64-bit clock is permanently infeasible —
  // end_time() would sit at kSimTimeNever, no decision point could ever
  // be reached, and Drain would spin its logical clock forever. Reject at
  // admission instead of re-screening a query that can never start.
  const SimTime horizon = SatAdd(
      SatAdd(framework_->sim()->now(), request.max_queue_wait), ec.deadline);
  if (horizon == kSimTimeNever) {
    return Status::FailedPrecondition(
        "completion horizon overflows the simulated clock");
  }
  // Repair-budget screen: the controller's inequality for a repair at
  // t = 0 — if no repair could ever be feasible, admitting with repair on
  // would only ever fail safe.
  if (ec.repair.enabled &&
      !exec::RepairBudgetFits(0, ec.collection_window, ec.deadline,
                              ec.repair.compute_margin,
                              ec.repair.emission_margin,
                              ec.combiner_margin)) {
    return Status::FailedPrecondition(
        "repair budget infeasible at admission (t = 0)");
  }
  return Status::OK();
}

bool QueryScheduler::InFlight(uint64_t query_id) const {
  for (const Pending& p : pending_) {
    if (p.request.query.query_id == query_id) return true;
  }
  for (const Running& r : running_) {
    if (r.execution->query_id() == query_id) return true;
  }
  return false;
}

QueryOutcome& QueryScheduler::OutcomeFor(uint64_t ticket) {
  return outcomes_[ticket - 1];
}

const QueryOutcome* QueryScheduler::outcome(uint64_t ticket) const {
  if (ticket == 0 || ticket > outcomes_.size()) return nullptr;
  return &outcomes_[ticket - 1];
}

Result<uint64_t> QueryScheduler::Submit(SubmitRequest request) {
  const uint64_t ticket = next_ticket_++;
  const SimTime now = framework_->sim()->now();
  outcomes_.push_back(QueryOutcome{});
  QueryOutcome& rec = outcomes_.back();
  rec.ticket = ticket;
  rec.query_id = request.query.query_id;
  rec.submitted_at = now;
  auto reject = [&](RejectReason reason, std::string detail) {
    rec.state = QueryState::kRejected;
    rec.reject_reason = reason;
    rec.detail = std::move(detail);
    rec.finished_at = now;
    return ticket;
  };

  if (request.query.query_id == 0) {
    return reject(RejectReason::kInvalidRequest, "query_id must be nonzero");
  }
  if (InFlight(request.query.query_id)) {
    return reject(RejectReason::kInvalidRequest,
                  "query_id already in flight");
  }
  Result<exec::Deployment> planned =
      framework_->Plan(request.query, request.privacy, request.resilience,
                       request.strategy, request.processor_pool);
  if (!planned.ok()) {
    return reject(RejectReason::kStartFailed, planned.status().ToString());
  }
  if (config_.admission_feasibility_check) {
    Status screen = FeasibilityScreen(request, *planned);
    if (!screen.ok()) {
      return reject(RejectReason::kInfeasible, screen.message());
    }
  }

  Pending pending;
  pending.ticket = ticket;
  pending.submitted_at = now;
  // Saturating: wrapped deadlines used to expire fresh requests instantly
  // (latest_start in the past) or scramble the EDF order.
  pending.latest_start = SatAdd(now, request.max_queue_wait);
  pending.completion_deadline =
      SatAdd(pending.latest_start, request.exec.deadline);
  pending.deployment = std::move(*planned);
  pending.request = std::move(request);
  pending_.push_back(std::move(pending));
  return ticket;
}

void QueryScheduler::RejectPending(size_t index, RejectReason reason,
                                   std::string detail, SimTime now) {
  QueryOutcome& rec = OutcomeFor(pending_[index].ticket);
  rec.state = QueryState::kRejected;
  rec.reject_reason = reason;
  rec.detail = std::move(detail);
  rec.finished_at = now;
  pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(index));
}

size_t QueryScheduler::TryAdmit(SimTime now) {
  // EDF over each request's completion deadline, submission-ticket
  // tiebreak: deterministic regardless of map iteration or submit
  // interleaving.
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Pending& a, const Pending& b) {
                     if (a.completion_deadline != b.completion_deadline) {
                       return a.completion_deadline < b.completion_deadline;
                     }
                     return a.ticket < b.ticket;
                   });
  size_t started = 0;
  for (size_t i = 0; i < pending_.size();) {
    Pending& p = pending_[i];
    const uint64_t qid = p.request.query.query_id;
    // Expiry applies even when the service is saturated.
    if (now > p.latest_start) {
      RejectPending(i, RejectReason::kAdmissionTimeout,
                    "expired in admission queue", now);
      continue;
    }
    if (running_.size() >= config_.max_concurrent_queries) {
      ++i;
      continue;
    }
    // Role conflicts are transient (a release may clear them): skip and
    // retry at the next decision point.
    if (!ledger_.CanAcquire(p.deployment, qid)) {
      ++i;
      continue;
    }
    // Exposure budgets only ever tighten: failing now means failing
    // forever, so reject instead of starving the queue.
    if (!ledger_.ExposureBudgetOk(p.deployment)) {
      RejectPending(i, RejectReason::kExposureBudget,
                    "per-device exposure budget exceeded", now);
      continue;
    }
    exec::Deployment deployment = p.deployment;
    if (p.request.exec.repair.enabled) {
      deployment.spare_pool = spare_pool_.Reserve(
          qid, deployment, config_.max_reserved_spares_per_query, ledger_,
          *framework_->network());
    } else {
      // The planner nominates every leftover processor as a spare; a
      // repair-free run never recruits one, so claiming them would only
      // starve other tenants.
      deployment.spare_pool.clear();
    }
    Status acquired = ledger_.Acquire(deployment, qid, now);
    if (!acquired.ok()) {
      spare_pool_.Release(qid);
      ++i;
      continue;
    }
    Result<exec::QueryExecution*> execution =
        framework_->StartExecution(deployment, p.request.exec);
    if (!execution.ok()) {
      ledger_.Release(qid, now);
      spare_pool_.Release(qid);
      RejectPending(i, RejectReason::kStartFailed,
                    execution.status().ToString(), now);
      continue;
    }
    QueryOutcome& rec = OutcomeFor(p.ticket);
    rec.state = QueryState::kRunning;
    rec.started_at = now;
    running_.push_back(Running{p.ticket, *execution});
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
    ++started;
  }
  return started;
}

void QueryScheduler::FinishRunning(size_t index, SimTime now) {
  exec::QueryExecution* execution = running_[index].execution;
  const uint64_t ticket = running_[index].ticket;
  const uint64_t qid = execution->query_id();
  (void)execution->Finish();
  QueryOutcome& rec = OutcomeFor(ticket);
  rec.report = execution->report();
  rec.deployment = execution->deployment();
  rec.state = rec.report.early_abort_time != kSimTimeNever
                  ? QueryState::kEarlyAborted
                  : QueryState::kCompleted;
  rec.finished_at = now;
  ledger_.Release(qid, now);
  spare_pool_.Release(qid);
  running_.erase(running_.begin() + static_cast<ptrdiff_t>(index));
}

void QueryScheduler::Reap(SimTime now) {
  for (size_t i = 0; i < running_.size();) {
    exec::QueryExecution* e = running_[i].execution;
    bool due = now >= e->end_time();
    if (!due && e->abort_requested()) {
      // Fail-safe aborts finalize only on the execution's own poll grid
      // (Finish()'s contract), which Drain's decision points land on.
      const SimDuration step = e->poll_step();
      due = step > 0 && now >= e->start_time() &&
            (now - e->start_time()) % step == 0;
    }
    if (due) {
      FinishRunning(i, now);
    } else {
      ++i;
    }
  }
  // Free the memory of executions whose event tails have fully drained
  // (unbounded retention was the old single-tenant leak).
  framework_->RetireQuiescentExecutions(now);
}

SimTime QueryScheduler::NextDecision(SimTime now) const {
  SimTime next = kSimTimeNever;
  for (const Running& r : running_) {
    const exec::QueryExecution* e = r.execution;
    SimTime candidate = e->end_time();
    const SimDuration step = e->poll_step();
    if (step > 0) {
      // First poll-grid point strictly after `now`.
      const SimTime start = e->start_time();
      const SimTime elapsed = now >= start ? now - start : 0;
      const SimTime grid = start + (elapsed / step + 1) * step;
      candidate = std::min(candidate, grid);
    }
    next = std::min(next, candidate);
  }
  return next;
}

Status QueryScheduler::Drain() {
  net::SimEngine* sim = framework_->sim();
  // SimEngine::RunUntil(t) executes every event <= t but leaves now() at
  // the last *executed* event, which can sit strictly before t when the
  // queue drains early. Decision points are therefore tracked on a logical
  // clock: after RunUntil(next), simulated time has semantically reached
  // `next` (nothing earlier is pending), even if now() reads lower.
  SimTime now = sim->now();
  // No-progress guard: if two consecutive iterations leave the logical
  // clock and both queues exactly where they were, nothing in the loop
  // body can change the next iteration either — fail the remainder safe
  // instead of spinning forever. This backstops any admission screen gap
  // (e.g. admission_feasibility_check disabled with saturated deadlines).
  SimTime guard_now = now;
  size_t guard_pending = pending_.size() + 1;  // first iteration never trips
  size_t guard_running = running_.size();
  int stalled = 0;
  while (busy()) {
    if (now == guard_now && pending_.size() == guard_pending &&
        running_.size() == guard_running) {
      if (++stalled >= 2) {
        while (!pending_.empty()) {
          RejectPending(0, RejectReason::kResourceStarvation,
                        "drain made no progress: no decision point can "
                        "advance the clock",
                        now);
        }
        for (size_t i = running_.size(); i-- > 0;) FinishRunning(i, now);
        break;
      }
    } else {
      stalled = 0;
    }
    guard_now = now;
    guard_pending = pending_.size();
    guard_running = running_.size();

    const size_t started = TryAdmit(now);
    if (running_.empty()) {
      if (pending_.empty()) break;
      if (started == 0) {
        // Nothing is running, so no release can ever unblock the queue:
        // reject the remainder instead of wedging.
        while (!pending_.empty()) {
          RejectPending(0, RejectReason::kResourceStarvation,
                        "no running query can free the contended devices",
                        now);
        }
        break;
      }
      continue;
    }
    const SimTime next = NextDecision(now);
    if (next == kSimTimeNever) {
      // Every running execution's decision points saturated (end_time at
      // kSimTimeNever): RunUntil(kSimTimeNever) would chase periodic
      // beacons forever. Expire them at their completion deadline — here,
      // the current instant — rather than spinning the clock.
      for (size_t i = running_.size(); i-- > 0;) FinishRunning(i, now);
      continue;
    }
    if (next > now) {
      sim->RunUntil(next);
      now = next;
    }
    Reap(now);
  }
  // Post-deadline event tails (resends, stray heartbeats) drain here, so
  // the framework is quiescent and stream-rewound for whatever comes next.
  framework_->RetireCompletedExecutions();
  return Status::OK();
}

}  // namespace edgelet::sched
