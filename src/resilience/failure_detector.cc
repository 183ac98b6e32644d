#include "resilience/failure_detector.h"

#include <cmath>

namespace edgelet::resilience {

FailureDetector::FailureDetector(FailureDetectorConfig config)
    : config_(config) {}

SimDuration FailureDetector::LeaseFor(const OpState& op) const {
  double mult = std::pow(kSuspicionBackoff, op.backoff_steps);
  double base = static_cast<double>(kLeasePeriod) * kMissThreshold * mult;
  return static_cast<SimDuration>(base);
}

void FailureDetector::DrawJitter(OpState* op) {
  constexpr auto span = static_cast<uint64_t>(
      static_cast<double>(kLeasePeriod) * kMissThreshold * kJitterFraction);
  op->jitter = static_cast<SimDuration>(op->rng.NextBelow(span + 1));
}

void FailureDetector::Register(uint64_t op_id, SimTime now) {
  Register(op_id, now, 0);
}

void FailureDetector::Register(uint64_t op_id, SimTime now,
                               uint64_t incarnation) {
  OpState op;
  op.last_heartbeat = now;
  op.incarnation = incarnation;
  op.rng = NodeRng(config_.seed, op_id);
  DrawJitter(&op);
  ops_[op_id] = std::move(op);
}

void FailureDetector::Deregister(uint64_t op_id) { ops_.erase(op_id); }

void FailureDetector::Heartbeat(uint64_t op_id, SimTime now) {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) return;
  OpState& op = it->second;
  if (op.suspected) {
    // The operator was alive after all: widen its lease so it stops
    // flapping in and out of suspicion.
    op.suspected = false;
    ++false_suspicions_;
    if (op.backoff_steps < kMaxBackoffSteps) ++op.backoff_steps;
  }
  op.last_heartbeat = now;
  DrawJitter(&op);
}

void FailureDetector::Heartbeat(uint64_t op_id, SimTime now,
                                uint64_t incarnation) {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) return;
  OpState& op = it->second;
  if (incarnation < op.incarnation) {
    // ABA: a heartbeat emitted by a *previous* incarnation of this device,
    // delayed in flight across its crash. The operator it vouches for no
    // longer exists; renewing the lease on its strength would mask the
    // restart from the detector.
    return;
  }
  if (incarnation > op.incarnation) {
    // The device restarted and its resumed operator is heartbeating under
    // a newer boot epoch: replace the stale lease outright. Fresh-
    // registration semantics, not a false suspicion — the old incarnation
    // really was gone.
    Register(op_id, now, incarnation);
    return;
  }
  Heartbeat(op_id, now);
}

std::vector<uint64_t> FailureDetector::Scan(SimTime now) {
  std::vector<uint64_t> newly;
  for (auto& [id, op] : ops_) {
    if (op.suspected) continue;
    if (now > op.last_heartbeat + LeaseFor(op) + op.jitter) {
      op.suspected = true;
      op.suspected_at = now;
      ++detections_;
      newly.push_back(id);
    }
  }
  return newly;
}

bool FailureDetector::IsRegistered(uint64_t op_id) const {
  return ops_.count(op_id) != 0;
}

bool FailureDetector::IsSuspected(uint64_t op_id) const {
  auto it = ops_.find(op_id);
  return it != ops_.end() && it->second.suspected;
}

bool FailureDetector::IsConfirmedLost(uint64_t op_id, SimTime now) const {
  auto it = ops_.find(op_id);
  if (it == ops_.end() || !it->second.suspected) return false;
  return now >= it->second.suspected_at + config_.confirm_grace;
}

uint64_t FailureDetector::IncarnationOf(uint64_t op_id) const {
  auto it = ops_.find(op_id);
  return it == ops_.end() ? 0 : it->second.incarnation;
}

SimTime FailureDetector::SuspicionDeadline(uint64_t op_id) const {
  auto it = ops_.find(op_id);
  if (it == ops_.end()) return kSimTimeNever;
  return it->second.last_heartbeat + LeaseFor(it->second) + it->second.jitter;
}

size_t FailureDetector::suspected_count() const {
  size_t count = 0;
  for (const auto& [id, op] : ops_) {
    if (op.suspected) ++count;
  }
  return count;
}

}  // namespace edgelet::resilience
