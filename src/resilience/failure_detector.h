#ifndef EDGELET_RESILIENCE_FAILURE_DETECTOR_H_
#define EDGELET_RESILIENCE_FAILURE_DETECTOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"

namespace edgelet::resilience {

// Lease timing of the heartbeat/lease failure detector ("Dependability in
// Edge Computing": online detection + reconfiguration instead of static
// over-provisioning alone). Protocol constants, not settings.
//
// Expected heartbeat cadence of a monitored operator; the repair
// controller also scans at this cadence.
inline constexpr SimDuration kLeasePeriod = 5 * kSecond;
// Consecutive missed periods before an operator is suspected. The base
// lease is kLeasePeriod * kMissThreshold.
inline constexpr int kMissThreshold = 3;
// A heartbeat from a suspected operator is a false suspicion: the
// operator's lease widens by this factor (capped at kMaxBackoffSteps
// applications) so a slow-but-alive operator stops flapping.
inline constexpr double kSuspicionBackoff = 2.0;
inline constexpr int kMaxBackoffSteps = 3;
// Deterministic per-operator jitter added to the suspicion deadline, as a
// fraction of the base lease. Drawn from the operator's own counter-based
// NodeRng stream (seed, op_id), so the jitter a given operator sees never
// depends on how other operators' draws interleave — the detector replays
// bit-identically for any parsim shard count.
inline constexpr double kJitterFraction = 0.1;

struct FailureDetectorConfig {
  // Seeds the per-operator jitter streams.
  uint64_t seed = 0;
  // Grace window between *suspected* and *confirmed lost*. With crash
  // recovery in play a silent operator may be mid-reboot: suspicion alone
  // should not trigger irreversible reconfiguration until the grace has
  // also elapsed (IsConfirmedLost). 0 = suspicion is confirmation, the
  // pre-recovery behavior.
  SimDuration confirm_grace = 0;
};

// Deterministic lease-based failure detector. Pure state machine: the
// owner (the repair controller, running in its own event context) feeds
// it Register/Heartbeat/Scan calls with `now` read from its transport; it
// never reads a clock, schedules or sends itself, so the same detector
// runs on every engine, the live one included.
//
// An operator is *suspected* once `now` passes its suspicion deadline:
//   last_heartbeat + kLeasePeriod * kMissThreshold * backoff^steps + jitter.
// Suspicion is sticky until a heartbeat arrives (a false suspicion), which
// clears it and widens the lease.
class FailureDetector {
 public:
  explicit FailureDetector(FailureDetectorConfig config);

  // Starts monitoring an operator; its lease opens at `now`. Re-registering
  // an existing op id resets its lease and suspicion state.
  void Register(uint64_t op_id, SimTime now);
  // Registration pinned to an incarnation (see the incarnation-aware
  // Heartbeat overload); plain Register pins incarnation 0.
  void Register(uint64_t op_id, SimTime now, uint64_t incarnation);
  void Deregister(uint64_t op_id);

  // Records a heartbeat from an operator (ignored if unregistered). A
  // heartbeat from a currently-suspected operator counts as a false
  // suspicion: clears it and applies lease backoff.
  void Heartbeat(uint64_t op_id, SimTime now);

  // Incarnation-aware variant. Incarnations are the operator device's boot
  // epoch: a heartbeat from a *newer* incarnation means the device
  // restarted — the old lease is stale and must be *replaced* (fresh
  // registration semantics: suspicion and backoff reset, no false-
  // suspicion charge — the old incarnation really was gone), never merely
  // refreshed. A heartbeat from an *older* incarnation than the one on
  // record is a delayed straggler from before a crash and is dropped —
  // the ABA case: without the incarnation check it would silently renew
  // the lease of an operator whose volatile state no longer exists.
  void Heartbeat(uint64_t op_id, SimTime now, uint64_t incarnation);

  // Returns the op ids whose lease newly expired as of `now`, in op-id
  // order (std::map iteration — deterministic). Each suspicion is reported
  // exactly once until cleared by a heartbeat.
  std::vector<uint64_t> Scan(SimTime now);

  bool IsRegistered(uint64_t op_id) const;
  bool IsSuspected(uint64_t op_id) const;
  // Suspected AND the confirm grace has elapsed since the suspicion fired
  // (always equal to IsSuspected when confirm_grace == 0). The repair
  // controller keys irreversible recruitment on this, so an operator that
  // reboots and re-attests inside the grace window resumes without ever
  // being repaired around.
  bool IsConfirmedLost(uint64_t op_id, SimTime now) const;
  // Incarnation currently on record for an operator (0 if unregistered).
  uint64_t IncarnationOf(uint64_t op_id) const;
  // Suspicion deadline of a registered operator (kSimTimeNever if absent).
  SimTime SuspicionDeadline(uint64_t op_id) const;

  size_t monitored_count() const { return ops_.size(); }
  size_t suspected_count() const;
  // Total suspicion transitions (including ones later proven false).
  uint64_t detections() const { return detections_; }
  uint64_t false_suspicions() const { return false_suspicions_; }

 private:
  struct OpState {
    SimTime last_heartbeat = 0;
    int backoff_steps = 0;
    bool suspected = false;
    SimTime suspected_at = 0;  // when suspicion last fired
    uint64_t incarnation = 0;
    NodeRng rng;
    SimDuration jitter = 0;
  };

  SimDuration LeaseFor(const OpState& op) const;
  void DrawJitter(OpState* op);

  FailureDetectorConfig config_;
  std::map<uint64_t, OpState> ops_;
  uint64_t detections_ = 0;
  uint64_t false_suspicions_ = 0;
};

}  // namespace edgelet::resilience

#endif  // EDGELET_RESILIENCE_FAILURE_DETECTOR_H_
