#ifndef EDGELET_EXEC_ACTOR_H_
#define EDGELET_EXEC_ACTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "device/device.h"
#include "exec/defaults.h"
#include "exec/protocol.h"
#include "exec/trace.h"
#include "net/transport.h"

namespace edgelet::exec {

// Exponential-backoff schedule shared by every emission path that re-sends
// over the uncertain links: resend i (1-based) fires ((2^i) - 1) * base
// after the original send — base, 3*base, 7*base, ... Early retries cover
// a single lost message cheaply; later ones wait out longer outages
// instead of assuming a fixed resend beat is a liveness guarantee.
// Saturates at kSimTimeNever: the shift clamp alone still let
// ((1 << 20) - 1) * base wrap for large configured bases, which turned
// "back off for a long time" into "resend immediately, in the past".
inline SimDuration ResendBackoffDelay(int resend_index, SimDuration base) {
  int shift = resend_index < 20 ? resend_index : 20;  // clamp: no overflow
  return SatMul((SimDuration{1} << shift) - 1, base);
}

// The one backoff-resend loop: schedules `resend` on `owner`'s timeline at
// ResendBackoffDelay(i, interval) for i = 1..count — the extra emissions
// after the one the caller just made. `resend` applies its own guards.
template <typename Fn>
void ScheduleBackoffResends(net::Transport* net, net::NodeId owner, int count,
                            SimDuration interval, const Fn& resend) {
  for (int i = 1; i <= count; ++i) {
    net->ScheduleAfter(owner, ResendBackoffDelay(i, interval), resend);
  }
}

class OperatorActor;

// Durable checkpoint sink injected into operator actors by the recovery
// layer (exec/recovery.h): called with the actor at state transitions. The
// owning RecoveryHost first applies its cadence throttle and only then
// reads the actor's serialized volatile state (SerializeState, tagged with
// checkpoint_epoch(), the emission epoch it belongs to) into a sealed
// store record, so a throttled call serializes nothing. `critical` marks
// phase transitions (snapshot complete, output sent) that must persist
// even when the throttle would skip a routine delta. Null (default) =
// recovery disabled: no call sites fire, zero overhead, and — because
// checkpointing never schedules events, sends messages, or draws from
// node streams — enabling it leaves message timing, and therefore report
// fingerprints, untouched.
using CheckpointFn =
    std::function<void(const OperatorActor& actor, bool critical)>;

// Periodic liveness beacon for the failure-detection subsystem: while the
// hosting device is alive, renews the operator's lease at the repair
// controller with a plaintext kOperatorHeartbeat every
// resilience::kLeasePeriod. Every replica beats (the detector monitors
// devices, not leadership); beats from dead devices are dropped by the
// network and the loop stops rescheduling once the device is dead or the
// deadline passed.
class LivenessBeacon {
 public:
  struct Config {
    bool enabled = false;
    net::NodeId target = 0;  // the controller's device
    uint64_t query_id = 0;
    uint64_t op_id = 0;
    SimTime stop_at = kSimTimeNever;
  };

  LivenessBeacon(net::Transport* net, device::Device* dev, Config config);

  // Sends the first beat immediately (in the caller's event context) and
  // schedules the periodic loop. No-op unless config.enabled. Beats carry
  // the device's boot epoch as the heartbeat incarnation, and the loop
  // self-cancels once the device reboots past the beacon's birth epoch —
  // a resumed operator starts its own beacon under the new epoch.
  void Start();

 private:
  void Beat();

  net::Transport* net_;
  device::Device* dev_;
  Config config_;
  uint64_t birth_epoch_ = 0;
  Bytes payload_;  // encoded once; identical every beat
};

// One protocol role bound to one device for the duration of a query. The
// binding is per query tag (= the query id): a device can host one actor
// per concurrent query, and every message an actor sends carries its tag so
// the device routes inbound traffic to the right tenant's actor.
class ActorBase {
 public:
  ActorBase(net::Transport* net, device::Device* dev, uint64_t query_tag)
      : net_(net), dev_(dev), query_tag_(query_tag),
        birth_epoch_(dev->boot_epoch()) {
    dev_->BindQueryHandler(
        query_tag_, this,
        [this](const net::Message& msg) { HandleMessage(msg); });
  }
  virtual ~ActorBase() { dev_->UnbindQueryHandler(query_tag_, this); }

  ActorBase(const ActorBase&) = delete;
  ActorBase& operator=(const ActorBase&) = delete;

  device::Device* dev() const { return dev_; }
  // The transport this actor's timers and re-sends run on. Actors never
  // name an engine — the same code runs on the DES and the live
  // (threaded) engines.
  net::Transport* net() const { return net_; }
  // The clock of the calling context, read through the transport.
  SimTime now() const { return net_->now(); }
  uint64_t query_tag() const { return query_tag_; }

  // Hands a message to this actor directly. Wrapper actors (the spare
  // edgelet of the repair subsystem) re-bind the device handler to
  // themselves and forward to an inner actor through this.
  void Deliver(const net::Message& msg) { HandleMessage(msg); }

  // The device boot epoch this actor was constructed under.
  uint64_t birth_epoch() const { return birth_epoch_; }

  // True once the hosting device died — or rebooted past this actor's
  // boot. A crashed device's actor objects cannot be destroyed mid-run
  // (scheduled lambdas pin them), so after a crash-with-recovery their
  // stale timers still fire on a now-live device; every timer and resend
  // guard checks this so only the *resumed* actor (built under the new
  // boot epoch) speaks for the device.
  bool defunct() const {
    return dev_->network()->IsDead(dev_->id()) ||
           dev_->boot_epoch() != birth_epoch_;
  }

 protected:
  virtual void HandleMessage(const net::Message& msg) = 0;

  // Runs `fn` at `t` (after `delay`) on this device's timeline unless the
  // actor has gone defunct by then.
  template <typename Fn>
  void At(SimTime t, Fn fn) {
    net_->ScheduleAt(dev_->id(), t, [this, fn = std::move(fn)]() {
      if (defunct()) return;
      fn();
    });
  }
  template <typename Fn>
  void After(SimDuration delay, Fn fn) {
    At(SatAdd(now(), delay), std::move(fn));
  }
  // ScheduleBackoffResends, skipped once the actor is defunct.
  template <typename Fn>
  void ScheduleResends(int count, SimDuration interval, const Fn& resend) {
    ScheduleBackoffResends(net_, dev_->id(), count, interval,
                           [this, resend]() {
                             if (defunct()) return;
                             resend();
                           });
  }

  // Re-claims the device binding for this actor's tag. Wrapper actors call
  // this after constructing an inner actor on the same device (whose ctor
  // bound itself, last-wins).
  void RebindHandler() {
    dev_->BindQueryHandler(
        query_tag_, this,
        [this](const net::Message& msg) { HandleMessage(msg); });
  }

  // Seals and sends; enclave errors (unprovisioned, etc.) are dropped like
  // a lost message — uncertain communications subsume them.
  void SealAndSend(net::NodeId to, uint32_t type, const Bytes& payload) {
    (void)dev_->SendSealed(to, type, payload, query_tag_);
  }
  // Encode once, seal per recipient: the plaintext is shared across the
  // fan-out while each recipient gets its own pairwise-key ciphertext.
  void SealAndSendAll(const std::vector<net::NodeId>& targets, uint32_t type,
                      const Bytes& payload) {
    for (net::NodeId to : targets) SealAndSend(to, type, payload);
  }

  // Opens msg's sealed payload into a per-actor scratch (see
  // opened_payload()). The scratch is reused across messages, so the
  // steady-state receive path never allocates. It keeps the capacity of
  // the largest payload it held, so a handler for bulk payloads (snapshot
  // slices) opens into a buffer of its own instead.
  Status OpenSealed(const net::Message& msg) {
    return dev_->OpenPayloadInto(msg, &open_scratch_);
  }
  // Valid after an OK OpenSealed, until the next OpenSealed call.
  const Bytes& opened_payload() const { return open_scratch_; }

 private:
  net::Transport* net_;
  device::Device* dev_;
  uint64_t query_tag_;
  uint64_t birth_epoch_ = 0;
  Bytes open_scratch_;
};

// A chain operator (snapshot builder, computer, combiner): an actor that
// checkpoints into the recovery layer and renews a liveness lease at the
// repair controller. Kept apart from ActorBase so the crowd's contributor
// actors do not carry these fields.
class OperatorActor : public ActorBase {
 public:
  OperatorActor(net::Transport* net, device::Device* dev, uint64_t query_tag,
                CheckpointFn checkpoint)
      : ActorBase(net, dev, query_tag), checkpoint_(std::move(checkpoint)) {}

  // Starts the operator's timers: a fresh start, or a resume from the
  // config's resume_state.
  virtual void Start() = 0;

  // Serialized volatile state (what a checkpoint persists) and the
  // emission epoch it belongs to.
  virtual Bytes SerializeState() const = 0;
  virtual uint32_t checkpoint_epoch() const { return 0; }

 protected:
  // Starts renewing this operator's liveness lease (no-op unless the
  // config is enabled).
  void StartBeacon(const LivenessBeacon::Config& config);

  // Offers this actor's state to the checkpoint sink (no-op when recovery
  // is off), which serializes it only if it writes. `critical` bypasses
  // the sink's cadence throttle.
  void MaybeCheckpoint(bool critical) {
    if (checkpoint_) checkpoint_(*this, critical);
  }

 private:
  CheckpointFn checkpoint_;
  std::unique_ptr<LivenessBeacon> beacon_;
};

// The Querier endpoint: records the first final result (Active Backup may
// deliver duplicates).
class QuerierActor : public ActorBase {
 public:
  QuerierActor(net::Transport* net, device::Device* dev, uint64_t query_id,
               ExecutionTrace* trace = nullptr)
      : ActorBase(net, dev, query_id), query_id_(query_id), trace_(trace) {}

  bool has_result() const { return has_result_; }
  const FinalResultMsg& result() const { return result_; }
  SimTime result_time() const { return result_time_; }
  uint32_t duplicates() const { return duplicates_; }

 protected:
  void HandleMessage(const net::Message& msg) override;

 private:
  uint64_t query_id_;
  ExecutionTrace* trace_ = nullptr;
  bool has_result_ = false;
  FinalResultMsg result_;
  SimTime result_time_ = kSimTimeNever;
  uint32_t duplicates_ = 0;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_ACTOR_H_
