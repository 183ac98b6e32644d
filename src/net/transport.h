#ifndef EDGELET_NET_TRANSPORT_H_
#define EDGELET_NET_TRANSPORT_H_

#include <functional>
#include <memory>

#include "net/clock.h"
#include "net/network.h"
#include "net/parsim/engine.h"

namespace edgelet::net {

// The substrate the edgelet protocol runs on: sealed wire Messages in,
// delivery callbacks out, plus the timer surface (ScheduleAfter /
// CancelTimer) every heartbeat, lease, backoff and failover loop is built
// from. Two backends exist:
//
//   * SimTransport              — the discrete-event backends (serial
//     Simulator or parsim::ParallelSimulator) behind the existing
//     net::Network. Deterministic, bit-identical replay.
//   * live::ThreadTransport     — real worker threads, per-worker MPSC
//     timer mailboxes carrying the same sealed payloads, and a
//     steady_clock-driven Clock. Concurrency and timing are real; only
//     *valid-result* equivalence (not event-order identity) is promised.
//
// exec:: actors, resilience::FailureDetector and exec::repair compile
// against this interface only: time comes from the injected Clock (the
// transport is one), timers from ScheduleAfter/CancelTimer, and messages
// from Send/the Node delivery callbacks — never from a concrete engine.
// The cross-backend conformance suite (exec_transport_conformance_test)
// holds the two implementations to the same observable protocol results.
class Transport : public Clock {
 public:
  ~Transport() override = default;

  // --- Timers ------------------------------------------------------------
  // Schedules `fn` at absolute time `t` on `owner`'s timeline. Under the
  // DES backends the callback runs at exactly t; under the live backend it
  // runs on owner's worker thread once the scaled wall clock passes t.
  // Returns a handle for CancelTimer (kInvalidEventId on failure).
  virtual uint64_t ScheduleAt(NodeId owner, SimTime t,
                              std::function<void()> fn) = 0;
  uint64_t ScheduleAfter(NodeId owner, SimDuration delay,
                         std::function<void()> fn) {
    return ScheduleAt(owner, SatAdd(now(), delay), std::move(fn));
  }
  // Cancels a pending timer; false if it already fired or was cancelled.
  virtual bool CancelTimer(uint64_t timer_id) = 0;

  // --- Wire --------------------------------------------------------------
  // Hands a sealed wire message to the delivery fabric; the receiver's
  // Node::OnMessage callback fires on the receiver's own timeline/thread.
  // Loss, latency and the FaultInjector hook apply on both backends.
  virtual void Send(Message msg) = 0;

  // --- Run control (orchestration layer, not actors) ----------------------
  // Advances the transport until every deliverable message/timer at or
  // before `until` ran. DES: exact event replay. Live: blocks the calling
  // thread until the workers drained everything due by `until`; no actor
  // callback runs outside a RunUntil window, which is what makes
  // construction/report phases safe without extra locking.
  virtual size_t RunUntil(SimTime until) = 0;

  // The delivery fabric (device registration, kill/churn, stats, payload
  // pools). Both backends drive a net::Network — the live one simply runs
  // it over real threads — so orchestration code can stay backend-neutral
  // while still reaching the full Network surface.
  virtual Network* network() = 0;
  const Network* network() const {
    return const_cast<Transport*>(this)->network();
  }
  // The timer/clock engine underneath (seed, shard metadata, event
  // accounting). Never use it to schedule from protocol code.
  virtual SimEngine* engine() = 0;
  const SimEngine* engine() const {
    return const_cast<Transport*>(this)->engine();
  }

  // True for wall-clock (thread) backends: timing-sensitive assertions and
  // bit-exact fingerprint checks must not run against a live transport.
  virtual bool is_live() const { return false; }
};

// The DES-backed transport: a thin, non-owning adapter over the engine +
// network pair every existing test and bench already constructs. Pure
// delegation — going through SimTransport is bit-identical to calling the
// engine/network directly, so all pre-transport determinism fingerprints
// still hold.
class SimTransport : public Transport {
 public:
  SimTransport(SimEngine* engine, Network* network)
      : engine_(engine), network_(network) {}

  SimTime now() const override { return engine_->now(); }
  uint64_t ScheduleAt(NodeId owner, SimTime t,
                      std::function<void()> fn) override {
    return engine_->ScheduleAt(owner, t, std::move(fn));
  }
  bool CancelTimer(uint64_t timer_id) override {
    return engine_->Cancel(timer_id);
  }
  void Send(Message msg) override { network_->Send(std::move(msg)); }
  size_t RunUntil(SimTime until) override { return engine_->RunUntil(until); }
  Network* network() override { return network_; }
  SimEngine* engine() override { return engine_; }

 private:
  SimEngine* engine_;
  Network* network_;
};

// A view of another transport for objects destroyed while timers they
// scheduled may still be pending: once the view is gone, those callbacks
// return without running. Destroy it only outside RunUntil, when no
// callback is running. Everything else passes straight through.
class ScopedTransport : public Transport {
 public:
  explicit ScopedTransport(Transport* base)
      : base_(base), alive_(std::make_shared<bool>(true)) {}
  ~ScopedTransport() override { *alive_ = false; }

  SimTime now() const override { return base_->now(); }
  uint64_t ScheduleAt(NodeId owner, SimTime t,
                      std::function<void()> fn) override {
    return base_->ScheduleAt(owner, t,
                             [alive = alive_, fn = std::move(fn)]() {
                               if (*alive) fn();
                             });
  }
  bool CancelTimer(uint64_t timer_id) override {
    return base_->CancelTimer(timer_id);
  }
  void Send(Message msg) override { base_->Send(std::move(msg)); }
  size_t RunUntil(SimTime until) override { return base_->RunUntil(until); }
  Network* network() override { return base_->network(); }
  SimEngine* engine() override { return base_->engine(); }
  bool is_live() const override { return base_->is_live(); }

 private:
  Transport* base_;
  std::shared_ptr<bool> alive_;
};

}  // namespace edgelet::net

#endif  // EDGELET_NET_TRANSPORT_H_
