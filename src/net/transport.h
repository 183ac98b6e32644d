#ifndef EDGELET_NET_TRANSPORT_H_
#define EDGELET_NET_TRANSPORT_H_

#include <functional>
#include <memory>
#include <utility>

#include "net/network.h"
#include "net/parsim/engine.h"

namespace edgelet::net {

// The handle the edgelet protocol runs on: an engine (the timers and the
// clock) and the Network over it (the delivery fabric). Any SimEngine
// backs it — the serial Simulator, parsim::ParallelSimulator or the
// wall-clock live::LiveEngine — so exec:: actors, repair and recovery
// compile against this one concrete class and never name an engine.
// Messages go out through device::Device::SendSealed and come back
// through the Node delivery callbacks; time and timers come from here.
//
// Execution scope: a handle built with a scope token wraps every callback
// it schedules so that, once the token reads false, the callback returns
// without running. A live execution's timers can outlast it (the live
// engine runs events late), and its owner clears the token before its
// actors go. Clear it only outside RunUntil, when no callback is running:
// the engine's run/park hand-off orders that write before every later
// read on a worker thread. An unscoped handle schedules straight onto the
// engine.
class Transport {
 public:
  Transport() = default;
  Transport(SimEngine* engine, Network* network,
            std::shared_ptr<const bool> scope = nullptr)
      : engine_(engine), network_(network), scope_(std::move(scope)) {}

  // Time of the calling context: the event time under the DES engines,
  // scaled wall-clock time under the live engine.
  SimTime now() const { return engine_->now(); }

  // Schedules `fn` at absolute time `t` on `owner`'s timeline. Under the
  // DES engines the callback runs at exactly t; under the live engine it
  // runs on owner's worker thread once the scaled wall clock passes t.
  // Returns the engine's event id (engine()->Cancel takes it).
  uint64_t ScheduleAt(NodeId owner, SimTime t, std::function<void()> fn) {
    if (scope_ == nullptr) return engine_->ScheduleAt(owner, t, std::move(fn));
    return engine_->ScheduleAt(owner, t,
                               [scope = scope_, fn = std::move(fn)]() {
                                 if (*scope) fn();
                               });
  }
  uint64_t ScheduleAfter(NodeId owner, SimDuration delay,
                         std::function<void()> fn) {
    return ScheduleAt(owner, SatAdd(now(), delay), std::move(fn));
  }

  // Run control (orchestration layer, not actors): advances the engine
  // until every message and timer due by `until` ran. DES: exact event
  // replay. Live: blocks until the workers drained everything due by
  // `until`; no callback runs outside a RunUntil window.
  size_t RunUntil(SimTime until) { return engine_->RunUntil(until); }

  // The timer/clock engine underneath (seed, shard metadata, event
  // accounting, is_live). Protocol code schedules through the handle.
  SimEngine* engine() const { return engine_; }
  // The delivery fabric (device registration, kill/churn, stats, payload
  // pools, fault injector).
  Network* network() const { return network_; }

 private:
  SimEngine* engine_ = nullptr;
  Network* network_ = nullptr;
  std::shared_ptr<const bool> scope_;
};

}  // namespace edgelet::net

#endif  // EDGELET_NET_TRANSPORT_H_
