#ifndef EDGELET_NET_PARSIM_ENGINE_H_
#define EDGELET_NET_PARSIM_ENGINE_H_

#include <cstdint>
#include <functional>

#include "common/sim_time.h"
#include "net/message.h"

namespace edgelet::net {

// Invalid event handle: returned when scheduling fails, accepted (and
// rejected) by Cancel.
constexpr uint64_t kInvalidEventId = 0;

// The engine interface: the one seam between the protocol and what runs
// it. Three implementations exist:
//
//   * net::Simulator           — the single-threaded engine.
//   * parsim::ParallelSimulator — a conservative (window-barrier) parallel
//     engine that shards nodes across worker threads.
//   * live::LiveEngine         — worker threads and a scaled wall clock
//     (is_live()); it promises valid results, not event order, and the
//     paragraph below does not apply to it.
//
// The two discrete-event engines execute events in (time, origin,
// origin-sequence) order, where `origin` is the node whose callback
// scheduled the event and the origin sequence counts that node's schedule
// calls. Because the key is derived from per-node quantities only — never
// from a global scheduling order — the execution order of any one node's
// events is identical for every shard count, including the serial engine.
// That, plus per-node RNG streams (common/rng.h NodeRng) and shard-local
// stats buffers, is what makes an entire simulation bit-identical across
// engines.
//
// Contract for users scheduling onto *another* node's timeline (message
// deliveries): the target time must be at least `lookahead` in the future,
// where lookahead is the engine's window width (the minimum cross-node
// link latency). Events a node schedules for itself have no such bound —
// a zero-latency self-send stays intra-shard by construction.
class SimEngine {
 public:
  virtual ~SimEngine() = default;

  // Current simulated time of the calling context. Inside an event
  // callback this is the event's time (per-shard during a parallel run);
  // outside a run it is the time of the last executed event.
  virtual SimTime now() const = 0;

  // True for the wall-clock engine: timing-sensitive assertions and
  // bit-exact fingerprint checks must not run against it.
  virtual bool is_live() const { return false; }

  // Schedules `fn` at absolute time `t` (>= now) on `owner`'s timeline;
  // the owner decides which shard executes the callback. owner 0 is the
  // engine-global timeline (shard 0 in a parallel engine). Returns an
  // event id unique across shards (the owning shard lives in the high
  // bits) that can be passed to Cancel.
  virtual uint64_t ScheduleAt(NodeId owner, SimTime t,
                              std::function<void()> fn) = 0;

  uint64_t ScheduleAfter(NodeId owner, SimDuration delay,
                         std::function<void()> fn) {
    return ScheduleAt(owner, SatAdd(now(), delay), std::move(fn));
  }

  // Convenience overloads: the event stays on the calling context's
  // timeline (the node whose callback is executing, or the global
  // timeline outside a run).
  uint64_t ScheduleAt(SimTime t, std::function<void()> fn) {
    return ScheduleAt(CurrentContextNode(), t, std::move(fn));
  }
  uint64_t ScheduleAfter(SimDuration delay, std::function<void()> fn) {
    return ScheduleAfter(CurrentContextNode(), delay, std::move(fn));
  }

  // Cancels a pending event; returns false if it already ran or was
  // cancelled. Called from an event callback for an event owned by a
  // *different* shard, the cancel is applied at the next window barrier
  // and the return value reports only that it was enqueued; it is
  // deterministic iff the target event is at least `lookahead` in the
  // future (the same bound that applies to cross-node scheduling).
  virtual bool Cancel(uint64_t event_id) = 0;

  // Runs until the queue drains or the next event is past `until`.
  // Returns the number of events executed. Must be called from outside
  // any event callback.
  virtual size_t RunUntil(SimTime until) = 0;
  size_t Run() { return RunUntil(kSimTimeNever); }

  // Pre-sizes internal queues for `n` in-flight events (split across
  // shards in a parallel engine).
  virtual void ReserveEvents(size_t n) = 0;

  virtual size_t events_executed() const = 0;
  virtual size_t pending_events() const = 0;

  // Seed this engine was constructed with; per-node RNG streams derive
  // from (seed, node_id, draw_index).
  virtual uint64_t seed() const = 0;

  // --- Sharding metadata -------------------------------------------------
  // Shard-local buffers (NetworkStats, payload pools, ExecutionTrace)
  // index by current_shard(); a serial engine is one shard.
  virtual size_t num_shards() const { return 1; }
  // Shard executing the calling context (0 outside a run).
  virtual size_t current_shard() const { return 0; }
  virtual size_t ShardOf(NodeId node) const {
    (void)node;
    return 0;
  }

 protected:
  // Node whose event callback is executing in the calling context, or 0.
  virtual NodeId CurrentContextNode() const = 0;
};

}  // namespace edgelet::net

#endif  // EDGELET_NET_PARSIM_ENGINE_H_
