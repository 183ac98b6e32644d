#ifndef EDGELET_NET_PARSIM_PARALLEL_SIMULATOR_H_
#define EDGELET_NET_PARSIM_PARALLEL_SIMULATOR_H_

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "net/parsim/engine.h"
#include "net/parsim/shard_queue.h"

namespace edgelet::net::parsim {

// Conservative (window-barrier) parallel discrete-event engine. Nodes are
// sharded across worker threads by `node_id % num_shards`; each round the
// workers execute their shards' events inside [w, w + lookahead) — the
// lookahead being the minimum cross-node scheduling delay (for Edgelet,
// the minimum link latency) — then meet at a barrier where cross-shard
// schedules and cancels buffered in per-shard outboxes are merged. Because
// no cross-shard event can land inside the window that produced it, every
// shard sees all of a node's events before their time comes, and executing
// them in the deterministic (time, origin, origin-seq) key order of
// SimEngine reproduces the serial engine's per-node schedule exactly — for
// any shard count, including 1.
//
// Rendezvous protocol (fused two-phase): every shard publishes its head
// time (earliest pending event) into an atomic slot after each merge, and
// every participant — the coordinator and all workers — then computes the
// SAME window plan from those published heads, `until`, and the lookahead.
// That redundant computation is what eliminates the third barrier the
// engine used to spend publishing coordinator-computed window parameters:
// a round is now exactly (execute -> barrier -> merge+publish -> barrier),
// and plan agreement follows from plan purity, not from a rendezvous.
//
// Window batching (solo windows): when only one shard has work within a
// lookahead of the global minimum — `second_head >= next + L`, which for
// num_shards == 1 is always — the plan lets that shard run alone up to
// min(until, second_head + L - 1) while the others skip straight to the
// merge. The naive version of this (run to second_head - 1) is unsound:
// a transfer the solo shard emits landing at time tau can wake another
// shard, whose reply may legally land back on the solo shard at tau + L —
// inside the extended span. The fix is the lookahead bound applied to
// *observed* activity: the solo shard's limit starts at second_head + L - 1
// and is dynamically clamped to tau + L - 1 by every transfer it emits, so
// nothing executes at or past the earliest instant another shard's
// causality could reach back. Batching long idle gaps into one round this
// way is what amortizes barrier convergence under short lookahead.
//
// Threading model: all shard state is single-writer inside a phase: a
// shard's queue is touched only by its worker during execute/merge and
// only by the coordinating thread between runs; outbox (a -> b) is written
// by a during execute and drained by b during merge, with a per-
// destination atomic bitmask of nonempty sources so the merge scan skips
// self and idle sources. Everything else (ScheduleAt/Cancel from the
// coordinating thread) requires the engine to be idle.
class ParallelSimulator : public SimEngine {
 public:
  struct Options {
    size_t num_shards = 1;
    // Window width; must not exceed the minimum cross-node scheduling
    // delay or cross-shard events become causally late (counted in
    // lookahead_violations, not repaired). Clamped to >= 1 microsecond.
    SimDuration lookahead = 20 * kMillisecond;
  };

  // Rendezvous/batching telemetry, aggregated across shards on read.
  struct BatchStats {
    uint64_t windows = 0;       // rounds driven (each = 2 barrier phases)
    uint64_t solo_windows = 0;  // rounds one shard ran alone (batched)
    uint64_t transfers = 0;     // cross-shard events merged
    // High-water marks: most transfers one shard absorbed in one merge,
    // and most live entries the remote-event index ever held.
    size_t inbox_hwm = 0;
    size_t remote_map_hwm = 0;
  };

  ParallelSimulator(uint64_t seed, Options options);
  ~ParallelSimulator() override;

  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  SimTime now() const override;
  uint64_t seed() const override { return seed_; }

  using SimEngine::ScheduleAfter;
  using SimEngine::ScheduleAt;
  uint64_t ScheduleAt(NodeId owner, SimTime t,
                      std::function<void()> fn) override;
  bool Cancel(uint64_t event_id) override;
  size_t RunUntil(SimTime until) override;
  void ReserveEvents(size_t n) override;
  size_t events_executed() const override;
  size_t pending_events() const override;

  size_t num_shards() const override { return shards_.size(); }
  size_t current_shard() const override;
  size_t ShardOf(NodeId node) const override {
    return static_cast<size_t>(node % shards_.size());
  }

  SimDuration lookahead() const { return lookahead_; }
  // Cross-shard schedules violating the lookahead contract — the target
  // landed within lookahead of the scheduling event (engine.h: cross-node
  // targets must be >= lookahead in the future). The engine still runs
  // them, but cross-engine determinism is void. Zero in a correct setup.
  uint64_t lookahead_violations() const {
    return lookahead_violations_.load(std::memory_order_relaxed);
  }
  // Call between runs only (worker counters are quiescent).
  BatchStats batch_stats() const;

 protected:
  NodeId CurrentContextNode() const override;

 private:
  // A cross-shard schedule buffered until the next barrier.
  struct Transfer {
    SimTime time = 0;
    uint64_t tiebreak = 0;
    uint64_t remote_key = 0;
    NodeId owner = kInvalidNode;
    std::function<void()> fn;
  };

  struct alignas(64) Shard {
    size_t index = 0;
    ShardQueue queue;
    SimTime now = 0;
    NodeId current_node = kInvalidNode;
    size_t executed = 0;
    // Inclusive execution limit for the current round. Static from the
    // window plan, then clamped by the solo shard's own emitted transfers
    // (see the batching soundness note above).
    SimTime exec_limit = 0;
    // Per-origin schedule counters for owned nodes (index = node /
    // num_shards) feeding the deterministic tiebreak.
    std::vector<uint64_t> oseq;
    // outbox[d] / cancel_outbox[d]: schedules and cancels bound for shard
    // d, drained by d's worker in the merge phase. The vectors keep their
    // capacity across rounds (clear, not shrink): steady state recycles
    // the same slabs instead of allocating.
    std::vector<std::vector<Transfer>> outbox;
    std::vector<std::vector<uint64_t>> cancel_outbox;
    // Per-destination counters naming cross-shard events (remote handles).
    std::vector<uint64_t> rseq_out;
    // remote key -> packed local ticket, for cross-shard Cancel.
    FlatTable64<uint64_t> remote_map;
    // Head time as of this shard's last merge, the input every
    // participant's window plan is computed from. Relaxed stores/loads:
    // the barrier between merge and planning orders them.
    std::atomic<SimTime> head_published{kSimTimeNever};
    // Bit per source shard with a nonempty outbox or cancel_outbox aimed
    // here; a source sets its bit on the empty -> nonempty transition and
    // the merge exchanges the words to zero. Two words cover kMaxShards.
    std::atomic<uint64_t> inbound_mask[2] = {0, 0};
    // Telemetry (single-writer: this shard's worker).
    uint64_t transfers_in = 0;
    size_t inbox_hwm = 0;
    size_t remote_map_hwm = 0;
  };

  enum class Command : uint8_t { kRun, kShutdown };

  // Deterministic pure function of (published heads, until_, lookahead_):
  // every participant computes it independently and identically.
  struct WindowPlan {
    bool run = false;
    bool solo = false;
    size_t solo_shard = 0;
    SimTime limit = 0;  // inclusive
  };
  WindowPlan PlanWindow() const;

  uint64_t NextOseq(Shard& shard, NodeId origin);
  bool ApplyLocalCancel(size_t dest, uint64_t event_id);
  void MarkInbound(Shard& from, size_t dest);
  void WorkerLoop(size_t index);
  void ExecuteWindow(Shard& shard, SimTime limit);
  void MergeInbound(Shard& shard);

  uint64_t seed_ = 0;
  SimDuration lookahead_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  std::barrier<> sync_;

  // Run parameters: written by the coordinator before the run-start
  // barrier, read by workers after it (the barrier orders the accesses).
  Command command_ = Command::kRun;
  SimTime until_ = 0;

  SimTime global_now_ = 0;
  std::atomic<uint64_t> lookahead_violations_{0};
  // Coordinator-side telemetry (written only between barriers).
  uint64_t windows_ = 0;
  uint64_t solo_windows_ = 0;
};

}  // namespace edgelet::net::parsim

#endif  // EDGELET_NET_PARSIM_PARALLEL_SIMULATOR_H_
