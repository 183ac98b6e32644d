#ifndef EDGELET_NET_NETWORK_H_
#define EDGELET_NET_NETWORK_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/message.h"
#include "net/simulator.h"

namespace edgelet::net {

// Latency model: fixed floor plus an exponential tail, which matches
// uncertain edge communications far better than a Gaussian (long right
// tail, never negative). min_latency doubles as the parallel engine's
// lookahead: no delivery lands sooner, so a window of that width never
// sees a cross-shard event materialize inside itself.
struct LatencyModel {
  SimDuration min_latency = 20 * kMillisecond;
  // Mean of the exponential component added on top of min_latency.
  SimDuration mean_extra = 80 * kMillisecond;

  SimDuration Sample(NodeRng& rng) const;
};

// Per-node availability pattern. kAlwaysOn models a plugged-in PC;
// kIntermittent alternates exponential online/offline periods (smartphone
// churn); kOpportunistic is mostly-offline with brief contact windows —
// the OppNet extreme the paper targets.
struct ChurnModel {
  SimDuration mean_online = 0;   // 0 => always on
  SimDuration mean_offline = 0;  // 0 => never goes offline
  bool starts_online = true;

  static ChurnModel AlwaysOn() { return {}; }
  static ChurnModel Intermittent(SimDuration mean_online,
                                 SimDuration mean_offline) {
    return {mean_online, mean_offline, true};
  }
};

struct NetworkConfig {
  LatencyModel latency;
  // Link throughput in bytes/second; 0 = infinite (no serialization
  // delay). Large payloads (snapshot slices) then take proportionally
  // longer than control pings.
  uint64_t bytes_per_second = 0;
  // Probability that a message in flight is silently lost.
  double drop_probability = 0.0;
  // Store-and-forward: messages to an offline node wait in its mailbox and
  // are delivered when it reconnects (opportunistic networking). When
  // false, such messages are dropped.
  bool store_and_forward = true;
  // Messages older than this are purged from mailboxes (0 = keep forever).
  SimDuration mailbox_ttl = 0;
};

struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t dropped_random = 0;
  uint64_t dropped_sender_offline = 0;
  uint64_t dropped_receiver_offline = 0;
  uint64_t dropped_dead = 0;
  uint64_t expired_in_mailbox = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_delivered = 0;
  // Payload-pool telemetry: reuses counts acquisitions served from the
  // pool rather than by a fresh allocation.
  uint64_t payload_buffers_reused = 0;
  // Fault-injection telemetry (src/chaos): messages swallowed, extra
  // copies injected, payloads bit-flipped, and deliveries delay-spiked by
  // the attached FaultInjector.
  uint64_t chaos_dropped = 0;
  uint64_t chaos_duplicates = 0;
  uint64_t chaos_corrupted = 0;
  uint64_t chaos_delayed = 0;
};

// Per-query slice of the network counters, keyed by Message::query_tag.
// Only the four counters an execution report attributes are tracked; the
// drop taxonomy stays global. A tagged message increments its query's slice
// at exactly the points the global counters increment, so for a lone query
// the slice equals the global delta.
struct QueryNetStats {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t bytes_delivered = 0;
};

// Verdict of the fault-injection layer for one outgoing message. The
// injector may additionally mutate the payload in place (bit flips); it
// reports that through `corrupted` so the network can count it.
struct FaultVerdict {
  bool drop = false;
  // Extra copies to put in flight (each samples its own loss/latency, so a
  // duplicate can overtake the original: duplication plus reordering).
  uint32_t duplicates = 0;
  // Added to every copy's sampled latency (latency spike / reordering).
  SimDuration extra_latency = 0;
  bool corrupted = false;
};

// Hook for the deterministic chaos layer (src/chaos). OnSend runs in the
// sender's event context — under the parallel engine that means on the
// sender's shard — so implementations must draw randomness only from
// per-sender counter-based streams and touch only per-sender state.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultVerdict OnSend(Message& msg, SimTime now) = 0;
};

// Simulated communication fabric between edgelets. Delivery is
// point-to-point with sampled latency, random loss, churn-awareness, and
// optional store-and-forward for opportunistic delivery.
//
// Engine independence: every random draw (latency, loss, churn dwell)
// comes from the drawing node's own counter-based stream (NodeRng), and
// every mutation of a node's state happens inside that node's event
// callbacks — deliveries run on the receiver's timeline, churn and death
// on the affected node's. Under the parallel engine each shard therefore
// only writes its own nodes' state, and the same simulation produces
// bit-identical results for any shard count. The only genuinely shared
// counters — stats and the payload pool — are sharded and merged on read.
class Network {
 public:
  Network(SimEngine* engine, NetworkConfig config);

  // Registers a node and returns its id (ids are dense, from 1). Nodes
  // register only while devices are built, before any run: the node table
  // may grow here, so no event callback or worker may be running. During a
  // run each shard or live worker mutates only its own nodes' entries.
  NodeId Register(Node* node, ChurnModel churn = ChurnModel::AlwaysOn());

  // Sends msg.from -> msg.to. Messages from offline or dead nodes are lost.
  void Send(Message msg);

  // Permanently removes a node from the network (device failure / power
  // off). Pending deliveries to it are dropped. During a run this must
  // execute on the victim's own timeline (schedule it with owner = id, as
  // device::ScheduleFailures does).
  void Kill(NodeId id);
  bool IsDead(NodeId id) const;

  // Recoverable variant of Kill: the device loses power mid-query (volatile
  // state gone, pending deliveries dropped, inbound traffic bounces off a
  // dead node) but may later be revived with Restart. On the wire the two
  // are indistinguishable until the restart happens — that is the point.
  // Same ownership rule as Kill (run on the victim's own timeline).
  void Crash(NodeId id) { Kill(id); }

  // Revives a crashed node: clears the dead flag, brings it online, invokes
  // Node::OnRestart() (where devices replay their sealed store), and
  // restarts the churn chain. No-op on live or unknown nodes. Must execute
  // on the victim's own timeline, like Kill/Crash.
  void Restart(NodeId id);

  // Forced availability control (demo-style "power off this box"). Same
  // ownership rule as Kill when called mid-run.
  void SetOnline(NodeId id, bool online);
  bool IsOnline(NodeId id) const;

  // Totals across shards. Call between runs (shard buffers are quiescent).
  NetworkStats stats() const;
  // Totals for one query's tagged traffic, merged across shards. Same
  // quiescence rule as stats(). Unknown tags read as all-zero.
  QueryNetStats query_stats(uint64_t query_tag) const;
  SimEngine* engine() { return engine_; }
  size_t num_nodes() const { return nodes_.size(); }

  // Rewinds every live node's random stream to its registration state
  // (counter 0 of NodeRng(engine seed, id)). Call only when the network is
  // quiescent — between executions, never from inside an event callback.
  // This is what makes a sequentially reused framework behave exactly like
  // a fresh one for churn-free fleets; with churn enabled the in-flight
  // dwell chains have already consumed draws, so reuse stays deterministic
  // but is not fresh-equivalent (see DESIGN.md §5i).
  void ResetNodeStreams();

  // Attaches (or detaches, with nullptr) the fault-injection layer. The
  // injector is consulted on every send from a live sender, in the
  // sender's event context, and may drop, duplicate, delay, or corrupt the
  // message before the network's own loss/latency model applies. Attach
  // between runs only (not from inside an event callback).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // --- Payload buffer pool ----------------------------------------------
  // Message payloads cycle sender -> network -> receiver -> pool: a sender
  // seals into an acquired buffer, and the network returns the buffer to
  // the pool once the message is consumed (delivered, dropped, or expired).
  // In steady state no per-message heap allocation happens. Buffers keep
  // their capacity, so only small ones are pooled: a buffer whose capacity
  // exceeds kMaxPooledPayloadBytes (a bulk snapshot slice) is freed on
  // recycling rather than left to carry 125-byte contributions at the size
  // of the largest message it ever held. The pool's length is bounded too,
  // so bursts do not pin memory. Pools are per shard: a buffer freed on a
  // shard is reused by it.
  Bytes AcquirePayloadBuffer();
  void RecyclePayloadBuffer(Bytes&& buf);
  static constexpr size_t kMaxPooledPayloadBytes = 4 * 1024;

 private:
  struct NodeState {
    Node* node = nullptr;
    bool online = true;
    bool dead = false;
    ChurnModel churn;
    // This node's private random stream: its churn dwells plus the
    // latency/loss draws for messages it sends.
    NodeRng rng;
    // (enqueue time, message) waiting for the node to come back online.
    std::vector<std::pair<SimTime, Message>> mailbox;
  };
  // Shard-local mutable counters, cache-line separated so workers do not
  // false-share.
  struct alignas(64) ShardState {
    NetworkStats stats;
    // query_tag -> this shard's slice of that query's counters. Entries are
    // few (one per in-flight query) and merged on read by query_stats().
    std::unordered_map<uint64_t, QueryNetStats> query_stats;
    std::vector<Bytes> payload_pool;
  };

  // The state of node `id`, or null when no node has that id.
  NodeState* Find(NodeId id) {
    return id - 1 < nodes_.size() ? &nodes_[id - 1] : nullptr;
  }
  const NodeState* Find(NodeId id) const {
    return id - 1 < nodes_.size() ? &nodes_[id - 1] : nullptr;
  }
  void Deliver(Message msg);
  // Applies the network's own loss/latency model to one in-flight copy and
  // schedules its delivery. `extra_latency` is the chaos layer's spike.
  void SampleAndDispatch(Message msg, NodeRng& rng, SimDuration extra_latency,
                         NetworkStats& stats);
  void ScheduleChurnTransition(NodeId id);
  void FlushMailbox(NodeId id);
  // A consumed message's payload goes back to the pool.
  void Recycle(Message&& msg) { RecyclePayloadBuffer(std::move(msg.payload)); }
  NetworkStats& stats_here() { return shard_[engine_->current_shard()].stats; }

  static constexpr size_t kMaxPooledBuffers = 1024;

  SimEngine* engine_;
  NetworkConfig config_;
  FaultInjector* injector_ = nullptr;
  std::vector<NodeState> nodes_;  // nodes_[id - 1]
  std::vector<ShardState> shard_;
};

}  // namespace edgelet::net

#endif  // EDGELET_NET_NETWORK_H_
