#ifndef EDGELET_CHAOS_CHAOS_H_
#define EDGELET_CHAOS_CHAOS_H_

#include <string>
#include <vector>

#include "net/network.h"

namespace edgelet::chaos {

// A timed connectivity outage. While `now` is inside [start, end) the
// affected messages are swallowed before the network's own loss model even
// sees them. With `partition_only` the window models a network partition:
// only traffic *crossing* the cut between `nodes` and everyone else is
// lost, intra-side traffic flows normally. Without it the window is a
// blackhole: anything sent by or addressed to an affected node is lost.
// An empty node list means every node is affected (total blackout).
struct OutageWindow {
  SimTime start = 0;
  SimTime end = 0;
  std::vector<net::NodeId> nodes;
  bool partition_only = false;
};

// Knobs of the deterministic fault injector. Each probability is evaluated
// per message from the sending node's private chaos stream; disabled knobs
// (probability or count of 0) consume no draws, so a scenario's stream
// layout is a pure function of its config.
struct ChaosConfig {
  // Chaos stream seed — deliberately separate from the engine seed so the
  // same experiment can be replayed under different fault schedules (and
  // vice versa).
  uint64_t seed = 0;

  // Duplication: with this probability, put 1..max_duplicates extra exact
  // copies of the message in flight. Each copy samples its own latency, so
  // a duplicate can overtake the original (duplication + reordering).
  double duplicate_probability = 0.0;
  uint32_t max_duplicates = 2;

  // Latency spikes: with this probability, add an exponential extra delay
  // with the given mean to the message (and its duplicates) — the
  // reordering / congestion fault.
  double delay_spike_probability = 0.0;
  SimDuration delay_spike_mean = 2 * kSecond;

  // Independent per-message loss, on top of NetworkConfig::drop_probability.
  double drop_probability = 0.0;

  // Drop bursts: with burst_start_probability, this message and the next
  // burst_length - 1 messages from the same sender are all lost (radio
  // fade / interface flap).
  double burst_start_probability = 0.0;
  uint32_t burst_length = 0;

  // Sealed-payload bit flips: with this probability, flip 1..max_bit_flips
  // random bits of the payload in place. Sealed payloads then fail AEAD
  // authentication at the receiver; the fault tests that corruption is
  // contained, not that it is survived byte-for-byte.
  double corrupt_probability = 0.0;
  uint32_t max_bit_flips = 3;

  // Timed partitions / blackholes, checked first and without randomness.
  std::vector<OutageWindow> outages;

  // Message-type scoping: when non-empty, only messages whose wire `type`
  // appears here are eligible for any fault; everything else passes
  // through untouched and consumes no chaos draws. Lets a scenario target
  // exactly the traffic the protocol re-sends (snapshot slices, computed
  // partials, final results) so a lossy run stays recoverable — the
  // cross-backend chaos conformance leg is built on this.
  std::vector<uint32_t> only_message_types;
};

// The probabilistic fault kinds, for scenario-matrix sweeps.
enum class FaultKind {
  kDrop,
  kBurst,
  kDuplicate,
  kDelay,
  kCorrupt,
};

const char* FaultKindName(FaultKind kind);

// Canonical single-fault scenario: only `kind` enabled, at `rate`, with
// representative secondary knobs (burst length 4, up to 2 duplicates, 2 s
// mean spike, up to 3 bit flips). The matrix test/bench sweeps these.
ChaosConfig MakeFaultScenario(FaultKind kind, uint64_t seed, double rate);

// Deterministic message-level fault injector (see net::FaultInjector for
// the execution-context contract). Every draw comes from the *sending*
// node's counter-based stream NodeRng(Mix(seed), node_id) — disjoint from
// the network's own streams, which are keyed by the engine seed — and the
// only mutable state is per-sender, so the injector is safe under the
// parallel engine and replays bit-identically at any shard count.
class ChaosInjector : public net::FaultInjector {
 public:
  explicit ChaosInjector(ChaosConfig config);

  // Sizes the per-sender state for the network's current node set, resets
  // all chaos streams, and installs this injector on the network. Call
  // after every node is registered and only between runs. Messages from
  // nodes registered later pass through unfaulted.
  // Works on every engine: under the live one the OnSend hook runs in the
  // sender's worker thread, which the per-sender state layout already
  // supports (shard == thread there).
  void AttachTo(net::Network* network);
  // Uninstalls from the network (if still installed).
  void Detach();

  net::FaultVerdict OnSend(net::Message& msg, SimTime now) override;

  const ChaosConfig& config() const { return config_; }

 private:
  // Cache-line separated: under parsim, concurrent senders on different
  // shards each touch only their own slot.
  struct alignas(64) SenderState {
    NodeRng rng;
    uint32_t burst_remaining = 0;
  };

  bool InOutage(const net::Message& msg, SimTime now) const;

  ChaosConfig config_;
  net::Network* network_ = nullptr;
  std::vector<SenderState> senders_;  // indexed by NodeId (ids start at 1)
};

}  // namespace edgelet::chaos

#endif  // EDGELET_CHAOS_CHAOS_H_
