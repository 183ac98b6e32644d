#ifndef EDGELET_EXEC_REPLICA_H_
#define EDGELET_EXEC_REPLICA_H_

#include <functional>
#include <vector>

#include "device/device.h"
#include "exec/defaults.h"
#include "exec/protocol.h"
#include "net/transport.h"

namespace edgelet::exec {

// Leader/standby coordination for the Backup resiliency strategy ([14]):
// every replica of an operator receives the same inputs and maintains the
// same state (hot standby), but only the leader emits output. The leader
// pings its higher-ranked replicas periodically; replica r promotes itself
// when no lower-ranked replica has pinged for rank-graded timeout r*T, so
// takeovers cascade in rank order without a coordinator.
//
// With a singleton group (Overcollection mode) the role is trivially leader
// and completely silent — no ping traffic.
class ReplicaRole {
 public:
  struct Config {
    uint64_t group_id = 0;
    // Rank-ordered members; must contain the owning device's id.
    std::vector<net::NodeId> members;
    SimDuration ping_period = kPingPeriod;
    SimDuration failover_timeout = kFailoverTimeout;
    // Ping/monitor loop stops after this time (the query deadline);
    // prevents an idle replica group from keeping the simulation alive.
    SimTime stop_at = kSimTimeNever;
  };

  // `query_tag` is the owning actor's: leader pings carry it so the
  // group's devices route them to that query's actors.
  ReplicaRole(net::Transport* net, device::Device* dev, uint64_t query_tag,
              Config config);

  // Aborts the process if the role is misconfigured (see misconfigured()):
  // a replica that can neither ping nor promote must not run.
  void Start();

  // True when the owning device is absent from config.members — a planner
  // bug that previously went silent (the device got rank == members.size()
  // and simply never participated).
  bool misconfigured() const { return misconfigured_; }

  uint32_t rank() const { return rank_; }
  bool is_leader() const { return believes_leader_; }
  size_t group_size() const { return config_.members.size(); }
  uint64_t group_id() const { return config_.group_id; }

  // Routed by the owning actor for kLeaderPing messages of this group.
  void HandlePing(const LeaderPingMsg& ping);

  // Invoked once when this replica decides to take over.
  void set_on_promote(std::function<void()> fn) { on_promote_ = std::move(fn); }

 private:
  void Tick();

  net::Transport* net_;
  device::Device* dev_;
  uint64_t query_tag_;
  Config config_;
  uint32_t rank_ = 0;
  bool misconfigured_ = false;
  bool believes_leader_ = false;
  bool promoted_fired_ = false;
  SimTime last_lower_ping_ = 0;
  std::function<void()> on_promote_;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_REPLICA_H_
