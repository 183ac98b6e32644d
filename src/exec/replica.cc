#include "exec/replica.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"

namespace edgelet::exec {

ReplicaRole::ReplicaRole(net::Transport* net, device::Device* dev,
                         uint64_t query_tag, Config config)
    : net_(net),
      dev_(dev),
      query_tag_(query_tag),
      config_(std::move(config)) {
  auto it = std::find(config_.members.begin(), config_.members.end(),
                      dev_->id());
  if (it == config_.members.end()) {
    // A device outside its own member list would silently get
    // rank_ == members.size(): it never pings, never counts as a lower
    // rank for anyone, and never promotes — a dead replica that looks
    // alive. Surface the planner bug instead of simulating around it.
    misconfigured_ = true;
    rank_ = static_cast<uint32_t>(config_.members.size());
    EDGELET_LOG(kError) << "ReplicaRole: device " << dev_->id()
                        << " is not in the member list of replica group "
                        << config_.group_id << " (size "
                        << config_.members.size() << ")";
    return;
  }
  rank_ = static_cast<uint32_t>(it - config_.members.begin());
  believes_leader_ = (rank_ == 0);
}

void ReplicaRole::Start() {
  if (misconfigured_) {
    EDGELET_LOG(kError) << "ReplicaRole: refusing to start device "
                        << dev_->id() << " in replica group "
                        << config_.group_id
                        << ": not a member (planner misconfiguration)";
    std::abort();
  }
  if (config_.members.size() <= 1) return;  // singleton: silent leader
  last_lower_ping_ = net_->now();
  Tick();
}

void ReplicaRole::Tick() {
  if (net_->now() >= config_.stop_at) return;
  net::Network* network = dev_->network();
  if (network->IsDead(dev_->id())) return;  // crashed: role ends
  if (!network->IsOnline(dev_->id())) {
    // Disconnected: cannot observe pings reliably or act; check again
    // later without promoting (the mailbox will replay missed pings).
    last_lower_ping_ = net_->now();
    net_->ScheduleAfter(dev_->id(), config_.ping_period, [this]() { Tick(); });
    return;
  }
  if (believes_leader_) {
    // Announce liveness to all higher-ranked replicas.
    LeaderPingMsg ping{config_.group_id, rank_};
    Bytes payload = ping.Encode();
    for (size_t r = rank_ + 1; r < config_.members.size(); ++r) {
      dev_->SendControl(config_.members[r], kLeaderPing, payload, query_tag_);
    }
  } else {
    // Promote when every lower-ranked replica has been silent longer than
    // this replica's graded timeout.
    SimDuration timeout =
        config_.failover_timeout * static_cast<SimDuration>(rank_);
    if (net_->now() - last_lower_ping_ > timeout) {
      believes_leader_ = true;
      if (!promoted_fired_) {
        promoted_fired_ = true;
        if (on_promote_) on_promote_();
      }
      // Fall through: next ticks will ping as leader.
    }
  }
  net_->ScheduleAfter(dev_->id(), config_.ping_period, [this]() { Tick(); });
}

void ReplicaRole::HandlePing(const LeaderPingMsg& ping) {
  if (ping.group_id != config_.group_id) return;
  if (ping.rank >= rank_) return;
  last_lower_ping_ = net_->now();
  // A lower-ranked replica is alive; yield leadership (if held) to avoid
  // long-term duplicate emission (duplicates are deduplicated downstream
  // anyway, but yielding reduces traffic).
  believes_leader_ = false;
}

}  // namespace edgelet::exec
