#include "exec/actor.h"

#include "common/logging.h"
#include "resilience/failure_detector.h"

namespace edgelet::exec {

LivenessBeacon::LivenessBeacon(net::Transport* net, device::Device* dev,
                               Config config)
    : net_(net), dev_(dev), config_(config) {}

void LivenessBeacon::Start() {
  if (!config_.enabled) return;
  birth_epoch_ = dev_->boot_epoch();
  OperatorHeartbeatMsg msg;
  msg.query_id = config_.query_id;
  msg.op_id = config_.op_id;
  msg.incarnation = birth_epoch_;
  payload_ = msg.Encode();
  Beat();
}

void LivenessBeacon::Beat() {
  if (dev_->network()->IsDead(dev_->id())) return;  // stop the loop
  // The device rebooted since this beacon started: the loop belongs to a
  // previous incarnation and must fall silent (the resumed operator's own
  // beacon carries the new boot epoch).
  if (dev_->boot_epoch() != birth_epoch_) return;
  if (net_->now() >= config_.stop_at) return;
  // Offline (churned-out) devices' sends are dropped by the network — the
  // missed beat is exactly the signal the detector is built around.
  dev_->SendControl(config_.target, kOperatorHeartbeat, payload_,
                    config_.query_id);
  net_->ScheduleAfter(dev_->id(), resilience::kLeasePeriod,
                      [this]() { Beat(); });
}

void OperatorActor::StartBeacon(const LivenessBeacon::Config& config) {
  if (!config.enabled) return;
  beacon_ = std::make_unique<LivenessBeacon>(net(), dev(), config);
  beacon_->Start();
}

void QuerierActor::HandleMessage(const net::Message& msg) {
  if (msg.type != kFinalResult) return;
  Status opened = OpenSealed(msg);
  if (!opened.ok()) {
    EDGELET_LOG(kWarning) << "querier failed to open result: "
                          << opened.ToString();
    return;
  }
  auto result = FinalResultMsg::Decode(opened_payload());
  if (!result.ok() || result->query_id != query_id_) return;
  if (has_result_) {
    ++duplicates_;
    return;
  }
  has_result_ = true;
  result_ = std::move(*result);
  result_time_ = now();
  if (trace_ != nullptr) {
    trace_->Record(now(), TraceEventKind::kResultDelivered,
                   dev()->id(), -1, -1,
                   std::to_string(result_.partitions.size()) +
                       " partitions merged");
  }
}

}  // namespace edgelet::exec
