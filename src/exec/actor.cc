#include "exec/actor.h"

#include "common/logging.h"
#include "data/partition.h"
#include "query/scan.h"

namespace edgelet::exec {

LivenessBeacon::LivenessBeacon(net::Transport* net, device::Device* dev,
                               Config config)
    : net_(net), dev_(dev), config_(config) {}

void LivenessBeacon::Start() {
  if (!config_.enabled || config_.period <= 0) return;
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
  net_->ScheduleAfter(dev_->id(), config_.period, [this]() { Beat(); });
}

void OperatorActor::StartBeacon(const LivenessBeacon::Config& config) {
  if (!config.enabled) return;
  beacon_ = std::make_unique<LivenessBeacon>(net(), dev(), config);
  beacon_->Start();
}

std::optional<ContributionEncoder> ResolveContributionEncoder(
    const device::Device& dev, uint64_t query_id,
    const std::vector<std::vector<std::string>>& vgroup_columns) {
  const data::TableView& local = dev.local_view();
  if (!local.has_store()) return std::nullopt;
  auto encoder =
      ContributionEncoder::Resolve(query_id, local.schema(), vgroup_columns);
  if (!encoder.ok()) {
    EDGELET_LOG(kWarning) << "device " << dev.id() << " projection error: "
                          << encoder.status().ToString();
    return std::nullopt;
  }
  return std::move(*encoder);
}

ContributorActor::ContributorActor(net::Transport* net, device::Device* dev,
                                   Config config)
    : ActorBase(net, dev, config.query_id), config_(std::move(config)) {}

void ContributorActor::Start() {
  net()->ScheduleAt(dev()->id(), config_.send_at, [this]() { Contribute(); });
}

void ContributorActor::Contribute() {
  // Qualification is a typed scan over the device's zero-copy view into
  // the shared population store; each vertical group's projection is
  // encoded straight from the store's columns.
  const data::TableView& local = dev()->local_view();
  if (local.empty()) return;

  auto qualified = query::ApplyPredicates(local, config_.predicates);
  if (!qualified.ok()) {
    EDGELET_LOG(kWarning) << "contributor " << dev()->id()
                          << " predicate error: "
                          << qualified.status().ToString();
    return;
  }
  if (qualified->empty()) return;  // the owner's data does not qualify
  // Resolved here, not kept: a contributor sends once, and a crowd of
  // idle actors must not each hold an encoder.
  auto encoder = ResolveContributionEncoder(*dev(), config_.query_id,
                                            config_.vgroup_columns);
  if (!encoder) return;

  uint32_t partition = data::PartitionForKey(
      config_.contributor_key, static_cast<uint32_t>(config_.builders.size()));
  for (size_t vg = 0; vg < config_.vgroup_columns.size(); ++vg) {
    SealAndSendAll(config_.builders[partition][vg], kContribution,
                   encoder->Encode(vg, config_.contributor_key, *qualified));
  }
  contributed_ = true;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kContributionSent,
                          dev()->id());
  }
}

void ContributorActor::HandleMessage(const net::Message& msg) {
  if (msg.type == kResolicit) OnResolicit(msg);
}

void ContributorActor::OnResolicit(const net::Message& msg) {
  if (!OpenSealed(msg).ok()) return;
  auto req = ResolicitMsg::Decode(opened_payload());
  if (!req.ok() || req->query_id != config_.query_id) return;
  if (req->vgroup >= config_.vgroup_columns.size()) return;
  // Only the partition this contributor hashes into may sample its row —
  // re-solicitation must preserve the plan's hash partitioning.
  uint32_t partition = data::PartitionForKey(
      config_.contributor_key, static_cast<uint32_t>(config_.builders.size()));
  if (partition != req->partition) return;

  const data::TableView& local = dev()->local_view();
  if (local.empty()) return;
  auto qualified = query::ApplyPredicates(local, config_.predicates);
  if (!qualified.ok() || qualified->empty()) return;
  auto encoder = ResolveContributionEncoder(*dev(), config_.query_id,
                                            config_.vgroup_columns);
  if (!encoder) return;
  SealAndSend(req->builder, kContribution,
              encoder->Encode(req->vgroup, config_.contributor_key,
                              *qualified));
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kContributionSent,
                          dev()->id(), static_cast<int>(req->partition),
                          static_cast<int>(req->vgroup), "re-solicited");
  }
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
