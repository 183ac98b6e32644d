#include "exec/cohort.h"

#include <algorithm>

#include "common/logging.h"
#include "data/partition.h"

namespace edgelet::exec {

CohortActor::CohortActor(net::Transport* net, device::Device* dev,
                         Config config)
    : ActorBase(net, dev, config.query_id), config_(std::move(config)) {}

void CohortActor::Start() {
  if (config_.members.empty()) return;
  // Canonical member order: contact time, then row. The chained loop
  // below walks this order, so every member's sends — and thus every
  // latency/loss draw from the host's NodeRng — happen in a sequence
  // fixed by the member set alone.
  std::sort(config_.members.begin(), config_.members.end(),
            [](const Member& a, const Member& b) {
              if (a.send_at != b.send_at) return a.send_at < b.send_at;
              return a.row < b.row;
            });
  net()->ScheduleAt(dev()->id(), config_.members.front().send_at,
                    [this]() { ContributeFrom(0); });
}

void CohortActor::ContributeFrom(size_t index) {
  // Drain every member whose contact time has arrived, then park a single
  // event for the next one: the cohort never holds more than one timer.
  while (index < config_.members.size() &&
         config_.members[index].send_at <= now()) {
    if (ContributeMember(config_.members[index])) ++members_contributed_;
    ++index;
  }
  if (index < config_.members.size()) {
    net()->ScheduleAt(dev()->id(), config_.members[index].send_at,
                      [this, index]() { ContributeFrom(index); });
  }
}

bool CohortActor::EnsurePrepared() {
  if (prepared_) return !prepare_failed_;
  prepared_ = true;
  const data::TableView& local = dev()->local_view();
  if (!local.has_store()) {
    prepare_failed_ = true;
    return false;
  }
  auto compiled = query::CompilePredicates(local.store(), config_.predicates);
  if (!compiled.ok()) {
    prepare_failed_ = true;
    EDGELET_LOG(kWarning) << "cohort " << dev()->id() << " predicate error: "
                          << compiled.status().ToString();
    return false;
  }
  compiled_ = std::move(*compiled);
  encoder_ = ResolveContributionEncoder(*dev(), config_.query_id,
                                        config_.vgroup_columns);
  prepare_failed_ = !encoder_;
  return encoder_.has_value();
}

bool CohortActor::ContributeMember(const Member& member) {
  // The member's row lives in the shared population store: qualification
  // is a compiled-predicate probe, and each vertical group's projection is
  // encoded straight from the store's columns.
  const data::TableView& local = dev()->local_view();
  if (member.row >= local.num_rows()) return false;
  if (!EnsurePrepared()) return false;
  const size_t store_row = local.StoreRow(member.row);
  if (!query::MatchesRow(local.store(), store_row, compiled_)) {
    return false;  // the member's data does not qualify
  }

  uint32_t partition = data::PartitionForKey(
      member.contributor_key, static_cast<uint32_t>(config_.builders.size()));
  for (size_t vg = 0; vg < config_.vgroup_columns.size(); ++vg) {
    SealAndSendAll(config_.builders[partition][vg], kContribution,
                   encoder_->EncodeRow(vg, member.contributor_key,
                                       local.store(), store_row));
  }
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kContributionSent,
                          dev()->id());
  }
  return true;
}

void CohortActor::HandleMessage(const net::Message& msg) {
  if (msg.type == kResolicit) OnResolicit(msg);
}

void CohortActor::OnResolicit(const net::Message& msg) {
  if (!OpenSealed(msg).ok()) return;
  auto req = ResolicitMsg::Decode(opened_payload());
  if (!req.ok() || req->query_id != config_.query_id) return;
  if (req->vgroup >= config_.vgroup_columns.size()) return;
  const data::TableView& local = dev()->local_view();
  // Fan the request out over the members: exactly those hashing into the
  // rebuilt partition may re-offer their row (same rule as
  // ContributorActor::OnResolicit, applied per member).
  for (const Member& member : config_.members) {
    uint32_t partition = data::PartitionForKey(
        member.contributor_key,
        static_cast<uint32_t>(config_.builders.size()));
    if (partition != req->partition) continue;
    if (member.row >= local.num_rows()) continue;
    if (!EnsurePrepared()) continue;
    const size_t store_row = local.StoreRow(member.row);
    if (!query::MatchesRow(local.store(), store_row, compiled_)) continue;
    SealAndSend(req->builder, kContribution,
                encoder_->EncodeRow(req->vgroup, member.contributor_key,
                                    local.store(), store_row));
    if (config_.trace != nullptr) {
      config_.trace->Record(now(), TraceEventKind::kContributionSent,
                            dev()->id(), static_cast<int>(req->partition),
                            static_cast<int>(req->vgroup), "re-solicited");
    }
  }
}

}  // namespace edgelet::exec
