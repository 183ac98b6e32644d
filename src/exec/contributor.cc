#include "exec/contributor.h"

#include <algorithm>

#include "common/logging.h"
#include "data/partition.h"

namespace edgelet::exec {

ContributorActor::ContributorActor(net::Transport* net, device::Device* dev,
                                   const ContributionPlan* plan,
                                   std::vector<Member> members)
    : ActorBase(net, dev, plan->query_id),
      plan_(plan),
      members_(std::move(members)) {}

void ContributorActor::Start() {
  if (members_.empty()) return;
  // Canonical member order: contact time, then row. The chained loop
  // below walks this order, so every member's sends — and thus every
  // latency/loss draw from the host's NodeRng — happen in a sequence
  // fixed by the member set alone.
  std::sort(members_.begin(), members_.end(),
            [](const Member& a, const Member& b) {
              if (a.send_at != b.send_at) return a.send_at < b.send_at;
              return a.row < b.row;
            });
  net()->ScheduleAt(dev()->id(), members_.front().send_at,
                    [this]() { ContributeDue(); });
}

void ContributorActor::ContributeDue() {
  // Drain every member whose contact time has arrived, then park a single
  // event for the next one: the device never holds more than one timer.
  while (pending_from_ < members_.size() &&
         members_[pending_from_].send_at <= now()) {
    const Member& member = members_[pending_from_++];
    const std::optional<size_t> row = QualifyingRow(member);
    if (!row) continue;
    const uint32_t partition = PartitionOf(member);
    for (size_t vg = 0; vg < plan_->vgroup_columns.size(); ++vg) {
      SealAndSendAll(plan_->builders[partition][vg], kContribution,
                     prepared_->encoder.EncodeRow(vg, member.contributor_key,
                                                  dev()->local_view().store(),
                                                  *row));
    }
    ++members_contributed_;
    if (plan_->trace != nullptr) {
      plan_->trace->Record(now(), TraceEventKind::kContributionSent,
                           dev()->id());
    }
  }
  if (pending_from_ < members_.size()) {
    net()->ScheduleAt(dev()->id(), members_[pending_from_].send_at,
                      [this]() { ContributeDue(); });
  }
  ReleaseIfIdle();
}

void ContributorActor::HandleMessage(const net::Message& msg) {
  if (msg.type == kResolicit) OnResolicit(msg);
}

void ContributorActor::OnResolicit(const net::Message& msg) {
  if (!OpenSealed(msg).ok()) return;
  auto req = ResolicitMsg::Decode(opened_payload());
  if (!req.ok() || req->query_id != plan_->query_id) return;
  if (req->vgroup >= plan_->vgroup_columns.size()) return;
  // Only members hashing into the rebuilt partition may re-offer their
  // row: re-solicitation must preserve the plan's hash partitioning.
  for (const Member& member : members_) {
    if (PartitionOf(member) != req->partition) continue;
    const std::optional<size_t> row = QualifyingRow(member);
    if (!row) continue;
    SealAndSend(req->builder, kContribution,
                prepared_->encoder.EncodeRow(req->vgroup,
                                             member.contributor_key,
                                             dev()->local_view().store(),
                                             *row));
    if (plan_->trace != nullptr) {
      plan_->trace->Record(now(), TraceEventKind::kContributionSent,
                           dev()->id(), static_cast<int>(req->partition),
                           static_cast<int>(req->vgroup), "re-solicited");
    }
  }
  ReleaseIfIdle();
}

uint32_t ContributorActor::PartitionOf(const Member& member) const {
  return data::PartitionForKey(member.contributor_key,
                               static_cast<uint32_t>(plan_->builders.size()));
}

std::optional<size_t> ContributorActor::QualifyingRow(const Member& member) {
  // The member's row lives in the shared population store: qualification
  // is a compiled-predicate probe, and the encoder writes each vertical
  // group's projection straight from the store's columns.
  const data::TableView& local = dev()->local_view();
  if (member.row >= local.num_rows() || !Prepare()) return std::nullopt;
  const size_t store_row = local.StoreRow(member.row);
  if (!query::MatchesRow(local.store(), store_row, prepared_->compiled)) {
    return std::nullopt;  // the member's data does not qualify
  }
  return store_row;
}

bool ContributorActor::Prepare() {
  if (prepared_ != nullptr) return true;
  if (prepare_failed_) return false;
  const data::TableView& local = dev()->local_view();
  auto compiled = query::CompilePredicates(local.store(), plan_->predicates);
  if (!compiled.ok()) {
    prepare_failed_ = true;
    EDGELET_LOG(kWarning) << "contributor " << dev()->id()
                          << " predicate error: "
                          << compiled.status().ToString();
    return false;
  }
  auto encoder = ContributionEncoder::Resolve(
      plan_->query_id, local.schema(), plan_->vgroup_columns);
  if (!encoder.ok()) {
    prepare_failed_ = true;
    EDGELET_LOG(kWarning) << "contributor " << dev()->id()
                          << " projection error: "
                          << encoder.status().ToString();
    return false;
  }
  prepared_ = std::make_unique<Prepared>(
      Prepared{std::move(*compiled), std::move(*encoder)});
  return true;
}

void ContributorActor::ReleaseIfIdle() {
  if (pending_from_ >= members_.size()) prepared_.reset();
}

}  // namespace edgelet::exec
