#include "exec/contributor.h"

#include <algorithm>

#include "data/partition.h"

namespace edgelet::exec {

const ContributionPlan::ResolvedStore* ContributionPlan::Find(
    const data::ColumnTable& store) const {
  for (const ResolvedStore& resolved : stores) {
    if (resolved.store == &store) return &resolved;
  }
  return nullptr;
}

ContributorActor::ContributorActor(
    net::Transport* net, device::Device* dev, const ContributionPlan* plan,
    const ContributionPlan::ResolvedStore* store, std::vector<Member> members)
    : ActorBase(net, dev, plan->query_id),
      plan_(plan),
      store_(store),
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
  // The encode buffer is this call's own: the plan is shared by every
  // contributor of the query, on whichever thread runs it.
  Writer w;
  while (pending_from_ < members_.size() &&
         members_[pending_from_].send_at <= now()) {
    const Member& member = members_[pending_from_++];
    const std::optional<size_t> row = QualifyingRow(member);
    if (!row) continue;
    const uint32_t partition = PartitionOf(member);
    for (size_t vg = 0; vg < store_->encoder.num_vgroups(); ++vg) {
      SealAndSendAll(plan_->builders[partition][vg], kContribution,
                     store_->encoder.EncodeRow(vg, member.contributor_key,
                                               *store_->store, *row, &w));
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
}

void ContributorActor::HandleMessage(const net::Message& msg) {
  if (msg.type == kResolicit) OnResolicit(msg);
}

void ContributorActor::OnResolicit(const net::Message& msg) {
  if (!OpenSealed(msg).ok()) return;
  auto req = ResolicitMsg::Decode(opened_payload());
  if (!req.ok() || req->query_id != plan_->query_id) return;
  if (req->vgroup >= store_->encoder.num_vgroups()) return;
  // Only members hashing into the rebuilt partition may re-offer their
  // row: re-solicitation must preserve the plan's hash partitioning.
  Writer w;
  for (const Member& member : members_) {
    if (PartitionOf(member) != req->partition) continue;
    const std::optional<size_t> row = QualifyingRow(member);
    if (!row) continue;
    SealAndSend(req->builder, kContribution,
                store_->encoder.EncodeRow(req->vgroup, member.contributor_key,
                                          *store_->store, *row, &w));
    if (plan_->trace != nullptr) {
      plan_->trace->Record(now(), TraceEventKind::kContributionSent,
                           dev()->id(), static_cast<int>(req->partition),
                           static_cast<int>(req->vgroup), "re-solicited");
    }
  }
}

uint32_t ContributorActor::PartitionOf(const Member& member) const {
  return data::PartitionForKey(member.contributor_key,
                               static_cast<uint32_t>(plan_->builders.size()));
}

std::optional<size_t> ContributorActor::QualifyingRow(
    const Member& member) const {
  // The member's row lives in the shared population store: qualification
  // is a probe of the plan's compiled predicates, and the encoder writes
  // each vertical group's projection straight from the store's columns.
  const data::TableView& local = dev()->local_view();
  if (member.row >= local.num_rows()) return std::nullopt;
  const size_t store_row = local.StoreRow(member.row);
  if (!query::MatchesRow(*store_->store, store_row, store_->compiled)) {
    return std::nullopt;  // the member's data does not qualify
  }
  return store_row;
}

}  // namespace edgelet::exec
