#ifndef EDGELET_EXEC_CONTRIBUTOR_H_
#define EDGELET_EXEC_CONTRIBUTOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/actor.h"
#include "query/scan.h"

namespace edgelet::exec {

// What every Data Contributor of one query shares. The execution builds it
// once and owns it; contributor actors only read it (concurrently, under
// the sharded engine), so no actor copies the query's predicates or plan.
struct ContributionPlan {
  uint64_t query_id = 0;
  std::vector<query::Predicate> predicates;
  // One projection per vertical group: a member splits its record so a
  // separated attribute pair never travels together.
  std::vector<std::vector<std::string>> vgroup_columns;
  // builders[partition][vgroup] = rank-ordered replica group.
  std::vector<std::vector<std::vector<net::NodeId>>> builders;
  ExecutionTrace* trace = nullptr;  // optional step-by-step recording
};

// The Data Contributor role for one device: the individuals whose records
// the device hosts (its members). A classic device hosts one member; a
// cohort device (device::Fleet contributor cohorts) hosts many. At its
// contact time each member evaluates the query predicates on its own row
// inside the enclave and sends the qualifying projection, per vertical
// group, to every replica of its own hash-assigned Snapshot Builder.
// Folding many members onto one device collapses the per-individual
// machinery — one net::Node, one enclave, one actor and one pending timer
// per device — which takes a 1M-member sweep from O(members) to
// O(operators + devices) memory.
//
// Determinism: members contribute in (send_at, row) order through a
// chained event loop on the hosting device's own timeline, so every
// network draw comes from the host's NodeRng stream in a schedule-
// independent order. A device lives wholly on one shard, so executions
// are bit-identical across shard counts. Cohort and classic fleets differ
// in topology (fewer nodes, shared churn/latency streams per cohort), so
// their reports are deliberately NOT comparable; the invariant holds
// within a fleet kind.
class ContributorActor : public ActorBase {
 public:
  // One hosted individual.
  struct Member {
    uint64_t contributor_key = 0;
    uint32_t row = 0;  // index into the hosting device's local view
    SimTime send_at = 0;
  };

  ContributorActor(net::Transport* net, device::Device* dev,
                   const ContributionPlan* plan, std::vector<Member> members);

  // Orders members by (send_at, row) and schedules the chained
  // contribution loop: one pending event per device at any time.
  void Start();

  size_t members_contributed() const { return members_contributed_; }

 protected:
  // Contributors are mostly send-only, but a repair controller may
  // re-solicit the projection of every member hashing into a rebuilt
  // partition (kResolicit).
  void HandleMessage(const net::Message& msg) override;

 private:
  // Compiled predicates and the contribution encoder, resolved against the
  // device view's store. Held only while a member is pending or a
  // re-solicit is being answered: a crowd of idle one-member actors must
  // not each keep an encoder.
  struct Prepared {
    std::vector<query::CompiledPredicate> compiled;
    ContributionEncoder encoder;
  };

  // Contributes every pending member due at the current time, then
  // schedules one event for the next.
  void ContributeDue();
  void OnResolicit(const net::Message& msg);
  uint32_t PartitionOf(const Member& member) const;
  // The member's store row when it qualifies; prepares on first use.
  std::optional<size_t> QualifyingRow(const Member& member);
  // Builds prepared_ unless it is held; false (logged once) when the
  // predicates or the projection do not resolve against the store.
  bool Prepare();
  // Drops prepared_ once no member is left to send.
  void ReleaseIfIdle();

  const ContributionPlan* plan_;
  std::vector<Member> members_;
  size_t pending_from_ = 0;  // members_[pending_from_..] have not sent yet
  size_t members_contributed_ = 0;
  std::unique_ptr<Prepared> prepared_;
  bool prepare_failed_ = false;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_CONTRIBUTOR_H_
