#ifndef EDGELET_EXEC_CONTRIBUTOR_H_
#define EDGELET_EXEC_CONTRIBUTOR_H_

#include <optional>
#include <vector>

#include "exec/actor.h"
#include "query/scan.h"

namespace edgelet::exec {

// What every Data Contributor of one query shares. QueryExecution::Start()
// builds and resolves it once, before any actor exists, and nothing changes
// it afterwards: contributor actors only read it, concurrently under the
// sharded and live engines. For that reason it holds no encode buffer —
// each actor encodes into a writer of its own call.
struct ContributionPlan {
  // The query's predicates compiled, and each vertical group's projection
  // resolved, against one population store.
  struct ResolvedStore {
    const data::ColumnTable* store = nullptr;
    size_t key_column = 0;  // the int64 contributor_id column
    std::vector<query::CompiledPredicate> compiled;
    // One projection per vertical group: a member splits its record so a
    // separated attribute pair never travels together.
    ContributionEncoder encoder;
  };

  // The entry resolved against `store`, or null.
  const ResolvedStore* Find(const data::ColumnTable& store) const;

  uint64_t query_id = 0;
  // builders[partition][vgroup] = rank-ordered replica group.
  std::vector<std::vector<std::vector<net::NodeId>>> builders;
  // One entry per distinct store behind the contributor devices' views.
  std::vector<ResolvedStore> stores;
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

  // `store` is the plan's entry for the device view's store.
  ContributorActor(net::Transport* net, device::Device* dev,
                   const ContributionPlan* plan,
                   const ContributionPlan::ResolvedStore* store,
                   std::vector<Member> members);

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
  // Contributes every pending member due at the current time, then
  // schedules one event for the next.
  void ContributeDue();
  void OnResolicit(const net::Message& msg);
  uint32_t PartitionOf(const Member& member) const;
  // The member's store row when it qualifies.
  std::optional<size_t> QualifyingRow(const Member& member) const;

  const ContributionPlan* plan_;
  const ContributionPlan::ResolvedStore* store_;
  std::vector<Member> members_;
  size_t pending_from_ = 0;  // members_[pending_from_..] have not sent yet
  size_t members_contributed_ = 0;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_CONTRIBUTOR_H_
