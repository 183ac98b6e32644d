#ifndef EDGELET_EXEC_COHORT_H_
#define EDGELET_EXEC_COHORT_H_

#include <optional>
#include <vector>

#include "exec/actor.h"
#include "query/scan.h"

namespace edgelet::exec {

// A cohort super-node: one device-bound actor standing in for many
// contributor-only individuals (device::Fleet contributor cohorts). Each
// member keeps its own identity — contributor key, data row, and contact
// time — and contributes exactly like a ContributorActor would: predicates
// evaluated on its single row, the qualifying projection sent per vertical
// group to the member's OWN hash-assigned partition. What collapses is the
// per-individual simulation machinery: one net::Node, one enclave, one
// actor, and one outstanding timer event per cohort instead of per member,
// which is what takes a 1M-member sweep from O(devices) to
// O(operators + cohorts) memory.
//
// Determinism: members contribute in (send_at, row) order through a
// chained event loop on the hosting device's own timeline, so every
// network draw comes from the host's NodeRng stream in a schedule-
// independent order. A cohort lives wholly on one shard (it is one node),
// making cohort executions bit-identical across shard counts — the same
// invariant, and the same argument, as individual contributors. Relative
// to individual mode the fleet topology differs (fewer nodes, shared
// churn/latency streams per cohort), so cohort and individual reports are
// deliberately NOT comparable; the invariant is within a mode.
class CohortActor : public ActorBase {
 public:
  // One folded individual.
  struct Member {
    uint64_t contributor_key = 0;
    uint32_t row = 0;  // index into the hosting device's local table
    SimTime send_at = 0;
  };

  struct Config {
    uint64_t query_id = 0;
    std::vector<query::Predicate> predicates;
    // One projection per vertical group (see ContributorActor::Config).
    std::vector<std::vector<std::string>> vgroup_columns;
    // builders[partition][vgroup] = rank-ordered replica group.
    std::vector<std::vector<std::vector<net::NodeId>>> builders;
    std::vector<Member> members;
    ExecutionTrace* trace = nullptr;
  };

  CohortActor(net::Transport* net, device::Device* dev, Config config);

  // Orders members by (send_at, row) and schedules the chained
  // contribution loop: one pending event per cohort at any time.
  void Start();

  size_t member_count() const { return config_.members.size(); }
  size_t members_contributed() const { return members_contributed_; }

 protected:
  // Cohorts are mostly send-only, but a repair controller may re-solicit
  // the projection of every member hashing into a rebuilt partition.
  void HandleMessage(const net::Message& msg) override;

 private:
  // Contributes every member due at the current time starting at `index`,
  // then schedules one event for the next pending member.
  void ContributeFrom(size_t index);
  // One member's contribution; returns whether anything was sent.
  bool ContributeMember(const Member& member);
  void OnResolicit(const net::Message& msg);
  // Compiles config_.predicates against the device view's store and
  // resolves the contribution encoder, once; returns false (and logs once)
  // when either fails.
  bool EnsurePrepared();

  Config config_;
  size_t members_contributed_ = 0;
  // Per-member qualification is a compiled-predicate probe into the shared
  // store, and the encoder writes projections from it: no one-row Table is
  // built on the way to the wire.
  std::vector<query::CompiledPredicate> compiled_;
  std::optional<ContributionEncoder> encoder_;
  bool prepared_ = false;
  bool prepare_failed_ = false;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_COHORT_H_
