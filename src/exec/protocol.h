#ifndef EDGELET_EXEC_PROTOCOL_H_
#define EDGELET_EXEC_PROTOCOL_H_

#include <cstdint>
#include <tuple>

#include "common/serialize.h"
#include "data/column_table.h"
#include "data/table.h"
#include "ml/kmeans.h"
#include "net/message.h"
#include "query/grouping_sets.h"

namespace edgelet::exec {

// Protocol message kinds carried in net::Message::type. Data-bearing
// messages (< kLeaderPing) travel AEAD-sealed between enclaves; control
// messages are plaintext.
enum MessageType : uint32_t {
  kContribution = 1,    // Contributor -> SnapshotBuilder
  kSnapshotSlice = 2,   // SnapshotBuilder -> Computer
  kGsPartial = 3,       // Computer -> Combiner (Grouping Sets)
  kKmKnowledge = 4,     // Computer <-> Computer (K-Means sync broadcast)
  kKmFinal = 5,         // Computer -> Combiner (K-Means)
  kFinalResult = 6,     // Combiner -> Querier
  kRecruit = 7,         // RepairController -> spare edgelet
  kRecruitAck = 8,      // spare edgelet -> RepairController
  kResolicit = 9,       // RepairController -> Contributors (re-solicit)
  kRecoveryHello = 10,  // rebooted operator -> RepairController (re-attest)
  kRecoveryAck = 11,    // RepairController -> rebooted operator
  kLeaderPing = 100,    // Backup strategy: leader liveness announcement
  kOperatorHeartbeat = 101,  // operator -> RepairController liveness lease
};

// --- Payload envelopes -------------------------------------------------------
//
// Every record below states its wire layout once, in Fields; Encode and
// Decode come from the field-list codec in common/serialize.h.

// One contributor's qualifying rows (usually a single record). Actors do
// not build this struct: senders write it with a ContributionEncoder and
// the snapshot builder decodes it straight into its buffer. It stays the
// reference for the wire format.
struct ContributionMsg {
  uint64_t query_id = 0;
  uint64_t contributor_key = 0;
  data::Table rows;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.contributor_key, m.rows);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<ContributionMsg> Decode(const Bytes& b) {
    return wire::Decode<ContributionMsg>(b);
  }
};

// The encoder behind every contribution sender. Resolved against the
// population store's schema — one data::WireProjection per vertical group
// — it writes each message straight from the store into the caller's
// writer. The bytes equal
// ContributionMsg{query_id, key, rows.ProjectToTable(columns)}.Encode().
// Resolved once, it is read-only: senders on several threads may share it
// as long as each brings its own writer.
class ContributionEncoder {
 public:
  // Fails when a vertical group names a column the store lacks.
  static Result<ContributionEncoder> Resolve(
      uint64_t query_id, const data::Schema& store_schema,
      const std::vector<std::vector<std::string>>& vgroup_columns);

  size_t num_vgroups() const { return projections_.size(); }

  // Resets `w` to the message carrying `rows` (a view over the resolved
  // store) to vertical group `vgroup`; returns w->data().
  const Bytes& Encode(size_t vgroup, uint64_t contributor_key,
                      const data::TableView& rows, Writer* w) const;
  // The same for the single store row `row`.
  const Bytes& EncodeRow(size_t vgroup, uint64_t contributor_key,
                         const data::ColumnTable& store, size_t row,
                         Writer* w) const;

 private:
  void PutHeader(uint64_t contributor_key, Writer* w) const;

  uint64_t query_id_ = 0;
  std::vector<data::WireProjection> projections_;
};

// A vertical slice of one snapshot partition.
struct SnapshotSliceMsg {
  uint64_t query_id = 0;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  // Epoch distinguishes re-emissions by failover replicas (Backup
  // strategy): a partition's slices must come from one epoch.
  uint32_t epoch = 0;
  data::ColumnTable rows;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.partition, m.vgroup, m.epoch, m.rows);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<SnapshotSliceMsg> Decode(const Bytes& b) {
    return wire::Decode<SnapshotSliceMsg>(b);
  }
  // The same bytes from the parts: a builder serializes its buffer in
  // place instead of copying it into a message first.
  static Bytes EncodeFrom(uint64_t query_id, uint32_t partition,
                          uint32_t vgroup, uint32_t epoch,
                          const data::ColumnTable& rows);
};

// A computer's grouping-sets partial over its slice.
struct GsPartialMsg {
  uint64_t query_id = 0;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  uint32_t epoch = 0;
  query::GroupingSetsResult result;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.partition, m.vgroup, m.epoch, m.result);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<GsPartialMsg> Decode(const Bytes& b) {
    return wire::Decode<GsPartialMsg>(b);
  }
};

// Per-cluster aggregate states, index-aligned with KMeansKnowledge
// centroids (the "Group By on the resulting clusters" of demo query ii).
struct ClusterStats {
  // per_cluster[c][a] = state of aggregate a over rows in cluster c.
  std::vector<std::vector<query::AggregateState>> per_cluster;

  void Permute(const std::vector<int>& perm);
  Status MergeFrom(const ClusterStats& other);
  template <typename M>
  static auto Fields(M& m) { return std::tie(m.per_cluster); }
  void Serialize(Writer* w) const { wire::Put(w, *this); }
  static Result<ClusterStats> Deserialize(Reader* r) {
    return wire::Read<ClusterStats>(r);
  }
};

// K-Means knowledge broadcast between computers each heartbeat.
struct KmKnowledgeMsg {
  uint64_t query_id = 0;
  uint32_t partition = 0;
  uint32_t round = 0;
  ml::KMeansKnowledge knowledge;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.partition, m.round, m.knowledge);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<KmKnowledgeMsg> Decode(const Bytes& b) {
    return wire::Decode<KmKnowledgeMsg>(b);
  }
};

// Final K-Means report from a computer to the combiner.
struct KmFinalMsg {
  uint64_t query_id = 0;
  uint32_t partition = 0;
  ml::KMeansKnowledge knowledge;
  ClusterStats stats;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.partition, m.knowledge, m.stats);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<KmFinalMsg> Decode(const Bytes& b) {
    return wire::Decode<KmFinalMsg>(b);
  }
};

// The combiner's answer.
struct FinalResultMsg {
  uint64_t query_id = 0;
  // Snapshot partitions merged into the result (with the epoch of the
  // slice used for each) — lets the querier audit which crowd sample the
  // answer covers, and lets the framework verify validity against a
  // centralized run over the same sample.
  std::vector<uint32_t> partitions;
  std::vector<uint32_t> epochs;
  data::Table result;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.partitions, m.epochs, m.result);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<FinalResultMsg> Decode(const Bytes& b) {
    return wire::Decode<FinalResultMsg>(b);
  }
};

// Which chain role a spare is recruited into.
enum class RecruitRole : uint8_t {
  kSnapshotBuilder = 0,
  kComputer = 1,
};
// The last valid tag: the wire codec rejects any above it.
constexpr RecruitRole WireLastTag(RecruitRole) {
  return RecruitRole::kComputer;
}

// Recruits a pre-provisioned spare edgelet into a broken
// (partition, vertical-group) chain. Heavy plan state (grouping-set spec,
// vertical-group columns) is not on the wire: spares receive the published
// query plan at provisioning time, exactly like originally assigned
// processors; the recruit names the slot only. Epoch is the repair
// generation (>= kRepairEpochBase, so it can never collide with a replica
// rank used as the epoch of an original chain's slice).
struct RecruitMsg {
  uint64_t query_id = 0;
  RecruitRole role = RecruitRole::kSnapshotBuilder;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  uint32_t epoch = 0;
  // Builder recruit: the recruited computer it must send its slice to.
  net::NodeId peer = 0;
  // Where to ack and heartbeat (the combiner hosting the controller).
  net::NodeId controller = 0;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.role, m.partition, m.vgroup, m.epoch, m.peer,
                    m.controller);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<RecruitMsg> Decode(const Bytes& b) {
    return wire::Decode<RecruitMsg>(b);
  }
};

// Repair-generation epochs start here; replica ranks (the epochs of
// original emissions) are always far below it.
inline constexpr uint32_t kRepairEpochBase = 256;

// A spare's acceptance of a recruit assignment.
struct RecruitAckMsg {
  uint64_t query_id = 0;
  RecruitRole role = RecruitRole::kSnapshotBuilder;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  uint32_t epoch = 0;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.role, m.partition, m.vgroup, m.epoch);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<RecruitAckMsg> Decode(const Bytes& b) {
    return wire::Decode<RecruitAckMsg>(b);
  }
};

// Asks contributors to re-send their vertical-group projection for one
// partition to a freshly recruited snapshot builder.
struct ResolicitMsg {
  uint64_t query_id = 0;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  net::NodeId builder = 0;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.partition, m.vgroup, m.builder);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<ResolicitMsg> Decode(const Bytes& b) {
    return wire::Decode<ResolicitMsg>(b);
  }
};

// Operator liveness lease renewal (plaintext control message). The
// incarnation is the emitting device's boot epoch: it lets the detector
// tell a resumed operator's fresh lease from a stale pre-crash straggler
// (the ABA case — see resilience::FailureDetector::Heartbeat).
struct OperatorHeartbeatMsg {
  uint64_t query_id = 0;
  uint64_t op_id = 0;
  uint64_t incarnation = 0;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.op_id, m.incarnation);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<OperatorHeartbeatMsg> Decode(const Bytes& b) {
    return wire::Decode<OperatorHeartbeatMsg>(b);
  }
};

// A rebooted operator re-attesting to the repair controller: "I hold
// sealed state for this (role, partition, vgroup) up to `epoch`; may I
// resume?" Sealed (it travels between enclaves and its acceptance gates
// on the sender's re-provisioned group key — the re-attestation itself).
struct RecoveryHelloMsg {
  uint64_t query_id = 0;
  RecruitRole role = RecruitRole::kSnapshotBuilder;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  // Last epoch durably recorded in the operator's sealed log.
  uint32_t epoch = 0;
  // The device's boot epoch after the restart.
  uint64_t incarnation = 0;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.role, m.partition, m.vgroup, m.epoch,
                    m.incarnation);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<RecoveryHelloMsg> Decode(const Bytes& b) {
    return wire::Decode<RecoveryHelloMsg>(b);
  }
};

// The controller's verdict. resume=false means the slot was already
// re-assigned (a recruit acked first) or the hello's epoch is stale; the
// device stays down and the existing recruit-around path owns the slot.
struct RecoveryAckMsg {
  uint64_t query_id = 0;
  RecruitRole role = RecruitRole::kSnapshotBuilder;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  bool resume = false;
  // Echoes the hello's incarnation so a slow ack from before a second
  // crash cannot authorize a later boot.
  uint64_t incarnation = 0;

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.query_id, m.role, m.partition, m.vgroup, m.resume,
                    m.incarnation);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<RecoveryAckMsg> Decode(const Bytes& b) {
    return wire::Decode<RecoveryAckMsg>(b);
  }
};

// Leader liveness ping (plaintext control message).
struct LeaderPingMsg {
  uint64_t group_id = 0;
  uint32_t rank = 0;

  template <typename M>
  static auto Fields(M& m) { return std::tie(m.group_id, m.rank); }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<LeaderPingMsg> Decode(const Bytes& b) {
    return wire::Decode<LeaderPingMsg>(b);
  }
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_PROTOCOL_H_
