#ifndef EDGELET_EXEC_SNAPSHOT_BUILDER_H_
#define EDGELET_EXEC_SNAPSHOT_BUILDER_H_

#include <memory>

#include "common/hash.h"
#include "exec/actor.h"
#include "exec/replica.h"

namespace edgelet::exec {

// The Snapshot Builder of one (partition, vertical-group) chain: collects
// that group's projections from contributors until the partition quota
// (C/n tuples) is reached, then emits the slice to its Computer. Vertical
// chains are independent — each samples its own representative C/n rows —
// so a separated attribute pair never co-resides anywhere. With the Backup
// strategy the actor is one replica of the chain's builder group; every
// replica collects, only the leader emits, and a failover replica re-emits
// its own snapshot under a new epoch (its rank).
class SnapshotBuilderActor : public OperatorActor {
 public:
  struct Config {
    uint64_t query_id = 0;
    uint32_t partition = 0;
    uint32_t vgroup = 0;
    uint64_t quota = 0;  // ceil(C/n)
    // Rank-ordered replica group of this chain's Computer.
    std::vector<net::NodeId> computers;
    // Columns of this vertical group (what contributors send here).
    std::vector<std::string> columns;
    ReplicaRole::Config replica;
    ExecutionTrace* trace = nullptr;
    // Extra re-emissions of the slice (lossy links; computers dedup).
    int emission_resends = 0;
    // Repair subsystem: emit slices under this epoch instead of the
    // replica rank (< 0 = use the rank). Recruited builders get a unique
    // repair-generation epoch so their sample can never be confused with a
    // dead original's.
    int64_t epoch_override = -1;
    // Liveness lease renewals toward the repair controller (off unless the
    // execution enables repair).
    LivenessBeacon::Config liveness;
    // Durable checkpoint sink (null = recovery disabled).
    CheckpointFn checkpoint;
    // Serialized state from a sealed-store replay: the actor resumes from
    // it instead of starting empty (empty = fresh start).
    Bytes resume_state;
  };

  SnapshotBuilderActor(net::Transport* net, device::Device* dev,
                       Config config);

  void Start() override;

  bool snapshot_complete() const { return state_.complete; }
  uint64_t tuples_collected() const { return state_.buffer.num_rows(); }
  // Contributor keys included in this builder's snapshot (validity audit).
  const std::vector<uint64_t>& included_contributors() const {
    return state_.included;
  }
  uint32_t rank() const { return replica_->rank(); }
  // The epoch this builder stamps on emitted slices (rank, unless a
  // repair-generation override is set).
  uint32_t emit_epoch() const {
    return config_.epoch_override >= 0
               ? static_cast<uint32_t>(config_.epoch_override)
               : replica_->rank();
  }

  // State's field list; seen contributor keys are written in ascending
  // order.
  Bytes SerializeState() const override;
  uint32_t checkpoint_epoch() const override { return emit_epoch(); }

 protected:
  void HandleMessage(const net::Message& msg) override;

 private:
  // What a checkpoint carries; the field list is its layout.
  struct State {
    // The first accepted contribution fixed the group's schema.
    bool have_schema = false;
    bool complete = false;
    bool emitted = false;
    data::ColumnTable buffer;
    // The contributor key of each buffered row.
    std::vector<uint64_t> included;
    // Dedup of contributor keys.
    FlatSet64 seen_contributors;

    template <typename M>
    static auto Fields(M& m) {
      return std::tie(m.have_schema, m.complete, m.emitted, m.buffer,
                      m.included, m.seen_contributors);
    }
  };

  void OnContribution(const net::Message& msg);
  // Decodes a contribution's schema and row sections straight into the
  // buffer, appending rows up to the quota; returns the contributed row
  // count. The first accepted contribution fixes the group's schema;
  // every later one must carry exactly its serialized bytes. The buffer
  // is unchanged on error.
  Result<uint64_t> DecodeRowsIntoBuffer(Reader* r);
  // Derives schema_bytes_ from the buffer's schema (after the first
  // contribution, and after a restore).
  void CacheSchemaBytes();
  void MaybeEmit();
  void EmitSlice();
  void EmitSliceWithResends();
  // Decodes and checks a checkpoint; state_ changes only on success.
  Status RestoreState(const Bytes& bytes);

  Config config_;
  std::unique_ptr<ReplicaRole> replica_;
  State state_;
  // The buffer's schema as contributions carry it, once have_schema.
  Bytes schema_bytes_;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_SNAPSHOT_BUILDER_H_
