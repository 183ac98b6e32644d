#ifndef EDGELET_EXEC_COMBINER_H_
#define EDGELET_EXEC_COMBINER_H_

#include <map>
#include <memory>
#include <set>

#include "exec/actor.h"
#include "exec/repair.h"
#include "exec/replica.h"
#include "ml/kmeans.h"
#include "query/query.h"

namespace edgelet::exec {

// The Computing Combiner: merges Computer partials into the final answer
// and delivers it to the Querier.
//
// Grouping-Sets mode: tracks per-partition completeness (all vertical
// groups present, from one epoch); as soon as n partitions are complete it
// merges exactly those n (validity: the result covers a snapshot of
// cardinality n * C/n = C) and emits.
//
// K-Means mode: accumulates knowledge reports (aligned by Hungarian
// matching) until its emit time right before the deadline, then emits the
// merged centroids, sizes, and per-cluster aggregates.
//
// In Overcollection mode two instances run in parallel (Combiner + Active
// Backup) and both emit; the querier deduplicates. In Backup mode the
// instances form a leader/standby replica group.
class CombinerActor : public OperatorActor {
 public:
  enum class Mode { kGroupingSets, kKMeans };

  struct Config {
    uint64_t query_id = 0;
    Mode mode = Mode::kGroupingSets;
    int n_needed = 1;
    uint32_t num_vgroups = 1;
    // Total partitions the plan deployed (n + m). Wire partials naming a
    // partition at or past this are malformed and rejected; 0 disables the
    // check (unit tests that exercise the combiner without a plan).
    int total_partitions = 0;
    query::GroupingSetsSpec gs_spec;
    query::KMeansQuerySpec km_spec;
    std::vector<net::NodeId> querier_targets;
    // When to give up waiting and (for K-Means) emit what is known.
    SimTime emit_at = kSimTimeNever;
    // The result travels over the same uncertain links as everything
    // else; the combiner re-emits it this many extra times (the querier
    // deduplicates).
    int result_resends = 2;
    SimDuration resend_interval = kResendInterval;
    // True: emit as soon as ready regardless of replica rank (active
    // replication). False: only the replica-group leader emits.
    bool active_emit = true;
    ReplicaRole::Config replica;
    // Mid-query failure detection + partition repair (DESIGN.md §5f). Only
    // the primary combiner instance gets an enabled controller; it runs in
    // this actor's event context.
    RepairController::Config repair;
    ExecutionTrace* trace = nullptr;
    // Durable checkpoint sink (null = recovery disabled).
    CheckpointFn checkpoint;
    // Serialized state from a sealed-store replay (empty = fresh start). A
    // resumed combiner keeps its accumulated partials but its repair
    // controller restarts cold: chains it was mid-repairing degrade to
    // plain overcollection (the spares it lost track of are simply never
    // recruited; validity is unaffected because partials stand on their
    // own epochs).
    Bytes resume_state;
  };

  CombinerActor(net::Transport* net, device::Device* dev, Config config);

  void Start() override;

  bool emitted() const { return state_.emitted; }
  size_t partitions_complete() const { return state_.complete_order.size(); }
  bool replica_is_leader() const { return replica_->is_leader(); }
  // Null unless this instance hosts the repair controller.
  const RepairController* repair_controller() const {
    return controller_.get();
  }

  // State's field list: K-Means alignment state and GS partials are both
  // covered; the repair controller's chains are deliberately volatile (see
  // resume_state).
  Bytes SerializeState() const override;

 protected:
  void HandleMessage(const net::Message& msg) override;

 private:
  // Vertical chains are independent (each samples its own C/n rows), so
  // the combiner keeps the first partial per vertical group; the partition
  // is complete once every vertical group reported. The epoch records
  // which snapshot-builder replica's sample was consumed.
  struct PartitionState {
    std::map<uint32_t, std::pair<uint32_t, query::GroupingSetsResult>>
        by_vgroup;  // vgroup -> (epoch, partial)
    bool complete = false;

    template <typename M>
    static auto Fields(M& m) { return std::tie(m.complete, m.by_vgroup); }
  };

  // Everything a checkpoint carries; the field list is its layout.
  struct State {
    // GS accumulation.
    std::map<uint32_t, PartitionState> partitions;
    std::vector<uint32_t> complete_order;
    // KM accumulation: the first report anchors centroid indices; later
    // reports align to it.
    std::vector<ml::KMeansKnowledge> km_aligned;
    ClusterStats km_stats;
    std::set<uint32_t> km_partitions_seen;
    // Partitions merged into the emitted result, with the epoch used per
    // vertical group (flattened vgroup-major in FinalResultMsg::epochs).
    std::vector<std::pair<uint32_t, std::vector<uint32_t>>>
        merged_partitions;
    bool result_ready = false;
    bool emitted = false;
    data::Table pending_result;  // meaningful only once result_ready

    template <typename M>
    static auto Fields(M& m) {
      return wire::Tie(m.partitions, m.complete_order, m.km_aligned,
                       m.km_stats, m.km_partitions_seen, m.merged_partitions,
                       m.result_ready, m.emitted,
                       wire::If(m.result_ready, m.pending_result));
    }
  };

  void OnGsPartial(const net::Message& msg);
  void OnKmFinal(const net::Message& msg);
  void MaybeCombineGs();
  void CombineAndEmitGs();
  // Recovery from a failed combine: forget the partition whose partial
  // poisoned the merge so a spare overcollected partition (or a clean
  // re-delivery) can take its place, then retry.
  void EvictPoisonedPartition(uint32_t partition);
  void EmitPending();
  void OnEmitTimer();
  void CombineAndEmitKm();
  void SendResult(const data::Table& table);
  void EmitWithResends();
  // Decodes a checkpoint and checks it keeps the handlers' invariants;
  // state_ changes only if both pass.
  Status RestoreState(const Bytes& bytes);
  void OnRecoveryHello(const net::Message& msg);

  Config config_;
  std::unique_ptr<ReplicaRole> replica_;
  std::unique_ptr<RepairController> controller_;

  State state_;
  // A GS combine is scheduled; volatile, as the combine dies with a crash.
  bool combining_ = false;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_COMBINER_H_
