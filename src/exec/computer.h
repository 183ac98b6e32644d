#ifndef EDGELET_EXEC_COMPUTER_H_
#define EDGELET_EXEC_COMPUTER_H_

#include <map>
#include <memory>
#include <optional>

#include "exec/actor.h"
#include "exec/replica.h"
#include "ml/kmeans.h"
#include "query/query.h"

namespace edgelet::exec {

// A Computer operator bound to one (partition, vertical-group) slice of the
// snapshot.
//
// Grouping-Sets mode: on receiving its slice, evaluates its assigned
// grouping sets and ships the mergeable partial to the combiner(s).
//
// K-Means mode (paper §2.2): heartbeat-cadenced loop — every heartbeat it
// (1) integrates the knowledge received from peer Computers since the last
// round (synchronization phase), (2) runs `local_iterations` Lloyd steps on
// its local partition (local convergence phase) and (3) broadcasts its
// knowledge. Rounds advance on the clock even when nothing was received.
// Right before the deadline (the last heartbeat) it reports knowledge plus
// per-cluster aggregates to the combiner(s).
class ComputerActor : public OperatorActor {
 public:
  enum class Mode { kGroupingSets, kKMeans };

  struct Config {
    uint64_t query_id = 0;
    uint32_t partition = 0;
    uint32_t vgroup = 0;
    Mode mode = Mode::kGroupingSets;

    // Grouping-Sets mode.
    query::GroupingSetsSpec gs_spec;
    std::vector<size_t> set_indices;

    // K-Means mode.
    query::KMeansQuerySpec km_spec;
    // peers[i] = replica group of another partition's computer.
    std::vector<std::vector<net::NodeId>> peers;
    SimTime first_heartbeat = 0;
    SimDuration heartbeat_period = 10 * kSecond;
    int num_heartbeats = 1;

    // Output: every combiner instance (primary + active backup, or the
    // Backup-strategy replica group).
    std::vector<net::NodeId> combiners;

    ReplicaRole::Config replica;
    ExecutionTrace* trace = nullptr;
    // Extra re-emissions of partials / final reports (combiners dedup).
    int emission_resends = 0;
    // Liveness lease renewals toward the repair controller (off unless the
    // execution enables repair).
    LivenessBeacon::Config liveness;
    // Durable checkpoint sink (null = recovery disabled).
    CheckpointFn checkpoint;
    // Serialized state from a sealed-store replay (empty = fresh start).
    Bytes resume_state;
  };

  ComputerActor(net::Transport* net, device::Device* dev, Config config);

  void Start() override;

  bool has_slice() const { return have_slice_; }
  bool output_sent() const { return output_sent_; }
  int rounds_with_peer_input() const { return rounds_with_peer_input_; }
  uint32_t slice_epoch() const { return slice_epoch_; }

  // State's field list. The K-Means inbox and round-dedup map are
  // deliberately volatile: peer knowledge lost in a crash is re-integrated
  // from later rounds' broadcasts, the same degradation as a lossy link.
  Bytes SerializeState() const override;
  uint32_t checkpoint_epoch() const override { return slice_epoch_; }

 protected:
  void HandleMessage(const net::Message& msg) override;

 private:
  // What a checkpoint carries; the field list is its layout.
  struct State {
    bool have_slice = false;
    bool output_sent = false;
    uint32_t slice_epoch = 0;
    data::ColumnTable slice;
    bool km_initialized = false;
    ml::KMeansKnowledge knowledge;  // present only when km_initialized
    int rounds_with_peer_input = 0;

    template <typename M>
    static auto Fields(M& m) {
      return wire::Tie(m.have_slice, m.output_sent, m.slice_epoch, m.slice,
                       m.km_initialized,
                       wire::If(m.km_initialized, m.knowledge),
                       m.rounds_with_peer_input);
    }
  };

  void OnSlice(const net::Message& msg);
  void ComputeAndEmitGs();
  void EmitGs();
  void EmitGsWithResends();
  // Decodes a checkpoint; the members change only on success.
  Status RestoreState(const Bytes& bytes);
  void Heartbeat(int round);
  void SyncPhase();
  void LocalPhase();
  void BroadcastKnowledge(int round);
  void EmitKmFinal();

  Config config_;
  std::unique_ptr<ReplicaRole> replica_;

  // Slice state.
  bool have_slice_ = false;
  uint32_t slice_epoch_ = 0;
  // A view over the whole slice; over an empty table until one arrives.
  data::TableView slice_{std::make_shared<const data::ColumnTable>()};

  // GS state.
  std::optional<query::GroupingSetsResult> gs_partial_;
  bool output_sent_ = false;

  // KM state.
  ml::Matrix points_;
  ml::KMeansKnowledge knowledge_;
  bool km_initialized_ = false;
  std::vector<ml::KMeansKnowledge> inbox_;
  // (partition, round) pairs already integrated (dedup of re-broadcasts).
  std::map<std::pair<uint32_t, uint32_t>, bool> seen_rounds_;
  int rounds_with_peer_input_ = 0;
  // Mini-batch resampling state (km_spec.batch_size > 0).
  Rng mb_rng_{1};
  std::vector<uint64_t> mb_counts_;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_COMPUTER_H_
