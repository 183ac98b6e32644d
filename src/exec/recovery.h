#ifndef EDGELET_EXEC_RECOVERY_H_
#define EDGELET_EXEC_RECOVERY_H_

#include <functional>
#include <memory>
#include <tuple>

#include "exec/actor.h"
#include "store/device_store.h"

namespace edgelet::exec {

// Crash-with-recovery subsystem (DESIGN.md §5k): operator actors persist
// sealed checkpoints into a per-(device, query) store, and a restarted
// device replays its log, re-attests, and resumes its role instead of
// being declared failed. Off by default; with enabled == false no store is
// created, no checkpoint sinks are wired, and executions are bit-identical
// to pre-recovery builds.
struct RecoveryConfig {
  bool enabled = false;
  // Stable-medium fault injection (torn writes / bit flips), sim only.
  store::MediumFaultConfig store_faults;
};

// Cadence throttle for non-critical checkpoints (routine deltas such as
// per-round K-Means knowledge). Critical phase transitions — snapshot
// complete, slice/partial/result emitted — always persist.
inline constexpr SimDuration kCheckpointInterval = 2 * kSecond;
// Two roles in one constant, both about how long "suspected" may age before
// it means "lost": the failure detector's confirm grace (a chain is only
// repaired once a suspicion is this old — sized to the expected
// crash-reboot turnaround), and the rebooted operator's patience for a
// coordinator verdict before it resumes unilaterally.
inline constexpr SimDuration kGraceWindow = 15 * kSecond;
// RecoveryHello re-sends toward the coordinator (backoff schedule from
// kResendInterval).
inline constexpr int kHelloResends = 2;

// Which operator a checkpoint record belongs to. Extends RecruitRole with
// the combiner (which is never recruited, but does checkpoint).
enum class OperatorKind : uint8_t {
  kSnapshotBuilder = 0,
  kComputer = 1,
  kCombiner = 2,
};
// The last valid tag: the wire codec rejects any above it.
constexpr OperatorKind WireLastTag(OperatorKind) {
  return OperatorKind::kCombiner;
}

// The envelope persisted per checkpoint: enough to validate on replay that
// the record belongs to this device's role and to carry the last durable
// emission epoch into the RecoveryHello.
struct CheckpointRecord {
  OperatorKind kind = OperatorKind::kSnapshotBuilder;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  uint32_t epoch = 0;        // emission epoch the state belongs to
  uint64_t incarnation = 0;  // boot epoch that wrote the record
  Bytes state;               // the actor's SerializeState payload

  template <typename M>
  static auto Fields(M& m) {
    return std::tie(m.kind, m.partition, m.vgroup, m.epoch, m.incarnation,
                    m.state);
  }
  Bytes Encode() const { return wire::Encode(*this); }
  static Result<CheckpointRecord> Decode(const Bytes& b) {
    return wire::Decode<CheckpointRecord>(b);
  }
};

// Owns one operator device's sealed store and its crash-recovery protocol
// for one query. Lives *outside* the device's volatile world (owned by the
// execution), so — like a flash partition — it survives the simulated
// reboot that wipes the device's bindings and actors.
//
// On Network::Restart the device runs this host's restart hook in its own
// event context: the host re-attests the enclave (Provision — tampered
// code cannot rejoin), replays the sealed log, and, with a durable record
// in hand, asks the repair coordinator for permission to resume
// (RecoveryHello/RecoveryAck, epoch-fenced). A missing coordinator (repair
// disabled, or the host IS the coordinator's combiner) or a verdict that
// never arrives within the grace window leads to a unilateral resume —
// epoch fencing at the combiner keeps a racing recruit harmless either
// way. Resuming means invoking the execution-provided factory, which
// rebuilds the operator actor from the restored state and Start()s it
// under the new boot epoch.
//
// Determinism: everything here runs in the owning device's event context
// (restart hook, timers, message delivery), draws from no node streams,
// and only ever touches this host's own slot — safe under parsim for any
// shard count.
class RecoveryHost {
 public:
  struct Config {
    uint64_t query_id = 0;
    OperatorKind kind = OperatorKind::kSnapshotBuilder;
    uint32_t partition = 0;
    uint32_t vgroup = 0;
    // The repair controller's device; 0 = no coordinator, resume
    // unilaterally.
    net::NodeId coordinator = 0;
    // No recovery is attempted at or past this time (the deadline: a
    // resume that cannot contribute anymore is pure noise).
    SimTime stop_at = kSimTimeNever;
    // Rebuilds the operator actor from restored state and Start()s it.
    // Runs in the device's event context; the callee owns the actor.
    std::function<void(const Bytes& state)> resume;
    ExecutionTrace* trace = nullptr;
  };

  RecoveryHost(net::Transport* net, device::Device* dev, Config config,
               std::unique_ptr<store::StableMedium> medium);
  ~RecoveryHost();

  RecoveryHost(const RecoveryHost&) = delete;
  RecoveryHost& operator=(const RecoveryHost&) = delete;

  // The checkpoint sink to wire into the operator actor's config. Applies
  // the cadence throttle, and only past it serializes the actor's state
  // into a CheckpointRecord and appends it to the sealed store.
  CheckpointFn MakeCheckpointFn();

  const store::DeviceStore& store() const { return store_; }
  uint32_t recoveries_resumed() const { return recoveries_resumed_; }
  uint64_t integrity_failures() const {
    return store_.stats().integrity_failures;
  }

 private:
  void OnRestart();
  void SendHello();
  void OnMessage(const net::Message& msg);
  void Resume();

  net::Transport* net_;
  device::Device* dev_;
  Config config_;
  store::DeviceStore store_;

  // Checkpoint cadence.
  bool has_checkpointed_ = false;
  SimTime last_checkpoint_ = 0;

  // Per-boot recovery attempt; fenced by the boot epoch it started under.
  uint64_t attempt_incarnation_ = 0;
  bool awaiting_ack_ = false;
  Bytes pending_state_;
  uint32_t pending_epoch_ = 0;
  uint32_t recoveries_resumed_ = 0;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_RECOVERY_H_
