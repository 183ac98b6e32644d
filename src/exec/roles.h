#ifndef EDGELET_EXEC_ROLES_H_
#define EDGELET_EXEC_ROLES_H_

#include <memory>
#include <vector>

#include "device/fleet.h"
#include "exec/combiner.h"
#include "exec/computer.h"
#include "exec/recovery.h"
#include "exec/snapshot_builder.h"

namespace edgelet::exec {

struct Deployment;
struct ExecutionConfig;

// One chain operator to build: which role, for which (partition, vgroup)
// chain, on which device. Deployment, crash-recovery resume and spare
// recruitment all describe the operator they want this way.
struct OperatorSpec {
  OperatorKind kind = OperatorKind::kSnapshotBuilder;
  uint32_t partition = 0;
  uint32_t vgroup = 0;
  net::NodeId node = 0;
  // Rank-ordered replica group; contains `node`.
  std::vector<net::NodeId> members;
  // Repair generation: 0 for a planned operator, the repair epoch
  // (>= kRepairEpochBase) for a recruit, whose slices carry it as epoch.
  uint32_t epoch = 0;
  // The repair controller's device, which the operator's liveness beacon
  // renews its lease at; 0 = no beacon.
  net::NodeId liveness_target = 0;
  // A recruited builder's recruited computer (a planned builder feeds its
  // chain's planned computer group).
  net::NodeId peer = 0;
};

// One incarnation of a chain operator: exactly one pointer is set.
struct Operator {
  std::unique_ptr<SnapshotBuilderActor> builder;
  std::unique_ptr<ComputerActor> computer;
  std::unique_ptr<CombinerActor> combiner;

  OperatorActor* actor() const;
  void Start();
};

// The role table: the one place a chain operator's Config is derived from
// the plan, the ExecutionConfig and the execution's start time, and the
// one place a chain operator is constructed.
class RoleTable {
 public:
  // `plan` and `config` must outlive the table (the owning execution
  // holds both).
  RoleTable(const device::Fleet* fleet, const Deployment& plan,
            const ExecutionConfig& config, SimTime base,
            ExecutionTrace* trace);

  uint64_t query_id() const;
  size_t num_vgroups() const;
  // True when the execution runs the repair subsystem: repair requested,
  // Grouping Sets over Overcollection, and the plan reserved spares.
  bool repair_active() const { return repair_active_; }

  // One function per role.
  SnapshotBuilderActor::Config Builder(const OperatorSpec& spec) const;
  ComputerActor::Config Computer(const OperatorSpec& spec) const;
  CombinerActor::Config Combiner(const OperatorSpec& spec) const;

  // Constructs (does not start) the operator `spec` describes on `dev`,
  // checkpointing into `checkpoint` (null = recovery off) and resuming from
  // `resume_state` (empty = fresh start).
  Operator Build(net::Transport* net, device::Device* dev,
                 const OperatorSpec& spec, CheckpointFn checkpoint,
                 Bytes resume_state) const;

  // The operator a recruit assignment asks `node` to become: a singleton
  // group under the assignment's repair epoch, beating to the controller.
  static OperatorSpec RecruitSpec(const RecruitMsg& req, net::NodeId node);

 private:
  ReplicaRole::Config Replica(const OperatorSpec& spec) const;
  LivenessBeacon::Config Liveness(const OperatorSpec& spec,
                                  RecruitRole role) const;
  RepairController::Config Controller() const;

  const device::Fleet* fleet_;
  const Deployment& plan_;
  const ExecutionConfig& config_;
  SimTime base_ = 0;
  ExecutionTrace* trace_ = nullptr;
  bool repair_active_ = false;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_ROLES_H_
