#include "exec/roles.h"

#include "common/hash.h"
#include "exec/execution.h"

namespace edgelet::exec {

OperatorActor* Operator::actor() const {
  if (builder != nullptr) return builder.get();
  if (computer != nullptr) return computer.get();
  return combiner.get();
}

void Operator::Start() { actor()->Start(); }

RoleTable::RoleTable(const device::Fleet* fleet, const Deployment& plan,
                     const ExecutionConfig& config, SimTime base,
                     ExecutionTrace* trace)
    : fleet_(fleet),
      plan_(plan),
      config_(config),
      base_(base),
      trace_(trace),
      repair_active_(config.repair.enabled &&
                     plan.strategy == Strategy::kOvercollection &&
                     plan.query.kind == query::QueryKind::kGroupingSets &&
                     !plan.spare_pool.empty() &&
                     !plan.combiner_group.empty()) {}

uint64_t RoleTable::query_id() const { return plan_.query.query_id; }

size_t RoleTable::num_vgroups() const { return plan_.vgroup_columns.size(); }

ReplicaRole::Config RoleTable::Replica(const OperatorSpec& spec) const {
  const uint64_t chain = uint64_t{spec.partition} * 131 + spec.vgroup;
  uint64_t salt = 0;
  if (spec.epoch != 0) {
    salt = 0x5E00000000ULL + (uint64_t{spec.epoch} << 20) + chain;
  } else if (spec.kind == OperatorKind::kSnapshotBuilder) {
    salt = 0x5B000000ULL + chain;
  } else if (spec.kind == OperatorKind::kComputer) {
    salt = 0xC0000000ULL + chain;
  } else {
    salt = 0xCB00000000ULL;
  }
  ReplicaRole::Config replica;
  replica.group_id = HashCombine(query_id(), salt);
  replica.members = spec.members;
  replica.stop_at = base_ + config_.deadline;
  return replica;
}

LivenessBeacon::Config RoleTable::Liveness(const OperatorSpec& spec,
                                           RecruitRole role) const {
  LivenessBeacon::Config liveness;
  if (spec.liveness_target == 0) return liveness;
  liveness.enabled = true;
  liveness.target = spec.liveness_target;
  liveness.query_id = query_id();
  liveness.op_id = RepairOpId(role, spec.partition, spec.vgroup, spec.epoch);
  liveness.stop_at = base_ + config_.deadline;
  return liveness;
}

SnapshotBuilderActor::Config RoleTable::Builder(
    const OperatorSpec& spec) const {
  SnapshotBuilderActor::Config cfg;
  cfg.query_id = query_id();
  cfg.partition = spec.partition;
  cfg.vgroup = spec.vgroup;
  cfg.quota = plan_.quota;
  if (spec.epoch == 0) {
    cfg.computers = plan_.computer_groups[spec.partition][spec.vgroup];
  } else {
    cfg.computers = {spec.peer};
    // Recruits emit under their repair generation so their sample can
    // never be confused with a dead original's.
    cfg.epoch_override = spec.epoch;
  }
  cfg.columns = plan_.vgroup_columns[spec.vgroup];
  cfg.replica = Replica(spec);
  cfg.trace = trace_;
  cfg.emission_resends = config_.emission_resends;
  cfg.liveness = Liveness(spec, RecruitRole::kSnapshotBuilder);
  return cfg;
}

ComputerActor::Config RoleTable::Computer(const OperatorSpec& spec) const {
  const query::Query& query = plan_.query;
  const bool kmeans = query.kind == query::QueryKind::kKMeans;
  ComputerActor::Config cfg;
  cfg.query_id = query_id();
  cfg.partition = spec.partition;
  cfg.vgroup = spec.vgroup;
  cfg.mode = kmeans ? ComputerActor::Mode::kKMeans
                    : ComputerActor::Mode::kGroupingSets;
  cfg.gs_spec = query.grouping_sets;
  if (spec.vgroup < plan_.vgroup_set_indices.size()) {
    cfg.set_indices = plan_.vgroup_set_indices[spec.vgroup];
  }
  cfg.km_spec = query.kmeans;
  if (kmeans) {
    const uint32_t total = static_cast<uint32_t>(plan_.n + plan_.m);
    for (uint32_t q = 0; q < total; ++q) {
      if (q == spec.partition) continue;
      cfg.peers.push_back(plan_.computer_groups[q][0]);
    }
    cfg.first_heartbeat = base_ + config_.collection_window + 10 * kSecond;
    cfg.heartbeat_period = config_.heartbeat_period;
    cfg.num_heartbeats = config_.num_heartbeats;
  }
  cfg.combiners = plan_.combiner_group;
  cfg.replica = Replica(spec);
  cfg.trace = trace_;
  cfg.emission_resends = config_.emission_resends;
  cfg.liveness = Liveness(spec, RecruitRole::kComputer);
  return cfg;
}

CombinerActor::Config RoleTable::Combiner(const OperatorSpec& spec) const {
  const query::Query& query = plan_.query;
  CombinerActor::Config cfg;
  cfg.query_id = query_id();
  cfg.mode = query.kind == query::QueryKind::kKMeans
                 ? CombinerActor::Mode::kKMeans
                 : CombinerActor::Mode::kGroupingSets;
  cfg.n_needed = plan_.n;
  cfg.total_partitions = plan_.n + plan_.m;
  cfg.num_vgroups = static_cast<uint32_t>(num_vgroups());
  cfg.gs_spec = query.grouping_sets;
  cfg.km_spec = query.kmeans;
  cfg.querier_targets = {plan_.querier};
  cfg.emit_at = base_ + (config_.deadline > config_.combiner_margin
                             ? config_.deadline - config_.combiner_margin
                             : 0);
  cfg.result_resends = config_.result_resends;
  cfg.active_emit = plan_.strategy == Strategy::kOvercollection;
  cfg.replica = Replica(spec);
  cfg.trace = trace_;
  // Exactly one controller: the primary combiner instance. (Active
  // Backup combiners merge independently; a second controller would
  // recruit the same spares twice.)
  if (repair_active_ && spec.node == plan_.combiner_group[0]) {
    cfg.repair = Controller();
  }
  return cfg;
}

RepairController::Config RoleTable::Controller() const {
  RepairController::Config rc;
  rc.enabled = true;
  rc.query_id = query_id();
  rc.n_needed = plan_.n;
  rc.total_partitions = static_cast<uint32_t>(plan_.n + plan_.m);
  rc.num_vgroups = static_cast<uint32_t>(num_vgroups());
  rc.detector.seed = Mix64(config_.seed) ^ 0xDE7EC7;
  rc.start_at = base_;
  rc.collection_end = base_ + config_.collection_window;
  rc.deadline = base_ + config_.deadline;
  rc.combiner_margin = config_.combiner_margin;
  rc.compute_margin = config_.repair.compute_margin;
  rc.emission_margin = config_.repair.emission_margin;
  rc.spare_pool = plan_.spare_pool;
  // Every contributor device (individual or cohort): the controller
  // re-solicits devices, and a cohort fans the request out to its members
  // in the hit partition.
  for (const device::Device* dev : fleet_->contributors()) {
    rc.contributors.push_back(dev->id());
  }
  rc.trace = trace_;
  if (config_.recovery.enabled) {
    // Recovery changes two things at the controller: the detector must
    // distinguish *suspected* from *confirmed lost* (grace sized to the
    // crash-reboot turnaround), and RecoveryHellos are authenticated
    // against the plan's incumbent device per (partition, vgroup).
    rc.detector.confirm_grace = kGraceWindow;
    const size_t vgroups = num_vgroups();
    rc.original_builders.assign(rc.total_partitions,
                                std::vector<net::NodeId>(vgroups, 0));
    rc.original_computers.assign(rc.total_partitions,
                                 std::vector<net::NodeId>(vgroups, 0));
    for (uint32_t p = 0; p < rc.total_partitions; ++p) {
      for (size_t vg = 0; vg < vgroups; ++vg) {
        if (!plan_.sb_groups[p][vg].empty()) {
          rc.original_builders[p][vg] = plan_.sb_groups[p][vg][0];
        }
        if (!plan_.computer_groups[p][vg].empty()) {
          rc.original_computers[p][vg] = plan_.computer_groups[p][vg][0];
        }
      }
    }
  }
  return rc;
}

Operator RoleTable::Build(net::Transport* net, device::Device* dev,
                          const OperatorSpec& spec, CheckpointFn checkpoint,
                          Bytes resume_state) const {
  Operator op;
  switch (spec.kind) {
    case OperatorKind::kSnapshotBuilder: {
      SnapshotBuilderActor::Config cfg = Builder(spec);
      cfg.checkpoint = std::move(checkpoint);
      cfg.resume_state = std::move(resume_state);
      op.builder =
          std::make_unique<SnapshotBuilderActor>(net, dev, std::move(cfg));
      break;
    }
    case OperatorKind::kComputer: {
      ComputerActor::Config cfg = Computer(spec);
      cfg.checkpoint = std::move(checkpoint);
      cfg.resume_state = std::move(resume_state);
      op.computer = std::make_unique<ComputerActor>(net, dev, std::move(cfg));
      break;
    }
    case OperatorKind::kCombiner: {
      CombinerActor::Config cfg = Combiner(spec);
      cfg.checkpoint = std::move(checkpoint);
      cfg.resume_state = std::move(resume_state);
      op.combiner = std::make_unique<CombinerActor>(net, dev, std::move(cfg));
      break;
    }
  }
  return op;
}

OperatorSpec RoleTable::RecruitSpec(const RecruitMsg& req, net::NodeId node) {
  OperatorSpec spec;
  spec.kind = req.role == RecruitRole::kSnapshotBuilder
                  ? OperatorKind::kSnapshotBuilder
                  : OperatorKind::kComputer;
  spec.partition = req.partition;
  spec.vgroup = req.vgroup;
  spec.node = node;
  // Singleton group (Overcollection discipline: recruits are singletons
  // like the originals).
  spec.members = {node};
  spec.epoch = req.epoch;
  spec.liveness_target = req.controller;
  spec.peer = req.peer;
  return spec;
}

}  // namespace edgelet::exec
