#include "exec/execution.h"

#include <algorithm>

#include "common/hash.h"
#include "data/generator.h"

namespace edgelet::exec {

std::string_view StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kOvercollection:
      return "Overcollection";
    case Strategy::kBackup:
      return "Backup";
  }
  return "?";
}

void SerializeReport(const ExecutionReport& report, Writer* w) {
  w->PutBool(report.success);
  w->PutU64(report.completion_time);
  report.result.Serialize(w);
  w->PutVarint(report.partitions_used.size());
  for (uint32_t p : report.partitions_used) w->PutU32(p);
  w->PutVarint(report.epochs_used.size());
  for (uint32_t e : report.epochs_used) w->PutU32(e);
  w->PutVarintSigned(report.n);
  w->PutVarintSigned(report.m);
  w->PutU8(static_cast<uint8_t>(report.strategy));
  w->PutVarint(report.processors_killed);
  w->PutVarint(report.contributors_participating);
  w->PutU32(report.duplicate_results);
  w->PutU64(report.messages_sent);
  w->PutU64(report.messages_delivered);
  w->PutU64(report.bytes_sent);
  w->PutVarint(report.snapshot_contributors_by_vgroup.size());
  for (const auto& vg : report.snapshot_contributors_by_vgroup) {
    w->PutVarint(vg.size());
    for (uint64_t key : vg) w->PutU64(key);
  }
  w->PutU64(report.max_observed_exposure_tuples);
  // Repair subsystem fields: appended at the end so pre-repair fingerprint
  // expectations stay valid (repair-off reports serialize the zero values
  // deterministically).
  w->PutU64(report.failures_detected);
  w->PutU32(report.repairs_attempted);
  w->PutU32(report.repairs_succeeded);
  w->PutU64(report.early_abort_time);
  // Crash-recovery fields: a conditional tail, appended only when either
  // counter is nonzero, so every fingerprint pinned before the recovery
  // subsystem existed (necessarily from recovery-off runs) stays valid
  // byte-for-byte. Store telemetry (checkpoints_written, fsync time) is
  // deliberately NOT serialized: it depends on checkpoint cadence, which
  // live transports time differently than the DES.
  if (report.recoveries_resumed != 0 ||
      report.repairs_cancelled_by_return != 0) {
    w->PutU32(report.recoveries_resumed);
    w->PutU32(report.repairs_cancelled_by_return);
  }
}

uint64_t ReportFingerprint(const ExecutionReport& report) {
  Writer w;
  SerializeReport(report, &w);
  return Fnv1a64(w.data().data(), w.size());
}

QueryExecution::QueryExecution(net::Transport* net,
                               device::Fleet* fleet, Deployment deployment,
                               ExecutionConfig config)
    : live_scope_(net->engine()->is_live() ? std::make_shared<bool>(true)
                                           : nullptr),
      net_(net->engine(), net->network(), live_scope_),
      network_(net->network()),
      fleet_(fleet),
      deployment_(std::move(deployment)),
      config_(config) {}

QueryExecution::~QueryExecution() {
  if (live_scope_ != nullptr) *live_scope_ = false;
}

Status QueryExecution::CheckDeployment() const {
  if (deployment_.query.query_id == 0) {
    return Status::InvalidArgument("query_id must be nonzero");
  }
  auto need_device = [this](net::NodeId node, const char* role) -> Status {
    if (fleet_->by_node(node) != nullptr) return Status::OK();
    return Status::NotFound(std::string(role) + " device " +
                            std::to_string(node) + " missing");
  };
  const size_t total = static_cast<size_t>(deployment_.n + deployment_.m);
  const size_t vgroups = deployment_.vgroup_columns.size();
  auto check_grid = [&](const auto& groups,
                        const std::string& name) -> Status {
    if (groups.size() != total) {
      return Status::InvalidArgument(name + " size != n+m");
    }
    for (const auto& partition : groups) {
      if (partition.size() != vgroups) {
        return Status::InvalidArgument(name + " vgroup arity mismatch");
      }
      for (const auto& group : partition) {
        for (net::NodeId node : group) {
          EDGELET_RETURN_NOT_OK(need_device(node, "operator"));
        }
      }
    }
    return Status::OK();
  };
  EDGELET_RETURN_NOT_OK(check_grid(deployment_.sb_groups, "sb_groups"));
  EDGELET_RETURN_NOT_OK(
      check_grid(deployment_.computer_groups, "computer_groups"));
  for (net::NodeId node : deployment_.combiner_group) {
    EDGELET_RETURN_NOT_OK(need_device(node, "operator"));
  }
  for (net::NodeId node : deployment_.spare_pool) {
    EDGELET_RETURN_NOT_OK(need_device(node, "spare"));
  }
  return need_device(deployment_.querier, "querier");
}

Status QueryExecution::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  // Every check runs before the first actor exists: actors schedule events
  // that point into this execution, so a rejected Start() must build none.
  EDGELET_RETURN_NOT_OK(CheckDeployment());
  EDGELET_RETURN_NOT_OK(ResolveContributionPlan());
  started_ = true;
  base_ = net_.now();
  if (config_.enable_trace) trace_ = std::make_unique<ExecutionTrace>(net_.engine());
  // Taken before any actor exists: replica leaders emit their first ping
  // during construction, and those sends must land inside the delta.
  query_stats_before_ = network_->query_stats(deployment_.query.query_id);
  roles_ = std::make_unique<RoleTable>(fleet_, deployment_, config_, base_,
                                       trace_.get());
  // Every contributor schedules a contribution plus churn/resend events;
  // pre-size the event queue so the collection burst doesn't regrow it.
  net_.engine()->ReserveEvents(fleet_->contributors().size() * 2 + 256);

  EDGELET_RETURN_NOT_OK(BuildContributors());
  BuildOperators();
  if (roles_->repair_active()) BuildSpares();
  querier_ = std::make_unique<QuerierActor>(
      &net_, fleet_->by_node(deployment_.querier),
      deployment_.query.query_id, trace_.get());

  for (const OperatorSlot& slot : slots_) {
    const CombinerActor* combiner = slot.incarnations.front().combiner.get();
    if (combiner != nullptr && combiner->repair_controller() != nullptr) {
      controller_ = combiner->repair_controller();
      break;
    }
  }
  SnapshotExposure();

  if (config_.inject_failures && config_.failure_probability > 0) {
    InjectFailures();
  }
  return Status::OK();
}

void QueryExecution::SnapshotExposure() {
  exposure_before_.clear();
  for (const OperatorSlot& slot : slots_) {
    if (slot.spec.kind == OperatorKind::kCombiner) continue;
    exposure_before_.push_back(
        slot.dev->enclave().cleartext_tuples_observed());
  }
  for (const auto& spare : spares_) {
    exposure_before_.push_back(
        spare->dev()->enclave().cleartext_tuples_observed());
  }
}

std::unique_ptr<RecoveryHost> QueryExecution::MakeRecoveryHost(size_t index) {
  if (!config_.recovery.enabled) return nullptr;
  const OperatorSlot& slot = slots_[index];
  // One sealed store (and one restart hook + recovery protocol) per device
  // per query: a device hosting several replicas recovers only the first
  // role built on it. Planners place operators on distinct devices, so in
  // practice this is one host per operator.
  for (size_t i = 0; i < index; ++i) {
    if (slots_[i].host != nullptr && slots_[i].dev == slot.dev) return nullptr;
  }
  RecoveryHost::Config hc;
  hc.query_id = deployment_.query.query_id;
  hc.kind = slot.spec.kind;
  hc.partition = slot.spec.partition;
  hc.vgroup = slot.spec.vgroup;
  // With the repair controller active, chain operators ask it before
  // resuming (epoch fencing decides the race against an in-flight repair).
  // The combiner hosts the controller itself, so it always resumes
  // unilaterally — as does everyone when repair is off.
  hc.coordinator =
      (roles_->repair_active() && slot.spec.kind != OperatorKind::kCombiner)
          ? deployment_.combiner_group[0]
          : 0;
  hc.stop_at = base_ + config_.deadline;
  // A resume rebuilds the operator from its replayed state under the new
  // boot epoch, checkpointing into the same store. A resumed combiner
  // keeps its partials but its repair controller restarts cold — see
  // CombinerActor::Config::resume_state.
  hc.resume = [this, index](const Bytes& state) {
    StartIncarnation(index, state);
  };
  hc.trace = trace_.get();
  auto medium = std::make_unique<store::MemoryMedium>(
      config_.recovery.store_faults, slot.dev->id());
  return std::make_unique<RecoveryHost>(&net_, slot.dev, std::move(hc),
                                        std::move(medium));
}

Status QueryExecution::ResolveContributionPlan() {
  const query::Query& query = deployment_.query;
  ContributionPlan plan{.query_id = query.query_id,
                        .builders = deployment_.sb_groups};
  auto unresolved = [](const char* what, const Status& status) {
    return Status::InvalidArgument(std::string("contribution ") + what +
                                   " do not resolve: " + status.message());
  };
  for (device::Device* dev : fleet_->contributors()) {
    const data::TableView& local = dev->local_view();
    if (local.empty() || plan.Find(local.store()) != nullptr) continue;
    // A member's key is its record's contributor_id: it feeds hash
    // partitioning and the validity oracle's snapshot reconstruction.
    auto key = local.schema().IndexOf(data::kContributorIdColumn);
    if (!key.ok() ||
        local.schema().column(*key).type != data::ValueType::kInt64) {
      return Status::InvalidArgument(
          "population store lacks an int64 contributor_id column");
    }
    auto compiled = query::CompilePredicates(local.store(), query.predicates);
    if (!compiled.ok()) return unresolved("predicates", compiled.status());
    auto encoder = ContributionEncoder::Resolve(
        query.query_id, local.schema(), deployment_.vgroup_columns);
    if (!encoder.ok()) return unresolved("projections", encoder.status());
    plan.stores.push_back({.store = &local.store(),
                           .key_column = *key,
                           .compiled = std::move(*compiled),
                           .encoder = std::move(*encoder)});
  }
  contribution_plan_ = std::move(plan);
  return Status::OK();
}

Status QueryExecution::BuildContributors() {
  contribution_plan_.trace = trace_.get();
  // Contact times come from one stream in (device, row) order: fleet order
  // for one-member devices, row order inside a cohort.
  Rng rng(Mix64(config_.seed) ^ 0xC0117B);
  for (device::Device* dev : fleet_->contributors()) {
    const data::TableView& local = dev->local_view();
    if (local.empty()) continue;
    const ContributionPlan::ResolvedStore* store =
        contribution_plan_.Find(local.store());
    std::vector<ContributorActor::Member> members(local.num_rows());
    for (size_t r = 0; r < members.size(); ++r) {
      const size_t store_row = local.StoreRow(r);
      if (store->store->IsNull(store_row, store->key_column)) {
        return Status::InvalidArgument("member without a contributor_id");
      }
      members[r].contributor_key = static_cast<uint64_t>(
          store->store->Int64At(store_row, store->key_column));
      members[r].row = static_cast<uint32_t>(r);
      members[r].send_at =
          base_ + (config_.collection_window > 0
                       ? rng.NextBelow(config_.collection_window)
                       : 0);
    }
    contributors_.push_back(std::make_unique<ContributorActor>(
        &net_, dev, &contribution_plan_, store, std::move(members)));
  }
  // Started only once every key resolved: a rejected Start() leaves no
  // event behind that points into this execution.
  for (const auto& contributor : contributors_) contributor->Start();
  return Status::OK();
}

void QueryExecution::BuildOperators() {
  const uint32_t total = static_cast<uint32_t>(deployment_.n + deployment_.m);
  // Chain operators renew their liveness lease at the repair controller,
  // hosted by the primary combiner.
  const net::NodeId controller =
      roles_->repair_active() ? deployment_.combiner_group[0] : 0;
  auto add_chains = [&](OperatorKind kind, const auto& groups) {
    for (uint32_t p = 0; p < total; ++p) {
      for (uint32_t vg = 0; vg < groups[p].size(); ++vg) {
        for (net::NodeId node : groups[p][vg]) {
          AddOperator({.kind = kind,
                       .partition = p,
                       .vgroup = vg,
                       .node = node,
                       .members = groups[p][vg],
                       .liveness_target = controller});
        }
      }
    }
  };
  add_chains(OperatorKind::kSnapshotBuilder, deployment_.sb_groups);
  add_chains(OperatorKind::kComputer, deployment_.computer_groups);
  // Overcollection runs independent active combiner instances (singleton
  // groups); Backup runs one leader/standby group.
  const bool active = deployment_.strategy == Strategy::kOvercollection;
  for (net::NodeId node : deployment_.combiner_group) {
    AddOperator({.kind = OperatorKind::kCombiner,
                 .node = node,
                 .members = active ? std::vector<net::NodeId>{node}
                                   : deployment_.combiner_group});
  }
}

void QueryExecution::AddOperator(OperatorSpec spec) {
  device::Device* dev = fleet_->by_node(spec.node);
  const size_t index = slots_.size();
  slots_.push_back(OperatorSlot{std::move(spec), dev, {}, nullptr});
  slots_[index].host = MakeRecoveryHost(index);
  StartIncarnation(index, {});
}

void QueryExecution::StartIncarnation(size_t index, const Bytes& state) {
  OperatorSlot& slot = slots_[index];
  CheckpointFn checkpoint;
  if (slot.host != nullptr) checkpoint = slot.host->MakeCheckpointFn();
  slot.incarnations.push_back(
      roles_->Build(&net_, slot.dev, slot.spec, std::move(checkpoint),
                    state));
  slot.incarnations.back().Start();
}

void QueryExecution::BuildSpares() {
  for (net::NodeId node : deployment_.spare_pool) {
    spares_.push_back(std::make_unique<SpareActor>(&net_,
                                                   fleet_->by_node(node),
                                                   roles_.get()));
  }
}

void QueryExecution::InjectFailures() {
  // Every Data Processor device is a potential victim; contributors and
  // the querier are out of scope (a missing contributor just shrinks the
  // crowd; the querier is the beneficiary).
  std::vector<net::NodeId> targets;
  auto add = [&targets](net::NodeId id) {
    if (std::find(targets.begin(), targets.end(), id) == targets.end()) {
      targets.push_back(id);
    }
  };
  for (const auto& partition : deployment_.sb_groups) {
    for (const auto& group : partition) {
      for (net::NodeId id : group) add(id);
    }
  }
  for (const auto& partition : deployment_.computer_groups) {
    for (const auto& group : partition) {
      for (net::NodeId id : group) add(id);
    }
  }
  for (net::NodeId id : deployment_.combiner_group) add(id);
  // Spares are processors too (a recruited spare can crash like any other
  // operator); appended after the legacy targets so repair-off executions
  // draw the exact same kill plan as before the repair subsystem existed.
  if (roles_->repair_active()) {
    for (net::NodeId id : deployment_.spare_pool) add(id);
  }

  Rng rng(Mix64(config_.seed) ^ 0xFA11);
  device::FailurePlan plan = device::PlanFailures(
      targets, config_.failure_probability, base_, base_ + config_.deadline,
      &rng);
  device::ScheduleFailures(network_, plan);
  if (trace_ != nullptr) {
    for (const auto& [id, when] : plan.kills) {
      trace_->Record(when, TraceEventKind::kDeviceKilled, id);
    }
  }
  report_.processors_killed = plan.kills.size();
}

SimDuration QueryExecution::poll_step() const {
  return controller_ == nullptr ? 0 : resilience::kLeasePeriod;
}

bool QueryExecution::abort_requested() const {
  return controller_ != nullptr && controller_->abort_requested();
}

SimTime QueryExecution::quiescent_at() const {
  if (!started_) return net_.now();
  // Latest protocol activity: emissions end by the deadline (the K-Means
  // cadence can outlast it), resend tails ride on the last emission with
  // exponential backoff, and each periodic loop (pings, beacons, detector
  // scans) stops rescheduling at stop_at but may land one period past it.
  const SimTime end = SatAdd(base_, config_.deadline);
  const SimTime km_end =
      base_ + config_.collection_window + 10 * kSecond +
      static_cast<SimDuration>(config_.num_heartbeats + 1) *
          config_.heartbeat_period;
  const int max_resends = std::max(
      {config_.result_resends, config_.emission_resends, kRecruitResends});
  const SimDuration tail = ResendBackoffDelay(max_resends, kResendInterval);
  const SimDuration period = std::max(
      {kPingPeriod, config_.heartbeat_period, resilience::kLeasePeriod});
  // A device restarting just before the deadline may still run its hello
  // resends and grace-window fallback timer past it.
  SimDuration recovery_tail = 0;
  if (config_.recovery.enabled) {
    recovery_tail = SatAdd(kGraceWindow,
                           ResendBackoffDelay(kHelloResends, kResendInterval));
  }
  return SatAdd(SatAdd(SatAdd(std::max(end, km_end), tail), period),
                recovery_tail);
}

Status QueryExecution::Finish() {
  if (!started_) return Status::FailedPrecondition("call Start() first");
  if (finished_) return Status::OK();
  finished_ = true;
  CollectReport();
  return Status::OK();
}

Status QueryExecution::RunToCompletion() {
  if (!started_) return Status::FailedPrecondition("call Start() first");
  const SimTime end = end_time();
  const SimDuration step = poll_step();
  if (step == 0) {
    net_.RunUntil(end);
  } else {
    // Fail-safe early termination: run in lease-period chunks so an abort
    // decision stops the execution at (just past) decision time instead of
    // idling to the deadline. Chunked RunUntil is engine-invariant — both
    // engines run every event with time <= the chunk boundary — so shard
    // counts keep producing identical reports.
    SimTime t = base_;
    while (t < end) {
      t = std::min<SimTime>(end, t + step);
      net_.RunUntil(t);
      if (abort_requested()) break;
    }
  }
  return Finish();
}

void QueryExecution::CollectReport() {
  report_.n = deployment_.n;
  report_.m = deployment_.m;
  report_.strategy = deployment_.strategy;
  report_.success = querier_->has_result() &&
                    querier_->result_time() <= base_ + config_.deadline;
  if (report_.success) {
    report_.completion_time = querier_->result_time() - base_;
    report_.result = querier_->result().result;
    report_.partitions_used = querier_->result().partitions;
    report_.epochs_used = querier_->result().epochs;
  }
  report_.duplicate_results = querier_->duplicates();
  for (const auto& c : contributors_) {
    report_.contributors_participating += c->members_contributed();
  }

  // Attribution by query tag: correct even when executions overlap on one
  // network. The delta against the Start() snapshot keeps repeated runs of
  // the same query id on one framework independent.
  const net::QueryNetStats now =
      network_->query_stats(deployment_.query.query_id);
  report_.messages_sent = now.messages_sent - query_stats_before_.messages_sent;
  report_.messages_delivered =
      now.messages_delivered - query_stats_before_.messages_delivered;
  report_.bytes_sent = now.bytes_sent - query_stats_before_.bytes_sent;

  // One walk over the slots: per-execution exposure (enclave counters are
  // device-lifetime cumulative, so subtract the Start() snapshot taken in
  // the same order), recovery and store counters, every incarnation's
  // repair-controller counters (a resumed combiner's fresh controller
  // covers the stretch its defunct predecessors never saw), and the newest
  // builder of every chain, in rank order.
  const size_t vgroups = deployment_.vgroup_columns.size();
  const size_t total = deployment_.sb_groups.size();
  std::vector<std::vector<const SnapshotBuilderActor*>> chain_builders(
      total * vgroups);
  size_t xi = 0;
  auto note_exposure = [this, &xi](tee::Enclave& enclave) {
    const uint64_t observed = enclave.cleartext_tuples_observed();
    const uint64_t before =
        xi < exposure_before_.size() ? exposure_before_[xi] : 0;
    ++xi;
    report_.max_observed_exposure_tuples =
        std::max(report_.max_observed_exposure_tuples,
                 observed >= before ? observed - before : observed);
  };
  for (const OperatorSlot& slot : slots_) {
    if (slot.spec.kind != OperatorKind::kCombiner) {
      note_exposure(slot.dev->enclave());
    }
    if (const SnapshotBuilderActor* b = slot.incarnations.back().builder.get()) {
      chain_builders[slot.spec.partition * vgroups + slot.spec.vgroup]
          .push_back(b);
    }
    for (const Operator& incarnation : slot.incarnations) {
      const RepairController* rc =
          incarnation.combiner != nullptr
              ? incarnation.combiner->repair_controller()
              : nullptr;
      if (rc == nullptr) continue;
      report_.failures_detected += rc->detections();
      report_.repairs_attempted += rc->repairs_attempted();
      report_.repairs_succeeded += rc->repairs_succeeded();
      report_.repairs_cancelled_by_return += rc->repairs_cancelled_by_return();
    }
    if (slot.host != nullptr) {
      report_.recoveries_resumed += slot.host->recoveries_resumed();
      report_.checkpoints_written += slot.host->store().stats().checkpoints;
      report_.store_integrity_failures += slot.host->integrity_failures();
    }
  }
  for (const auto& spare : spares_) note_exposure(spare->dev()->enclave());
  if (controller_ != nullptr && controller_->abort_requested()) {
    report_.early_abort_time = controller_->abort_time() - base_;
  }

  // Reconstruct the exact crowd sample behind a Grouping Sets result from
  // the (partition, vgroup, epoch) triples the combiner merged.
  if (deployment_.query.kind == query::QueryKind::kGroupingSets) {
    report_.snapshot_contributors_by_vgroup.assign(vgroups, {});
    for (size_t i = 0; i < report_.partitions_used.size(); ++i) {
      uint32_t p = report_.partitions_used[i];
      if (p >= total) continue;
      for (size_t vg = 0; vg < vgroups; ++vg) {
        size_t flat = i * vgroups + vg;
        uint32_t epoch =
            flat < report_.epochs_used.size() ? report_.epochs_used[flat] : 0;
        auto& out = report_.snapshot_contributors_by_vgroup[vg];
        // Originals emit under their replica rank; recruited builders emit
        // under their unique repair-generation epoch (>= kRepairEpochBase),
        // so a recruit's sample can never be attributed to a dead
        // original's rank. A resumed incumbent's newest incarnation holds
        // the sample the chain consumed: identical to the original's when
        // the crash came after emission, the only emitted one otherwise.
        for (const SnapshotBuilderActor* builder :
             chain_builders[p * vgroups + vg]) {
          if (builder->emit_epoch() != epoch) continue;
          const auto& keys = builder->included_contributors();
          out.insert(out.end(), keys.begin(), keys.end());
        }
        if (epoch < kRepairEpochBase) continue;
        for (const auto& spare : spares_) {
          if (spare->recruited() && spare->builder() != nullptr &&
              spare->partition() == p &&
              spare->vgroup() == static_cast<uint32_t>(vg) &&
              spare->epoch() == epoch) {
            const auto& keys = spare->builder()->included_contributors();
            out.insert(out.end(), keys.begin(), keys.end());
          }
        }
      }
    }
  }
}

}  // namespace edgelet::exec
