#include "exec/combiner.h"

#include <algorithm>

#include "common/logging.h"
#include "ml/metrics.h"

namespace edgelet::exec {

CombinerActor::CombinerActor(net::Transport* net, device::Device* dev,
                             Config config)
    : OperatorActor(net, dev, config.query_id, config.checkpoint),
      config_(std::move(config)) {
  replica_ =
      std::make_unique<ReplicaRole>(net, dev, query_tag(), config_.replica);
  replica_->set_on_promote([this]() { EmitPending(); });
  if (config_.repair.enabled) {
    controller_ = std::make_unique<RepairController>(net, dev, config_.repair);
    controller_->set_done([this]() { return state_.result_ready; });
  }
}

void CombinerActor::Start() {
  // A resume state that fails to restore leaves the actor fresh.
  if (!config_.resume_state.empty()) (void)RestoreState(config_.resume_state);
  replica_->Start();
  if (controller_ != nullptr) controller_->Start();
  if (config_.emit_at != kSimTimeNever) {
    // max(): a resumed combiner whose emit time passed while it was down
    // emits what it has immediately instead of scheduling into the past.
    At(std::max(config_.emit_at, net()->now()), [this]() { OnEmitTimer(); });
  }
  if (!config_.resume_state.empty()) {
    if (state_.result_ready) {
      // The durable result survives the crash; re-deliver (querier dedups).
      if (config_.active_emit || replica_->is_leader()) EmitWithResends();
    } else {
      MaybeCombineGs();
    }
  }
}

Bytes CombinerActor::SerializeState() const { return wire::Encode(state_); }

Status CombinerActor::RestoreState(const Bytes& bytes) {
  auto state = wire::Decode<State>(bytes);
  if (!state.ok()) return state.status();
  // What OnGsPartial and EvictPoisonedPartition keep: CombineAndEmitGs
  // indexes epochs by vgroup and merges complete_order as it stands.
  bool ok = true;
  for (const auto& [p, ps] : state->partitions) {
    ok = ok &&
         (config_.total_partitions == 0 ||
          p < static_cast<uint32_t>(config_.total_partitions)) &&
         (ps.by_vgroup.empty() ||
          ps.by_vgroup.rbegin()->first < config_.num_vgroups) &&
         (!ps.complete || ps.by_vgroup.size() == config_.num_vgroups);
  }
  std::set<uint32_t> ordered;
  for (uint32_t p : state->complete_order) {
    auto it = state->partitions.find(p);
    ok = ok && it != state->partitions.end() && it->second.complete &&
         ordered.insert(p).second;
  }
  if (!ok) {
    return Status::Corruption("restored combiner state breaks a handler "
                              "invariant");
  }
  state_ = std::move(*state);
  return Status::OK();
}

void CombinerActor::HandleMessage(const net::Message& msg) {
  switch (msg.type) {
    case kGsPartial:
      if (config_.mode == Mode::kGroupingSets) OnGsPartial(msg);
      break;
    case kKmFinal:
      if (config_.mode == Mode::kKMeans) OnKmFinal(msg);
      break;
    case kLeaderPing: {
      auto ping = LeaderPingMsg::Decode(msg.payload);
      if (ping.ok()) replica_->HandlePing(*ping);
      break;
    }
    case kOperatorHeartbeat: {
      if (controller_ == nullptr) break;
      auto beat = OperatorHeartbeatMsg::Decode(msg.payload);
      if (beat.ok()) controller_->OnHeartbeat(*beat);
      break;
    }
    case kRecruitAck: {
      if (controller_ == nullptr) break;
      if (!OpenSealed(msg).ok()) break;
      auto ack = RecruitAckMsg::Decode(opened_payload());
      if (ack.ok()) controller_->OnRecruitAck(*ack);
      break;
    }
    case kRecoveryHello:
      OnRecoveryHello(msg);
      break;
    default:
      break;
  }
}

void CombinerActor::OnRecoveryHello(const net::Message& msg) {
  // Only the controller-hosting instance arbitrates recoveries; hellos to
  // other replicas are dropped (the host resends, and falls back to a
  // unilateral resume if no verdict arrives within its grace window).
  if (controller_ == nullptr) return;
  // The hello arrives sealed under the re-provisioned pairwise key — a
  // device that cannot re-attest cannot produce it.
  if (!OpenSealed(msg).ok()) return;
  auto hello = RecoveryHelloMsg::Decode(opened_payload());
  if (!hello.ok() || hello->query_id != config_.query_id) return;
  const bool resume = controller_->OnRecoveryHello(*hello, msg.from);
  RecoveryAckMsg ack;
  ack.query_id = config_.query_id;
  ack.role = hello->role;
  ack.partition = hello->partition;
  ack.vgroup = hello->vgroup;
  ack.resume = resume;
  ack.incarnation = hello->incarnation;  // echo: host fences stale acks
  SealAndSend(msg.from, kRecoveryAck, ack.Encode());
}

void CombinerActor::OnGsPartial(const net::Message& msg) {
  // Keep accepting partials while a combine is in flight (combining_):
  // if that combine fails, a spare partition that arrived meanwhile is
  // exactly what the retry needs.
  if (state_.result_ready) return;
  if (!OpenSealed(msg).ok()) return;
  auto partial = GsPartialMsg::Decode(opened_payload());
  if (!partial.ok() || partial->query_id != config_.query_id) return;
  // Wire fields are attacker-visible inputs even after AEAD (a compromised
  // processor seals what it likes): an out-of-range vgroup would both
  // satisfy the completion count and index out of bounds in
  // CombineAndEmitGs; an out-of-range partition would grow state forever.
  if (partial->vgroup >= config_.num_vgroups) {
    EDGELET_LOG(kWarning) << "combiner: rejecting partial with vgroup "
                          << partial->vgroup << " >= " << config_.num_vgroups;
    return;
  }
  if (config_.total_partitions > 0 &&
      partial->partition >= static_cast<uint32_t>(config_.total_partitions)) {
    EDGELET_LOG(kWarning) << "combiner: rejecting partial with partition "
                          << partial->partition << " >= "
                          << config_.total_partitions;
    return;
  }

  PartitionState& state = state_.partitions[partial->partition];
  if (state.complete) return;
  if (state.by_vgroup.count(partial->vgroup)) return;  // duplicate
  state.by_vgroup.emplace(
      partial->vgroup,
      std::make_pair(partial->epoch, std::move(partial->result)));
  if (controller_ != nullptr) {
    controller_->NotePartialDelivered(partial->partition, partial->vgroup,
                                      partial->epoch);
  }

  if (state.by_vgroup.size() == config_.num_vgroups) {
    state.complete = true;
    state_.complete_order.push_back(partial->partition);
    if (config_.trace != nullptr) {
      config_.trace->Record(
          now(), TraceEventKind::kPartitionComplete, dev()->id(),
          static_cast<int>(partial->partition), -1,
          std::to_string(state_.complete_order.size()) + "/" +
              std::to_string(config_.n_needed) + " needed");
    }
    MaybeCombineGs();
  }
  // Partials are the expensive thing to lose; a completed partition is a
  // phase transition worth an unthrottled write.
  MaybeCheckpoint(/*critical=*/state.complete);
}

void CombinerActor::MaybeCombineGs() {
  if (combining_ || state_.result_ready) return;
  if (static_cast<int>(state_.complete_order.size()) < config_.n_needed) {
    return;
  }
  combining_ = true;
  // Merging n partitions' partials costs time proportional to their group
  // count; approximate with one quota's worth of work.
  After(dev()->ComputeCost(state_.complete_order.size() * 16),
        [this]() { CombineAndEmitGs(); });
}

void CombinerActor::CombineAndEmitGs() {
  // Anchor the accumulator to the deployed spec: a poisoned partial
  // carrying a different spec then fails *its own* merge (a default
  // accumulator would adopt whatever spec it merges first, misattributing
  // the failure to the honest partitions that follow).
  query::GroupingSetsResult acc(config_.gs_spec);
  state_.merged_partitions.clear();
  for (int i = 0; i < config_.n_needed; ++i) {
    uint32_t p = state_.complete_order[i];
    const PartitionState& state = state_.partitions[p];
    std::vector<uint32_t> epochs(config_.num_vgroups, 0);
    for (const auto& [vg, epoch_partial] : state.by_vgroup) {
      epochs[vg] = epoch_partial.first;
      Status s = acc.Merge(epoch_partial.second);
      if (!s.ok()) {
        EDGELET_LOG(kError) << "combiner merge failed: " << s.ToString();
        EvictPoisonedPartition(p);
        return;
      }
    }
    state_.merged_partitions.emplace_back(p, std::move(epochs));
  }
  auto table = acc.Finalize();
  if (!table.ok()) {
    EDGELET_LOG(kError) << "combiner finalize failed: "
                        << table.status().ToString();
    // Finalize cannot name a culprit; evict the most recently completed of
    // the merged partitions and retry with whatever replaces it.
    EvictPoisonedPartition(state_.complete_order[config_.n_needed - 1]);
    return;
  }
  state_.pending_result = std::move(*table);
  state_.result_ready = true;
  MaybeCheckpoint(/*critical=*/true);
  if (config_.active_emit || replica_->is_leader()) {
    EmitWithResends();
  }
}

void CombinerActor::EvictPoisonedPartition(uint32_t partition) {
  // Before this recovery existed the combiner wedged here forever:
  // combining_ stayed true, so the m spare partitions Overcollection pays
  // for could never be consumed. Forget the partition entirely — a
  // re-delivered clean partial may rebuild it from scratch — and retry
  // with the remaining complete partitions plus any spare.
  EDGELET_LOG(kWarning) << "combiner: evicting poisoned partition "
                        << partition << ", "
                        << (state_.complete_order.size() - 1)
                        << " complete partitions remain";
  state_.partitions.erase(partition);
  std::erase(state_.complete_order, partition);
  state_.merged_partitions.clear();
  combining_ = false;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kPartitionComplete,
                          dev()->id(), static_cast<int>(partition), -1,
                          "evicted after failed combine");
  }
  MaybeCombineGs();
}

void CombinerActor::EmitPending() {
  if (state_.result_ready && !state_.emitted) EmitWithResends();
}

void CombinerActor::OnEmitTimer() {
  if (config_.mode == Mode::kKMeans) {
    CombineAndEmitKm();
  }
  // Grouping-Sets mode: nothing to do — an incomplete snapshot cannot be
  // made valid by waiting less; the execution is counted as failed.
}

namespace {

// What a computer deploying `spec` emits: k centroids of one coordinate
// per feature, and per cluster one state per cluster aggregate.
bool MatchesSpec(const KmFinalMsg& report,
                 const query::KMeansQuerySpec& spec) {
  const auto k = static_cast<size_t>(spec.k);
  if (report.knowledge.centroids.size() != k ||
      report.stats.per_cluster.size() != k) {
    return false;
  }
  for (const auto& centroid : report.knowledge.centroids) {
    if (centroid.size() != spec.features.size()) return false;
  }
  for (const auto& states : report.stats.per_cluster) {
    if (states.size() != spec.cluster_aggregates.size()) return false;
  }
  return true;
}

}  // namespace

void CombinerActor::OnKmFinal(const net::Message& msg) {
  if (state_.result_ready) return;
  if (!OpenSealed(msg).ok()) return;
  auto report = KmFinalMsg::Decode(opened_payload());
  if (!report.ok() || report->query_id != config_.query_id) return;
  if (state_.km_partitions_seen.contains(report->partition)) return;

  // Shape, alignment and merge all pass before any state changes: a report
  // failing one is dropped whole, as a poisoned Grouping Sets partial is.
  if (config_.total_partitions > 0 &&
      report->partition >= static_cast<uint32_t>(config_.total_partitions)) {
    EDGELET_LOG(kWarning) << "combiner: dropping k-means report of partition "
                          << report->partition << " >= "
                          << config_.total_partitions;
    return;
  }
  if (!MatchesSpec(*report, config_.km_spec)) {
    EDGELET_LOG(kWarning) << "combiner: dropping k-means report of partition "
                          << report->partition << ": shape differs from spec";
    return;
  }
  const bool first = state_.km_aligned.empty();
  ml::KMeansKnowledge knowledge = std::move(report->knowledge);
  if (!first) {
    auto perm = ml::AlignCentroids(state_.km_aligned[0].centroids,
                                   knowledge.centroids);
    if (!perm.ok()) return;
    knowledge = ml::PermuteKnowledge(knowledge, *perm);
    report->stats.Permute(*perm);
  }
  ClusterStats merged = state_.km_stats;
  Status s = merged.MergeFrom(report->stats);
  if (!s.ok()) {
    EDGELET_LOG(kWarning) << "combiner: dropping k-means report of partition "
                          << report->partition << ": " << s.ToString();
    return;
  }

  state_.km_partitions_seen.insert(report->partition);
  state_.merged_partitions.emplace_back(report->partition,
                                        std::vector<uint32_t>{0});
  state_.km_aligned.push_back(std::move(knowledge));
  state_.km_stats = std::move(merged);
  // A lone anchor report is not checkpointed; the next report's is.
  if (!first) MaybeCheckpoint(/*critical=*/false);
}

void CombinerActor::CombineAndEmitKm() {
  // Nothing arrived: a failed execution.
  if (state_.km_aligned.empty()) return;
  auto merged = ml::MergeKnowledge(state_.km_aligned);
  if (!merged.ok()) {
    EDGELET_LOG(kError) << "knowledge merge failed: "
                        << merged.status().ToString();
    return;
  }

  // Result table: cluster, size, centroid coordinates, then the requested
  // per-cluster aggregates.
  std::vector<data::Column> cols;
  cols.push_back({"cluster", data::ValueType::kInt64});
  cols.push_back({"size", data::ValueType::kInt64});
  for (const auto& f : config_.km_spec.features) {
    cols.push_back({"centroid_" + f, data::ValueType::kDouble});
  }
  for (const auto& a : config_.km_spec.cluster_aggregates) {
    data::ValueType t = query::AggregateYieldsInteger(a.fn)
                            ? data::ValueType::kInt64
                            : data::ValueType::kDouble;
    cols.push_back({a.OutputName(), t});
  }
  data::Table table{data::Schema(std::move(cols))};
  const size_t k = merged->centroids.size();
  for (size_t c = 0; c < k; ++c) {
    data::Tuple row;
    row.emplace_back(static_cast<int64_t>(c));
    row.emplace_back(static_cast<int64_t>(merged->counts[c]));
    for (double coord : merged->centroids[c]) row.emplace_back(coord);
    for (size_t a = 0; a < config_.km_spec.cluster_aggregates.size(); ++a) {
      if (c < state_.km_stats.per_cluster.size() &&
          a < state_.km_stats.per_cluster[c].size()) {
        row.push_back(state_.km_stats.per_cluster[c][a].Finalize(
            config_.km_spec.cluster_aggregates[a]));
      } else {
        row.push_back(data::Value::Null());
      }
    }
    table.AppendUnchecked(std::move(row));
  }
  state_.pending_result = std::move(table);
  state_.result_ready = true;
  MaybeCheckpoint(/*critical=*/true);
  if (config_.active_emit || replica_->is_leader()) {
    EmitWithResends();
  }
}

void CombinerActor::EmitWithResends() {
  SendResult(state_.pending_result);
  ScheduleResends(config_.result_resends, config_.resend_interval, [this]() {
    // A standby that yielded leadership between scheduling and firing must
    // go quiet even with a result pending — otherwise both the new leader
    // and the ex-leader keep emitting duplicates.
    if (state_.result_ready &&
        (config_.active_emit || replica_->is_leader())) {
      SendResult(state_.pending_result);
    }
  });
}

void CombinerActor::SendResult(const data::Table& table) {
  FinalResultMsg msg;
  msg.query_id = config_.query_id;
  for (const auto& [p, vgroup_epochs] : state_.merged_partitions) {
    msg.partitions.push_back(p);
    msg.epochs.insert(msg.epochs.end(), vgroup_epochs.begin(),
                      vgroup_epochs.end());
  }
  msg.result = table;
  SealAndSendAll(config_.querier_targets, kFinalResult, msg.Encode());
  if (!state_.emitted && config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kResultEmitted,
                          dev()->id(), -1, -1,
                          std::to_string(state_.merged_partitions.size()) +
                              " partitions merged");
  }
  state_.emitted = true;
}

}  // namespace edgelet::exec
