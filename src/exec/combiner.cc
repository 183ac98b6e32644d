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
    controller_->set_done([this]() { return result_ready_; });
  }
}

void CombinerActor::Start() {
  if (!config_.resume_state.empty()) {
    if (!RestoreState(config_.resume_state).ok()) {
      // Undecodable resume state: start fresh rather than wedge.
      partitions_.clear();
      complete_order_.clear();
      km_aligned_.clear();
      km_stats_ = ClusterStats();
      km_partitions_seen_.clear();
      merged_partitions_.clear();
      result_ready_ = emitted_ = false;
    }
    combining_ = false;  // any in-flight combine died with the old boot
  }
  replica_->Start();
  if (controller_ != nullptr) controller_->Start();
  if (config_.emit_at != kSimTimeNever) {
    // max(): a resumed combiner whose emit time passed while it was down
    // emits what it has immediately instead of scheduling into the past.
    At(std::max(config_.emit_at, net()->now()), [this]() { OnEmitTimer(); });
  }
  if (!config_.resume_state.empty()) {
    if (result_ready_) {
      // The durable result survives the crash; re-deliver (querier dedups).
      if (config_.active_emit || replica_->is_leader()) EmitWithResends();
    } else {
      MaybeCombineGs();
    }
  }
}

Bytes CombinerActor::SerializeState() const {
  Writer w;
  // GS accumulation.
  w.PutVarint(partitions_.size());
  for (const auto& [p, state] : partitions_) {
    w.PutU32(p);
    w.PutBool(state.complete);
    w.PutVarint(state.by_vgroup.size());
    for (const auto& [vg, epoch_partial] : state.by_vgroup) {
      w.PutU32(vg);
      w.PutU32(epoch_partial.first);
      epoch_partial.second.Serialize(&w);
    }
  }
  w.PutVarint(complete_order_.size());
  for (uint32_t p : complete_order_) w.PutU32(p);
  // KM accumulation.
  w.PutVarint(km_aligned_.size());
  for (const auto& k : km_aligned_) k.Serialize(&w);
  km_stats_.Serialize(&w);
  w.PutVarint(km_partitions_seen_.size());
  for (const auto& [p, seen] : km_partitions_seen_) w.PutU32(p);
  // Result provenance + pending result.
  w.PutVarint(merged_partitions_.size());
  for (const auto& [p, epochs] : merged_partitions_) {
    w.PutU32(p);
    w.PutVarint(epochs.size());
    for (uint32_t e : epochs) w.PutU32(e);
  }
  w.PutBool(result_ready_);
  w.PutBool(emitted_);
  if (result_ready_) pending_result_.Serialize(&w);
  return w.Take();
}

Status CombinerActor::RestoreState(const Bytes& state) {
  Reader r(state);
  std::map<uint32_t, PartitionState> partitions;
  auto np = r.GetVarint();
  if (!np.ok()) return np.status();
  for (uint64_t i = 0; i < *np; ++i) {
    auto p = r.GetU32();
    if (!p.ok()) return p.status();
    PartitionState ps;
    auto complete = r.GetBool();
    if (!complete.ok()) return complete.status();
    ps.complete = *complete;
    auto nv = r.GetVarint();
    if (!nv.ok()) return nv.status();
    for (uint64_t j = 0; j < *nv; ++j) {
      auto vg = r.GetU32();
      if (!vg.ok()) return vg.status();
      auto epoch = r.GetU32();
      if (!epoch.ok()) return epoch.status();
      auto partial = query::GroupingSetsResult::Deserialize(&r);
      if (!partial.ok()) return partial.status();
      ps.by_vgroup.emplace(*vg, std::make_pair(*epoch, std::move(*partial)));
    }
    partitions.emplace(*p, std::move(ps));
  }
  std::vector<uint32_t> complete_order;
  auto no = r.GetVarint();
  if (!no.ok()) return no.status();
  for (uint64_t i = 0; i < *no; ++i) {
    auto p = r.GetU32();
    if (!p.ok()) return p.status();
    complete_order.push_back(*p);
  }
  std::vector<ml::KMeansKnowledge> km_aligned;
  auto nk = r.GetVarint();
  if (!nk.ok()) return nk.status();
  for (uint64_t i = 0; i < *nk; ++i) {
    auto k = ml::KMeansKnowledge::Deserialize(&r);
    if (!k.ok()) return k.status();
    km_aligned.push_back(std::move(*k));
  }
  auto km_stats = ClusterStats::Deserialize(&r);
  if (!km_stats.ok()) return km_stats.status();
  std::map<uint32_t, bool> km_seen;
  auto nseen = r.GetVarint();
  if (!nseen.ok()) return nseen.status();
  for (uint64_t i = 0; i < *nseen; ++i) {
    auto p = r.GetU32();
    if (!p.ok()) return p.status();
    km_seen[*p] = true;
  }
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> merged;
  auto nm = r.GetVarint();
  if (!nm.ok()) return nm.status();
  for (uint64_t i = 0; i < *nm; ++i) {
    auto p = r.GetU32();
    if (!p.ok()) return p.status();
    auto ne = r.GetVarint();
    if (!ne.ok()) return ne.status();
    std::vector<uint32_t> epochs;
    for (uint64_t j = 0; j < *ne; ++j) {
      auto e = r.GetU32();
      if (!e.ok()) return e.status();
      epochs.push_back(*e);
    }
    merged.emplace_back(*p, std::move(epochs));
  }
  auto result_ready = r.GetBool();
  if (!result_ready.ok()) return result_ready.status();
  auto emitted = r.GetBool();
  if (!emitted.ok()) return emitted.status();
  data::Table pending;
  if (*result_ready) {
    auto t = data::Table::Deserialize(&r);
    if (!t.ok()) return t.status();
    pending = std::move(*t);
  }
  partitions_ = std::move(partitions);
  complete_order_ = std::move(complete_order);
  km_aligned_ = std::move(km_aligned);
  km_stats_ = std::move(*km_stats);
  km_partitions_seen_ = std::move(km_seen);
  merged_partitions_ = std::move(merged);
  result_ready_ = *result_ready;
  emitted_ = *emitted;
  pending_result_ = std::move(pending);
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
  if (result_ready_) return;
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

  PartitionState& state = partitions_[partial->partition];
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
    complete_order_.push_back(partial->partition);
    if (config_.trace != nullptr) {
      config_.trace->Record(
          now(), TraceEventKind::kPartitionComplete, dev()->id(),
          static_cast<int>(partial->partition), -1,
          std::to_string(complete_order_.size()) + "/" +
              std::to_string(config_.n_needed) + " needed");
    }
    MaybeCombineGs();
  }
  // Partials are the expensive thing to lose; a completed partition is a
  // phase transition worth an unthrottled write.
  MaybeCheckpoint(/*critical=*/state.complete);
}

void CombinerActor::MaybeCombineGs() {
  if (combining_ || result_ready_) return;
  if (static_cast<int>(complete_order_.size()) < config_.n_needed) return;
  combining_ = true;
  // Merging n partitions' partials costs time proportional to their group
  // count; approximate with one quota's worth of work.
  After(dev()->ComputeCost(complete_order_.size() * 16),
        [this]() { CombineAndEmitGs(); });
}

void CombinerActor::CombineAndEmitGs() {
  // Anchor the accumulator to the deployed spec: a poisoned partial
  // carrying a different spec then fails *its own* merge (a default
  // accumulator would adopt whatever spec it merges first, misattributing
  // the failure to the honest partitions that follow).
  query::GroupingSetsResult acc(config_.gs_spec);
  merged_partitions_.clear();
  for (int i = 0; i < config_.n_needed; ++i) {
    uint32_t p = complete_order_[i];
    const PartitionState& state = partitions_[p];
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
    merged_partitions_.emplace_back(p, std::move(epochs));
  }
  auto table = acc.Finalize();
  if (!table.ok()) {
    EDGELET_LOG(kError) << "combiner finalize failed: "
                        << table.status().ToString();
    // Finalize cannot name a culprit; evict the most recently completed of
    // the merged partitions and retry with whatever replaces it.
    EvictPoisonedPartition(complete_order_[config_.n_needed - 1]);
    return;
  }
  pending_result_ = std::move(*table);
  result_ready_ = true;
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
                        << (complete_order_.size() - 1)
                        << " complete partitions remain";
  partitions_.erase(partition);
  complete_order_.erase(
      std::remove(complete_order_.begin(), complete_order_.end(), partition),
      complete_order_.end());
  merged_partitions_.clear();
  combining_ = false;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kPartitionComplete,
                          dev()->id(), static_cast<int>(partition), -1,
                          "evicted after failed combine");
  }
  MaybeCombineGs();
}

void CombinerActor::EmitPending() {
  if (result_ready_ && !emitted_) EmitWithResends();
}

void CombinerActor::OnEmitTimer() {
  if (config_.mode == Mode::kKMeans) {
    CombineAndEmitKm();
  }
  // Grouping-Sets mode: nothing to do — an incomplete snapshot cannot be
  // made valid by waiting less; the execution is counted as failed.
}

void CombinerActor::OnKmFinal(const net::Message& msg) {
  if (result_ready_) return;
  if (!OpenSealed(msg).ok()) return;
  auto report = KmFinalMsg::Decode(opened_payload());
  if (!report.ok() || report->query_id != config_.query_id) return;
  if (km_partitions_seen_.count(report->partition)) return;
  km_partitions_seen_[report->partition] = true;
  merged_partitions_.emplace_back(report->partition,
                                  std::vector<uint32_t>{0});

  if (km_aligned_.empty()) {
    km_aligned_.push_back(std::move(report->knowledge));
    km_stats_ = std::move(report->stats);
    return;
  }
  auto perm = ml::AlignCentroids(km_aligned_[0].centroids,
                                 report->knowledge.centroids);
  if (!perm.ok()) return;
  km_aligned_.push_back(ml::PermuteKnowledge(report->knowledge, *perm));
  report->stats.Permute(*perm);
  Status s = km_stats_.MergeFrom(report->stats);
  if (!s.ok()) {
    EDGELET_LOG(kWarning) << "cluster stats merge failed: " << s.ToString();
  }
  MaybeCheckpoint(/*critical=*/false);
}

void CombinerActor::CombineAndEmitKm() {
  if (km_aligned_.empty()) return;  // nothing arrived: failed execution
  auto merged = ml::MergeKnowledge(km_aligned_);
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
      if (c < km_stats_.per_cluster.size() &&
          a < km_stats_.per_cluster[c].size()) {
        row.push_back(km_stats_.per_cluster[c][a].Finalize(
            config_.km_spec.cluster_aggregates[a]));
      } else {
        row.push_back(data::Value::Null());
      }
    }
    table.AppendUnchecked(std::move(row));
  }
  pending_result_ = std::move(table);
  result_ready_ = true;
  MaybeCheckpoint(/*critical=*/true);
  if (config_.active_emit || replica_->is_leader()) {
    EmitWithResends();
  }
}

void CombinerActor::EmitWithResends() {
  SendResult(pending_result_);
  ScheduleResends(config_.result_resends, config_.resend_interval, [this]() {
    // A standby that yielded leadership between scheduling and firing must
    // go quiet even with a result pending — otherwise both the new leader
    // and the ex-leader keep emitting duplicates.
    if (result_ready_ && (config_.active_emit || replica_->is_leader())) {
      SendResult(pending_result_);
    }
  });
}

void CombinerActor::SendResult(const data::Table& table) {
  FinalResultMsg msg;
  msg.query_id = config_.query_id;
  for (const auto& [p, vgroup_epochs] : merged_partitions_) {
    msg.partitions.push_back(p);
    msg.epochs.insert(msg.epochs.end(), vgroup_epochs.begin(),
                      vgroup_epochs.end());
  }
  msg.result = table;
  SealAndSendAll(config_.querier_targets, kFinalResult, msg.Encode());
  if (!emitted_ && config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kResultEmitted,
                          dev()->id(), -1, -1,
                          std::to_string(merged_partitions_.size()) +
                              " partitions merged");
  }
  emitted_ = true;
}

}  // namespace edgelet::exec
