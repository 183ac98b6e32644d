#include "exec/computer.h"

#include "common/hash.h"
#include "common/logging.h"
#include "ml/metrics.h"

namespace edgelet::exec {

namespace {

data::TableView WholeView(data::ColumnTable table) {
  return data::TableView(
      std::make_shared<const data::ColumnTable>(std::move(table)));
}

}  // namespace

ComputerActor::ComputerActor(net::Transport* net, device::Device* dev,
                             Config config)
    : OperatorActor(net, dev, config.query_id, config.checkpoint),
      config_(std::move(config)),
      mb_rng_(Mix64(config_.query_id) ^ Mix64(config_.partition + 0x77)) {
  replica_ =
      std::make_unique<ReplicaRole>(net, dev, query_tag(), config_.replica);
  replica_->set_on_promote([this]() {
    if (config_.trace != nullptr) {
      config_.trace->Record(this->now(),
                            TraceEventKind::kLeaderFailover,
                            this->dev()->id(), config_.partition,
                            config_.vgroup,
                            "computer rank " +
                                std::to_string(replica_->rank()) +
                                " takes over");
    }
    // Failover: re-emit whatever this replica already has ready.
    if (config_.mode == Mode::kGroupingSets && gs_partial_.has_value()) {
      EmitGsWithResends();
    }
  });
}

void ComputerActor::Start() {
  if (!config_.resume_state.empty()) {
    // A resume state that fails to restore leaves the actor fresh.
    (void)RestoreState(config_.resume_state);
    if (have_slice_ && config_.mode == Mode::kKMeans) {
      // Points derive from the durable slice; no need to persist them.
      auto points = ml::ExtractPoints(slice_, config_.km_spec.features);
      if (points.ok()) points_ = std::move(*points);
    }
  }
  replica_->Start();
  StartBeacon(config_.liveness);
  if (config_.mode == Mode::kKMeans) {
    for (int round = 0; round < config_.num_heartbeats; ++round) {
      SimTime at = config_.first_heartbeat +
                   static_cast<SimDuration>(round) * config_.heartbeat_period;
      // Rounds whose beat passed while the device was down are lost — the
      // loop advances on the clock, crashed or not (paper §2.2 semantics).
      if (at < net()->now()) continue;
      At(at, [this, round]() { Heartbeat(round); });
    }
  } else if (have_slice_) {
    // Resumed with a durable slice: recompute the partial (cheaper to
    // recompute than to persist) and, as leader, (re-)emit — the combiner
    // dedups if the pre-crash emission landed.
    After(dev()->ComputeCost(slice_.num_rows()),
          [this]() { ComputeAndEmitGs(); });
  }
}

Bytes ComputerActor::SerializeState() const {
  // State's field list over the live members: the slice is written in
  // place, not copied.
  struct {
    const bool& have_slice;
    const bool& output_sent;
    const uint32_t& slice_epoch;
    const data::ColumnTable& slice;
    const bool& km_initialized;
    const ml::KMeansKnowledge& knowledge;
    const int& rounds_with_peer_input;
  } live{have_slice_,     output_sent_, slice_epoch_, slice_.store(),
         km_initialized_, knowledge_,   rounds_with_peer_input_};
  Writer w;
  wire::PutFields(&w, State::Fields(live));
  return w.Take();
}

Status ComputerActor::RestoreState(const Bytes& bytes) {
  auto state = wire::Decode<State>(bytes);
  if (!state.ok()) return state.status();
  have_slice_ = state->have_slice;
  output_sent_ = state->output_sent;
  slice_epoch_ = state->slice_epoch;
  slice_ = WholeView(std::move(state->slice));
  km_initialized_ = state->km_initialized;
  knowledge_ = std::move(state->knowledge);
  rounds_with_peer_input_ = state->rounds_with_peer_input;
  return Status::OK();
}

void ComputerActor::HandleMessage(const net::Message& msg) {
  switch (msg.type) {
    case kSnapshotSlice:
      OnSlice(msg);
      break;
    case kKmKnowledge: {
      if (config_.mode != Mode::kKMeans) break;
      if (!OpenSealed(msg).ok()) break;
      auto m = KmKnowledgeMsg::Decode(opened_payload());
      if (!m.ok() || m->query_id != config_.query_id) break;
      auto key = std::make_pair(m->partition, m->round);
      if (seen_rounds_.count(key)) break;  // re-broadcast duplicate
      seen_rounds_[key] = true;
      inbox_.push_back(std::move(m->knowledge));
      break;
    }
    case kLeaderPing: {
      auto ping = LeaderPingMsg::Decode(msg.payload);
      if (ping.ok()) replica_->HandlePing(*ping);
      break;
    }
    default:
      break;
  }
}

void ComputerActor::OnSlice(const net::Message& msg) {
  // Accept the first epoch only: a partition's slices must all come from
  // one snapshot instance. A later slice (a resend, or another epoch) is
  // dropped before it is opened and decoded.
  if (have_slice_) return;
  // A slice is bulk (up to the whole snapshot partition): it is opened into
  // a buffer of this handler's own, freed once decoded, rather than into
  // the actor's reused scratch, which would keep the slice's size.
  Bytes opened;
  if (!dev()->OpenPayloadInto(msg, &opened).ok()) return;
  auto slice = SnapshotSliceMsg::Decode(opened);
  if (!slice.ok() || slice->query_id != config_.query_id ||
      slice->partition != config_.partition ||
      slice->vgroup != config_.vgroup) {
    return;
  }
  have_slice_ = true;
  slice_epoch_ = slice->epoch;
  slice_ = WholeView(std::move(slice->rows));
  dev()->enclave().RecordClearTextTuples(slice_.num_rows(),
                                         slice_.schema().num_columns());
  // The slice in hand is a phase transition: persist before computing so a
  // crash during the (possibly long) compute does not lose it.
  MaybeCheckpoint(/*critical=*/true);
  if (config_.mode == Mode::kGroupingSets) {
    After(dev()->ComputeCost(slice_.num_rows()),
          [this]() { ComputeAndEmitGs(); });
  } else {
    auto points = ml::ExtractPoints(slice_, config_.km_spec.features);
    if (!points.ok()) {
      EDGELET_LOG(kError) << "computer " << dev()->id()
                          << " feature extraction failed: "
                          << points.status().ToString();
      return;
    }
    points_ = std::move(*points);
  }
}

void ComputerActor::ComputeAndEmitGs() {
  auto partial = query::GroupingSetsResult::ComputeSets(
      slice_, config_.gs_spec, config_.set_indices);
  if (!partial.ok()) {
    EDGELET_LOG(kError) << "computer " << dev()->id()
                        << " grouping-sets failed: "
                        << partial.status().ToString();
    return;
  }
  gs_partial_ = std::move(*partial);
  if (replica_->is_leader()) EmitGsWithResends();
}

void ComputerActor::EmitGsWithResends() {
  EmitGs();
  ScheduleResends(config_.emission_resends, kResendInterval, [this]() {
    // Suppressed after a leadership yield: the replica that took over
    // re-emits its own partial.
    if (replica_->is_leader()) EmitGs();
  });
}

void ComputerActor::EmitGs() {
  if (!gs_partial_.has_value()) return;
  GsPartialMsg msg;
  msg.query_id = config_.query_id;
  msg.partition = config_.partition;
  msg.vgroup = config_.vgroup;
  msg.epoch = slice_epoch_;
  msg.result = *gs_partial_;
  SealAndSendAll(config_.combiners, kGsPartial, msg.Encode());
  output_sent_ = true;
  MaybeCheckpoint(/*critical=*/true);
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kPartialEmitted,
                          dev()->id(), config_.partition, config_.vgroup);
  }
}

// --- K-Means ------------------------------------------------------------------

void ComputerActor::Heartbeat(int round) {
  // The heartbeat cadences progression regardless of what was received
  // (paper: "the Computers move to the next iteration even if few or no
  // messages were received").
  if (!points_.empty()) {
    SyncPhase();
    LocalPhase();
    BroadcastKnowledge(round);
    // Routine round delta: the cadence throttle in the recovery host may
    // coalesce these.
    MaybeCheckpoint(/*critical=*/false);
  }
  if (round == config_.num_heartbeats - 1) {
    // Right before the deadline: report knowledge to the combiner.
    if (!points_.empty() && km_initialized_ && replica_->is_leader()) {
      After(dev()->ComputeCost(points_.size()), [this]() { EmitKmFinal(); });
    }
  }
}

void ComputerActor::SyncPhase() {
  if (!km_initialized_) {
    // Deterministic per-computer initialization on the local partition;
    // index alignment across computers happens in merging.
    Rng rng(Mix64(config_.query_id) ^ Mix64(config_.partition + 1));
    auto init =
        ml::KMeansPlusPlusInit(points_, config_.km_spec.k, &rng);
    if (!init.ok()) return;
    knowledge_.centroids = std::move(*init);
    knowledge_.counts.assign(knowledge_.centroids.size(), 1);
    km_initialized_ = true;
  }
  if (inbox_.empty()) return;
  ++rounds_with_peer_input_;
  std::vector<ml::KMeansKnowledge> to_merge;
  to_merge.push_back(knowledge_);
  for (const auto& incoming : inbox_) {
    auto perm = ml::AlignCentroids(knowledge_.centroids, incoming.centroids);
    if (!perm.ok()) continue;  // shape mismatch: drop
    to_merge.push_back(ml::PermuteKnowledge(incoming, *perm));
  }
  inbox_.clear();
  auto merged = ml::MergeKnowledge(to_merge);
  if (merged.ok()) knowledge_ = std::move(*merged);
}

void ComputerActor::LocalPhase() {
  if (!km_initialized_) return;
  if (config_.km_spec.batch_size > 0) {
    // Mini-batch resampling mode: SGD-style updates on fresh samples, then
    // one hard assignment so the broadcast weights reflect the partition.
    ml::Matrix centroids = knowledge_.centroids;
    for (int i = 0; i < config_.km_spec.local_iterations; ++i) {
      if (!ml::RunMiniBatchStep(points_,
                                static_cast<size_t>(
                                    config_.km_spec.batch_size),
                                &mb_rng_, &centroids, &mb_counts_)
               .ok()) {
        return;
      }
    }
    auto step = ml::RunLloydStep(points_, centroids);
    if (!step.ok()) return;
    knowledge_ = std::move(step->knowledge);
    return;
  }
  for (int i = 0; i < config_.km_spec.local_iterations; ++i) {
    auto step = ml::RunLloydStep(points_, knowledge_.centroids);
    if (!step.ok()) return;
    knowledge_ = std::move(step->knowledge);
  }
}

void ComputerActor::BroadcastKnowledge(int round) {
  if (!km_initialized_) return;
  KmKnowledgeMsg msg;
  msg.query_id = config_.query_id;
  msg.partition = config_.partition;
  msg.round = static_cast<uint32_t>(round);
  msg.knowledge = knowledge_;
  Bytes payload = msg.Encode();
  for (const auto& group : config_.peers) {
    SealAndSendAll(group, kKmKnowledge, payload);
  }
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kKnowledgeBroadcast,
                          dev()->id(), config_.partition, config_.vgroup,
                          "round " + std::to_string(round));
  }
}

void ComputerActor::EmitKmFinal() {
  // Per-cluster aggregates over the local slice, index-aligned with the
  // final local knowledge (the "Group By on the resulting clusters").
  auto assignment = ml::Assign(points_, knowledge_.centroids);
  if (!assignment.ok()) return;

  const size_t k = knowledge_.centroids.size();
  const auto& aggs = config_.km_spec.cluster_aggregates;
  ClusterStats stats;
  stats.per_cluster.assign(k, std::vector<query::AggregateState>(aggs.size()));

  std::vector<int> agg_cols(aggs.size(), -1);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].column == "*") continue;
    auto idx = slice_.schema().IndexOf(aggs[a].column);
    if (!idx.ok()) {
      EDGELET_LOG(kError) << "cluster aggregate column missing: "
                          << aggs[a].column;
      return;
    }
    agg_cols[a] = static_cast<int>(*idx);
  }
  for (size_t i = 0; i < points_.size(); ++i) {
    int c = (*assignment)[i];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const bool count_star = agg_cols[a] < 0;
      Status s = stats.per_cluster[c][a].Accumulate(
          aggs[a].fn,
          count_star ? data::Value::Null() : slice_.ValueAt(i, agg_cols[a]),
          count_star);
      if (!s.ok()) {
        EDGELET_LOG(kError) << "computer " << dev()->id()
                            << " cluster aggregate failed: " << s.ToString();
        return;
      }
    }
  }

  KmFinalMsg msg;
  msg.query_id = config_.query_id;
  msg.partition = config_.partition;
  msg.knowledge = knowledge_;
  msg.stats = std::move(stats);
  const Bytes payload = msg.Encode();
  SealAndSendAll(config_.combiners, kKmFinal, payload);
  ScheduleResends(config_.emission_resends, kResendInterval,
                  [this, payload]() {
                    if (replica_->is_leader()) {
                      SealAndSendAll(config_.combiners, kKmFinal, payload);
                    }
                  });
  output_sent_ = true;
  MaybeCheckpoint(/*critical=*/true);
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kPartialEmitted,
                          dev()->id(), config_.partition, config_.vgroup,
                          "K-Means final knowledge");
  }
}

}  // namespace edgelet::exec
