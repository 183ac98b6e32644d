#include "exec/snapshot_builder.h"

#include <algorithm>

#include "common/logging.h"

namespace edgelet::exec {

SnapshotBuilderActor::SnapshotBuilderActor(net::Transport* net,
                                           device::Device* dev, Config config)
    : OperatorActor(net, dev, config.query_id, config.checkpoint),
      config_(std::move(config)) {
  replica_ =
      std::make_unique<ReplicaRole>(net, dev, query_tag(), config_.replica);
  replica_->set_on_promote([this]() {
    if (config_.trace != nullptr) {
      config_.trace->Record(this->now(),
                            TraceEventKind::kLeaderFailover,
                            this->dev()->id(), config_.partition,
                            config_.vgroup,
                            "snapshot builder rank " +
                                std::to_string(replica_->rank()) +
                                " takes over");
    }
    // Taking over: if the snapshot is ready, (re-)emit it under this
    // replica's epoch so downstream consumers get a consistent slice.
    if (state_.complete) EmitSliceWithResends();
  });
}

void SnapshotBuilderActor::Start() {
  // A resume state that fails to restore leaves the actor fresh.
  if (!config_.resume_state.empty()) (void)RestoreState(config_.resume_state);
  replica_->Start();
  StartBeacon(config_.liveness);
  if (state_.complete && replica_->is_leader()) {
    // Resumed past completion: re-emit the durable slice — the computer
    // may never have received it (crash between checkpoint and send), and
    // dedups it if it did.
    After(dev()->ComputeCost(state_.buffer.num_rows()),
          [this]() { EmitSliceWithResends(); });
  }
}

Bytes SnapshotBuilderActor::SerializeState() const {
  return wire::Encode(state_);
}

Status SnapshotBuilderActor::RestoreState(const Bytes& bytes) {
  auto state = wire::Decode<State>(bytes);
  if (!state.ok()) return state.status();
  // What OnContribution keeps: one key per buffered row, no more rows
  // than the quota, and rows only under a fixed schema.
  const uint64_t rows = state->buffer.num_rows();
  if (state->included.size() != rows || rows > config_.quota ||
      (rows > 0 && !state->have_schema)) {
    return Status::Corruption("restored buffer breaks a handler invariant");
  }
  state_ = std::move(*state);
  // Later contributions are checked against the restored schema's bytes.
  if (state_.have_schema) CacheSchemaBytes();
  return Status::OK();
}

void SnapshotBuilderActor::HandleMessage(const net::Message& msg) {
  switch (msg.type) {
    case kContribution:
      OnContribution(msg);
      break;
    case kLeaderPing: {
      auto ping = LeaderPingMsg::Decode(msg.payload);
      if (ping.ok()) replica_->HandlePing(*ping);
      break;
    }
    default:
      break;
  }
}

void SnapshotBuilderActor::OnContribution(const net::Message& msg) {
  // Quota reached: later contributions are ignored.
  if (state_.complete) return;
  if (!OpenSealed(msg).ok()) return;
  // The ContributionMsg layout, read in place: header, then the schema
  // and row sections straight into the buffer.
  Reader r(opened_payload());
  auto query_id = r.GetU64();
  if (!query_id.ok() || *query_id != config_.query_id) return;
  auto key = r.GetU64();
  if (!key.ok()) return;
  // Idempotence: a contributor that re-sends (store-and-forward replays)
  // is only counted once.
  if (state_.seen_contributors.Contains(*key)) return;
  const size_t rows_before = state_.buffer.num_rows();
  auto contributed_rows = DecodeRowsIntoBuffer(&r);
  if (!contributed_rows.ok()) return;
  state_.seen_contributors.Insert(*key);
  state_.included.insert(state_.included.end(),
                         state_.buffer.num_rows() - rows_before, *key);
  // Raw cleartext data is now inside this enclave: exposure accounting.
  dev()->enclave().RecordClearTextTuples(*contributed_rows,
                                         state_.buffer.schema().num_columns());
  MaybeEmit();
  // Quota completion is a phase transition the store must not lose.
  MaybeCheckpoint(/*critical=*/state_.complete);
}

Result<uint64_t> SnapshotBuilderActor::DecodeRowsIntoBuffer(Reader* r) {
  const uint64_t room =
      config_.quota -
      std::min<uint64_t>(config_.quota, state_.buffer.num_rows());
  if (state_.have_schema) {
    if (!r->ConsumeIfEquals(schema_bytes_.data(), schema_bytes_.size())) {
      return Status::Corruption("contribution schema differs from the group's");
    }
    return state_.buffer.AppendSerializedRows(r, room);
  }
  auto schema = wire::Read<data::Schema>(r);
  if (!schema.ok()) return schema.status();
  data::ColumnTable first(std::move(*schema));
  auto rows = first.AppendSerializedRows(r, room);
  if (!rows.ok()) return rows.status();
  state_.buffer = std::move(first);
  state_.have_schema = true;
  CacheSchemaBytes();
  return rows;
}

void SnapshotBuilderActor::CacheSchemaBytes() {
  schema_bytes_ = wire::Encode(state_.buffer.schema());
}

void SnapshotBuilderActor::MaybeEmit() {
  if (state_.complete || state_.buffer.num_rows() < config_.quota) return;
  state_.complete = true;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kSnapshotComplete,
                          dev()->id(), config_.partition, config_.vgroup,
                          std::to_string(state_.buffer.num_rows()) + " tuples");
  }
  if (replica_->is_leader()) {
    // Building the representative snapshot costs compute time on this
    // device class before the slice goes out.
    After(dev()->ComputeCost(state_.buffer.num_rows()),
          [this]() { EmitSliceWithResends(); });
  }
}

void SnapshotBuilderActor::EmitSliceWithResends() {
  EmitSlice();
  ScheduleResends(config_.emission_resends, kResendInterval, [this]() {
    // Suppressed after a leadership yield: the replica that took over
    // re-emits its own epoch's slice.
    if (replica_->is_leader()) EmitSlice();
  });
}

void SnapshotBuilderActor::EmitSlice() {
  state_.emitted = true;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kSliceEmitted,
                          dev()->id(), config_.partition, config_.vgroup);
  }
  SealAndSendAll(config_.computers, kSnapshotSlice,
                 SnapshotSliceMsg::EncodeFrom(config_.query_id,
                                              config_.partition,
                                              config_.vgroup, emit_epoch(),
                                              state_.buffer));
  MaybeCheckpoint(/*critical=*/true);
}

}  // namespace edgelet::exec
