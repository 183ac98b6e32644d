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
    if (complete_) EmitSliceWithResends();
  });
}

void SnapshotBuilderActor::Start() {
  if (!config_.resume_state.empty()) {
    if (!RestoreState(config_.resume_state).ok()) {
      // Undecodable resume state: start fresh rather than wedge. The
      // store's integrity checks make this unreachable in practice.
      buffer_ = data::ColumnTable();
      complete_ = emitted_ = false;
      schema_bytes_.clear();
      included_.clear();
      seen_contributors_.Clear();
    }
  }
  replica_->Start();
  StartBeacon(config_.liveness);
  if (complete_ && replica_->is_leader()) {
    // Resumed past completion: re-emit the durable slice — the computer
    // may never have received it (crash between checkpoint and send), and
    // dedups it if it did.
    After(dev()->ComputeCost(buffer_.num_rows()),
          [this]() { EmitSliceWithResends(); });
  }
}

Bytes SnapshotBuilderActor::SerializeState() const {
  Writer w;
  w.PutBool(!schema_bytes_.empty());
  w.PutBool(complete_);
  w.PutBool(emitted_);
  buffer_.Serialize(&w);
  w.PutVarint(included_.size());
  for (uint64_t k : included_) w.PutU64(k);
  std::vector<uint64_t> seen = seen_contributors_.Keys();
  std::sort(seen.begin(), seen.end());
  w.PutVarint(seen.size());
  for (uint64_t k : seen) w.PutU64(k);
  return w.Take();
}

Status SnapshotBuilderActor::RestoreState(const Bytes& state) {
  Reader r(state);
  auto have_schema = r.GetBool();
  if (!have_schema.ok()) return have_schema.status();
  auto complete = r.GetBool();
  if (!complete.ok()) return complete.status();
  auto emitted = r.GetBool();
  if (!emitted.ok()) return emitted.status();
  auto buffer = data::ColumnTable::Deserialize(&r);
  if (!buffer.ok()) return buffer.status();
  std::vector<uint64_t> included;
  auto ni = r.GetVarint();
  if (!ni.ok()) return ni.status();
  EDGELET_RETURN_NOT_OK(r.CheckCount(*ni, sizeof(uint64_t)));
  included.reserve(*ni);
  for (uint64_t i = 0; i < *ni; ++i) {
    auto k = r.GetU64();
    if (!k.ok()) return k.status();
    included.push_back(*k);
  }
  FlatSet64 seen;
  auto ns = r.GetVarint();
  if (!ns.ok()) return ns.status();
  EDGELET_RETURN_NOT_OK(r.CheckCount(*ns, sizeof(uint64_t)));
  for (uint64_t i = 0; i < *ns; ++i) {
    auto k = r.GetU64();
    if (!k.ok()) return k.status();
    seen.Insert(*k);
  }
  complete_ = *complete;
  emitted_ = *emitted;
  buffer_ = std::move(*buffer);
  included_ = std::move(included);
  seen_contributors_ = std::move(seen);
  // Later contributions are checked against the restored schema's bytes.
  if (*have_schema) {
    CacheSchemaBytes();
  } else {
    schema_bytes_.clear();
  }
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
  if (complete_) return;  // quota reached: later contributions are ignored
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
  if (seen_contributors_.Contains(*key)) return;
  const size_t rows_before = buffer_.num_rows();
  auto contributed_rows = DecodeRowsIntoBuffer(&r);
  if (!contributed_rows.ok()) return;
  seen_contributors_.Insert(*key);
  included_.insert(included_.end(), buffer_.num_rows() - rows_before, *key);
  // Raw cleartext data is now inside this enclave: exposure accounting.
  dev()->enclave().RecordClearTextTuples(*contributed_rows,
                                         buffer_.schema().num_columns());
  MaybeEmit();
  // Quota completion is a phase transition the store must not lose.
  MaybeCheckpoint(/*critical=*/complete_);
}

Result<uint64_t> SnapshotBuilderActor::DecodeRowsIntoBuffer(Reader* r) {
  const uint64_t room =
      config_.quota - std::min<uint64_t>(config_.quota, buffer_.num_rows());
  if (!schema_bytes_.empty()) {
    if (!r->ConsumeIfEquals(schema_bytes_.data(), schema_bytes_.size())) {
      return Status::Corruption("contribution schema differs from the group's");
    }
    return buffer_.AppendSerializedRows(r, room);
  }
  auto schema = data::Schema::Deserialize(r);
  if (!schema.ok()) return schema.status();
  data::ColumnTable first(std::move(*schema));
  auto rows = first.AppendSerializedRows(r, room);
  if (!rows.ok()) return rows.status();
  buffer_ = std::move(first);
  CacheSchemaBytes();
  return rows;
}

void SnapshotBuilderActor::CacheSchemaBytes() {
  Writer w;
  buffer_.schema().Serialize(&w);
  schema_bytes_ = w.Take();
}

void SnapshotBuilderActor::MaybeEmit() {
  if (complete_ || buffer_.num_rows() < config_.quota) return;
  complete_ = true;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kSnapshotComplete,
                          dev()->id(), config_.partition, config_.vgroup,
                          std::to_string(buffer_.num_rows()) + " tuples");
  }
  if (replica_->is_leader()) {
    // Building the representative snapshot costs compute time on this
    // device class before the slice goes out.
    After(dev()->ComputeCost(buffer_.num_rows()),
          [this]() { EmitSliceWithResends(); });
  }
}

void SnapshotBuilderActor::EmitSliceWithResends() {
  EmitSlice();
  ScheduleResends(config_.emission_resends, config_.resend_interval, [this]() {
    // Suppressed after a leadership yield: the replica that took over
    // re-emits its own epoch's slice.
    if (replica_->is_leader()) EmitSlice();
  });
}

void SnapshotBuilderActor::EmitSlice() {
  emitted_ = true;
  if (config_.trace != nullptr) {
    config_.trace->Record(now(), TraceEventKind::kSliceEmitted,
                          dev()->id(), config_.partition, config_.vgroup);
  }
  SealAndSendAll(config_.computers, kSnapshotSlice,
                 SnapshotSliceMsg::EncodeFrom(config_.query_id,
                                              config_.partition,
                                              config_.vgroup, emit_epoch(),
                                              buffer_));
  MaybeCheckpoint(/*critical=*/true);
}

}  // namespace edgelet::exec
