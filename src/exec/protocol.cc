#include "exec/protocol.h"

namespace edgelet::exec {

Bytes ContributionMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU64(contributor_key);
  rows.Serialize(&w);
  return w.Take();
}

Result<ContributionMsg> ContributionMsg::Decode(const Bytes& b) {
  Reader r(b);
  ContributionMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto key = r.GetU64();
  if (!key.ok()) return key.status();
  m.contributor_key = *key;
  auto rows = data::Table::Deserialize(&r);
  if (!rows.ok()) return rows.status();
  m.rows = std::move(*rows);
  return m;
}

Result<ContributionEncoder> ContributionEncoder::Resolve(
    uint64_t query_id, const data::Schema& store_schema,
    const std::vector<std::vector<std::string>>& vgroup_columns) {
  ContributionEncoder out;
  out.query_id_ = query_id;
  out.projections_.reserve(vgroup_columns.size());
  for (const auto& columns : vgroup_columns) {
    auto p = data::WireProjection::Resolve(store_schema, columns);
    if (!p.ok()) return p.status();
    out.projections_.push_back(std::move(*p));
  }
  return out;
}

void ContributionEncoder::PutHeader(uint64_t contributor_key) {
  w_.Reset();
  w_.PutU64(query_id_);
  w_.PutU64(contributor_key);
}

const Bytes& ContributionEncoder::Encode(size_t vgroup,
                                         uint64_t contributor_key,
                                         const data::TableView& rows) {
  PutHeader(contributor_key);
  projections_[vgroup].Write(rows, &w_);
  return w_.data();
}

const Bytes& ContributionEncoder::EncodeRow(size_t vgroup,
                                            uint64_t contributor_key,
                                            const data::ColumnTable& store,
                                            size_t row) {
  PutHeader(contributor_key);
  projections_[vgroup].WriteRow(store, row, &w_);
  return w_.data();
}

Bytes SnapshotSliceMsg::EncodeFrom(uint64_t query_id, uint32_t partition,
                                   uint32_t vgroup, uint32_t epoch,
                                   const data::Table& rows) {
  Writer w;
  w.PutU64(query_id);
  w.PutU32(partition);
  w.PutU32(vgroup);
  w.PutU32(epoch);
  rows.Serialize(&w);
  return w.Take();
}

Result<SnapshotSliceMsg> SnapshotSliceMsg::Decode(const Bytes& b) {
  Reader r(b);
  SnapshotSliceMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto vg = r.GetU32();
  if (!vg.ok()) return vg.status();
  m.vgroup = *vg;
  auto epoch = r.GetU32();
  if (!epoch.ok()) return epoch.status();
  m.epoch = *epoch;
  auto rows = data::Table::Deserialize(&r);
  if (!rows.ok()) return rows.status();
  m.rows = std::move(*rows);
  return m;
}

Bytes GsPartialMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU32(partition);
  w.PutU32(vgroup);
  w.PutU32(epoch);
  result.Serialize(&w);
  return w.Take();
}

Result<GsPartialMsg> GsPartialMsg::Decode(const Bytes& b) {
  Reader r(b);
  GsPartialMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto vg = r.GetU32();
  if (!vg.ok()) return vg.status();
  m.vgroup = *vg;
  auto epoch = r.GetU32();
  if (!epoch.ok()) return epoch.status();
  m.epoch = *epoch;
  auto res = query::GroupingSetsResult::Deserialize(&r);
  if (!res.ok()) return res.status();
  m.result = std::move(*res);
  return m;
}

void ClusterStats::Permute(const std::vector<int>& perm) {
  // perm[i] = destination index for source cluster i.
  std::vector<std::vector<query::AggregateState>> out(per_cluster.size());
  for (size_t i = 0; i < per_cluster.size(); ++i) {
    size_t dst = (i < perm.size() && perm[i] >= 0 &&
                  static_cast<size_t>(perm[i]) < out.size())
                     ? static_cast<size_t>(perm[i])
                     : i;
    out[dst] = std::move(per_cluster[i]);
  }
  per_cluster = std::move(out);
}

Status ClusterStats::MergeFrom(const ClusterStats& other) {
  if (per_cluster.empty()) {
    per_cluster = other.per_cluster;
    return Status::OK();
  }
  if (per_cluster.size() != other.per_cluster.size()) {
    return Status::InvalidArgument("cluster stats size mismatch");
  }
  for (size_t c = 0; c < per_cluster.size(); ++c) {
    if (per_cluster[c].size() != other.per_cluster[c].size()) {
      return Status::InvalidArgument("cluster stats aggregate mismatch");
    }
    for (size_t a = 0; a < per_cluster[c].size(); ++a) {
      per_cluster[c][a].Merge(other.per_cluster[c][a]);
    }
  }
  return Status::OK();
}

void ClusterStats::Serialize(Writer* w) const {
  w->PutVarint(per_cluster.size());
  for (const auto& cluster : per_cluster) {
    w->PutVarint(cluster.size());
    for (const auto& s : cluster) s.Serialize(w);
  }
}

Result<ClusterStats> ClusterStats::Deserialize(Reader* r) {
  ClusterStats out;
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  EDGELET_RETURN_NOT_OK(r->CheckCount(*n));
  out.per_cluster.resize(*n);
  for (uint64_t c = 0; c < *n; ++c) {
    auto na = r->GetVarint();
    if (!na.ok()) return na.status();
    EDGELET_RETURN_NOT_OK(r->CheckCount(*na));
    out.per_cluster[c].reserve(*na);
    for (uint64_t a = 0; a < *na; ++a) {
      auto s = query::AggregateState::Deserialize(r);
      if (!s.ok()) return s.status();
      out.per_cluster[c].push_back(std::move(*s));
    }
  }
  return out;
}

Bytes KmKnowledgeMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU32(partition);
  w.PutU32(round);
  knowledge.Serialize(&w);
  return w.Take();
}

Result<KmKnowledgeMsg> KmKnowledgeMsg::Decode(const Bytes& b) {
  Reader r(b);
  KmKnowledgeMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto round = r.GetU32();
  if (!round.ok()) return round.status();
  m.round = *round;
  auto k = ml::KMeansKnowledge::Deserialize(&r);
  if (!k.ok()) return k.status();
  m.knowledge = std::move(*k);
  return m;
}

Bytes KmFinalMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU32(partition);
  knowledge.Serialize(&w);
  stats.Serialize(&w);
  return w.Take();
}

Result<KmFinalMsg> KmFinalMsg::Decode(const Bytes& b) {
  Reader r(b);
  KmFinalMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto k = ml::KMeansKnowledge::Deserialize(&r);
  if (!k.ok()) return k.status();
  m.knowledge = std::move(*k);
  auto s = ClusterStats::Deserialize(&r);
  if (!s.ok()) return s.status();
  m.stats = std::move(*s);
  return m;
}

Bytes FinalResultMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutVarint(partitions.size());
  for (uint32_t p : partitions) w.PutU32(p);
  w.PutVarint(epochs.size());
  for (uint32_t e : epochs) w.PutU32(e);
  result.Serialize(&w);
  return w.Take();
}

Result<FinalResultMsg> FinalResultMsg::Decode(const Bytes& b) {
  Reader r(b);
  FinalResultMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto np = r.GetVarint();
  if (!np.ok()) return np.status();
  for (uint64_t i = 0; i < *np; ++i) {
    auto p = r.GetU32();
    if (!p.ok()) return p.status();
    m.partitions.push_back(*p);
  }
  auto ne = r.GetVarint();
  if (!ne.ok()) return ne.status();
  for (uint64_t i = 0; i < *ne; ++i) {
    auto e = r.GetU32();
    if (!e.ok()) return e.status();
    m.epochs.push_back(*e);
  }
  auto table = data::Table::Deserialize(&r);
  if (!table.ok()) return table.status();
  m.result = std::move(*table);
  return m;
}

Bytes RecruitMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU8(static_cast<uint8_t>(role));
  w.PutU32(partition);
  w.PutU32(vgroup);
  w.PutU32(epoch);
  w.PutU64(peer);
  w.PutU64(controller);
  return w.Take();
}

Result<RecruitMsg> RecruitMsg::Decode(const Bytes& b) {
  Reader r(b);
  RecruitMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto role = r.GetU8();
  if (!role.ok()) return role.status();
  if (*role > static_cast<uint8_t>(RecruitRole::kComputer)) {
    return Status::InvalidArgument("bad recruit role");
  }
  m.role = static_cast<RecruitRole>(*role);
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto vg = r.GetU32();
  if (!vg.ok()) return vg.status();
  m.vgroup = *vg;
  auto epoch = r.GetU32();
  if (!epoch.ok()) return epoch.status();
  m.epoch = *epoch;
  auto peer = r.GetU64();
  if (!peer.ok()) return peer.status();
  m.peer = *peer;
  auto controller = r.GetU64();
  if (!controller.ok()) return controller.status();
  m.controller = *controller;
  return m;
}

Bytes RecruitAckMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU8(static_cast<uint8_t>(role));
  w.PutU32(partition);
  w.PutU32(vgroup);
  w.PutU32(epoch);
  return w.Take();
}

Result<RecruitAckMsg> RecruitAckMsg::Decode(const Bytes& b) {
  Reader r(b);
  RecruitAckMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto role = r.GetU8();
  if (!role.ok()) return role.status();
  if (*role > static_cast<uint8_t>(RecruitRole::kComputer)) {
    return Status::InvalidArgument("bad recruit role");
  }
  m.role = static_cast<RecruitRole>(*role);
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto vg = r.GetU32();
  if (!vg.ok()) return vg.status();
  m.vgroup = *vg;
  auto epoch = r.GetU32();
  if (!epoch.ok()) return epoch.status();
  m.epoch = *epoch;
  return m;
}

Bytes ResolicitMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU32(partition);
  w.PutU32(vgroup);
  w.PutU64(builder);
  return w.Take();
}

Result<ResolicitMsg> ResolicitMsg::Decode(const Bytes& b) {
  Reader r(b);
  ResolicitMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto vg = r.GetU32();
  if (!vg.ok()) return vg.status();
  m.vgroup = *vg;
  auto builder = r.GetU64();
  if (!builder.ok()) return builder.status();
  m.builder = *builder;
  return m;
}

Bytes OperatorHeartbeatMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU64(op_id);
  w.PutU64(incarnation);
  return w.Take();
}

Result<OperatorHeartbeatMsg> OperatorHeartbeatMsg::Decode(const Bytes& b) {
  Reader r(b);
  OperatorHeartbeatMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto op = r.GetU64();
  if (!op.ok()) return op.status();
  m.op_id = *op;
  auto inc = r.GetU64();
  if (!inc.ok()) return inc.status();
  m.incarnation = *inc;
  return m;
}

Bytes RecoveryHelloMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU8(static_cast<uint8_t>(role));
  w.PutU32(partition);
  w.PutU32(vgroup);
  w.PutU32(epoch);
  w.PutU64(incarnation);
  return w.Take();
}

Result<RecoveryHelloMsg> RecoveryHelloMsg::Decode(const Bytes& b) {
  Reader r(b);
  RecoveryHelloMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto role = r.GetU8();
  if (!role.ok()) return role.status();
  if (*role > static_cast<uint8_t>(RecruitRole::kComputer)) {
    return Status::InvalidArgument("bad recovery role");
  }
  m.role = static_cast<RecruitRole>(*role);
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto vg = r.GetU32();
  if (!vg.ok()) return vg.status();
  m.vgroup = *vg;
  auto epoch = r.GetU32();
  if (!epoch.ok()) return epoch.status();
  m.epoch = *epoch;
  auto inc = r.GetU64();
  if (!inc.ok()) return inc.status();
  m.incarnation = *inc;
  return m;
}

Bytes RecoveryAckMsg::Encode() const {
  Writer w;
  w.PutU64(query_id);
  w.PutU8(static_cast<uint8_t>(role));
  w.PutU32(partition);
  w.PutU32(vgroup);
  w.PutBool(resume);
  w.PutU64(incarnation);
  return w.Take();
}

Result<RecoveryAckMsg> RecoveryAckMsg::Decode(const Bytes& b) {
  Reader r(b);
  RecoveryAckMsg m;
  auto qid = r.GetU64();
  if (!qid.ok()) return qid.status();
  m.query_id = *qid;
  auto role = r.GetU8();
  if (!role.ok()) return role.status();
  if (*role > static_cast<uint8_t>(RecruitRole::kComputer)) {
    return Status::InvalidArgument("bad recovery role");
  }
  m.role = static_cast<RecruitRole>(*role);
  auto part = r.GetU32();
  if (!part.ok()) return part.status();
  m.partition = *part;
  auto vg = r.GetU32();
  if (!vg.ok()) return vg.status();
  m.vgroup = *vg;
  auto resume = r.GetBool();
  if (!resume.ok()) return resume.status();
  m.resume = *resume;
  auto inc = r.GetU64();
  if (!inc.ok()) return inc.status();
  m.incarnation = *inc;
  return m;
}

Bytes LeaderPingMsg::Encode() const {
  Writer w;
  w.PutU64(group_id);
  w.PutU32(rank);
  return w.Take();
}

Result<LeaderPingMsg> LeaderPingMsg::Decode(const Bytes& b) {
  Reader r(b);
  LeaderPingMsg m;
  auto gid = r.GetU64();
  if (!gid.ok()) return gid.status();
  m.group_id = *gid;
  auto rank = r.GetU32();
  if (!rank.ok()) return rank.status();
  m.rank = *rank;
  return m;
}

}  // namespace edgelet::exec
