#include "exec/protocol.h"

namespace edgelet::exec {

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

void ContributionEncoder::PutHeader(uint64_t contributor_key,
                                    Writer* w) const {
  w->Reset();
  w->PutU64(query_id_);
  w->PutU64(contributor_key);
}

const Bytes& ContributionEncoder::Encode(size_t vgroup,
                                         uint64_t contributor_key,
                                         const data::TableView& rows,
                                         Writer* w) const {
  PutHeader(contributor_key, w);
  projections_[vgroup].Write(rows, w);
  return w->data();
}

const Bytes& ContributionEncoder::EncodeRow(size_t vgroup,
                                            uint64_t contributor_key,
                                            const data::ColumnTable& store,
                                            size_t row, Writer* w) const {
  PutHeader(contributor_key, w);
  projections_[vgroup].WriteRow(store, row, w);
  return w->data();
}

Bytes SnapshotSliceMsg::EncodeFrom(uint64_t query_id, uint32_t partition,
                                   uint32_t vgroup, uint32_t epoch,
                                   const data::ColumnTable& rows) {
  // The message's field list applied to references: no copy of `rows`.
  struct {
    const uint64_t& query_id;
    const uint32_t& partition;
    const uint32_t& vgroup;
    const uint32_t& epoch;
    const data::ColumnTable& rows;
  } parts{query_id, partition, vgroup, epoch, rows};
  Writer w;
  wire::PutFields(&w, Fields(parts));
  return w.Take();
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
      EDGELET_RETURN_NOT_OK(per_cluster[c][a].Merge(other.per_cluster[c][a]));
    }
  }
  return Status::OK();
}

}  // namespace edgelet::exec
