#include "query/groupby.h"

namespace edgelet::query {

namespace {

void SerializeKey(const data::Tuple& key, Writer* w) {
  w->Reset();
  for (const auto& v : key) v.Serialize(w);
}

}  // namespace

Result<GroupedAggregation> GroupedAggregation::Compute(
    const data::TableView& view, const GroupBySpec& spec) {
  GroupedAggregation out(spec);
  // A default view carries no schema; treat it as an empty input with the
  // spec's identity result (zero groups).
  if (!view.has_store()) return out;
  const data::Schema& schema = view.schema();

  std::vector<size_t> key_idx;
  key_idx.reserve(spec.keys.size());
  for (const auto& k : spec.keys) {
    auto idx = schema.IndexOf(k);
    if (!idx.ok()) return idx.status();
    key_idx.push_back(*idx);
  }
  // -1 == COUNT(*): no input column.
  std::vector<int> agg_idx;
  agg_idx.reserve(spec.aggregates.size());
  for (const auto& a : spec.aggregates) {
    if (a.column == "*") {
      if (a.fn != AggregateFunction::kCount) {
        return Status::InvalidArgument("'*' only valid with COUNT");
      }
      agg_idx.push_back(-1);
    } else {
      auto idx = schema.IndexOf(a.column);
      if (!idx.ok()) return idx.status();
      agg_idx.push_back(static_cast<int>(*idx));
    }
  }

  // One reused key encoder for the whole scan; the map copies the bytes
  // only when the group is new.
  Writer key_writer;
  const size_t num_rows = view.num_rows();
  for (size_t r = 0; r < num_rows; ++r) {
    data::Tuple key;
    key.reserve(key_idx.size());
    for (size_t i : key_idx) key.push_back(view.ValueAt(r, i));
    SerializeKey(key, &key_writer);
    auto [it, inserted] = out.groups_.try_emplace(key_writer.data());
    if (inserted) {
      it->second.key = std::move(key);
      it->second.states.resize(spec.aggregates.size());
    }
    for (size_t a = 0; a < spec.aggregates.size(); ++a) {
      const bool count_star = agg_idx[a] < 0;
      EDGELET_RETURN_NOT_OK(it->second.states[a].Accumulate(
          spec.aggregates[a].fn,
          count_star ? data::Value::Null()
                     : view.ValueAt(r, static_cast<size_t>(agg_idx[a])),
          count_star));
    }
  }
  return out;
}

Status GroupedAggregation::Merge(const GroupedAggregation& other) {
  if (!(spec_ == other.spec_)) {
    // A default-constructed accumulator adopts the first spec it sees.
    if (spec_.keys.empty() && spec_.aggregates.empty() && groups_.empty()) {
      spec_ = other.spec_;
    } else {
      return Status::InvalidArgument("cannot merge: GroupBy specs differ");
    }
  }
  for (const auto& [key_bytes, group] : other.groups_) {
    auto [it, inserted] = groups_.try_emplace(key_bytes);
    if (inserted) {
      it->second = group;
    } else {
      for (size_t i = 0; i < group.states.size(); ++i) {
        EDGELET_RETURN_NOT_OK(it->second.states[i].Merge(group.states[i]));
      }
    }
  }
  return Status::OK();
}

data::Table GroupedAggregation::Finalize() const {
  std::vector<data::Column> cols;
  for (const auto& k : spec_.keys) {
    // Key output type is whatever the values carry; declare as the type of
    // the first group's value (NULL-safe default: STRING).
    cols.push_back({k, data::ValueType::kString});
  }
  for (const auto& a : spec_.aggregates) {
    data::ValueType t = AggregateYieldsInteger(a.fn)
                            ? data::ValueType::kInt64
                            : data::ValueType::kDouble;
    cols.push_back({a.OutputName(), t});
  }
  // Fix key column types from observed data.
  if (!groups_.empty()) {
    const auto& first = groups_.begin()->second.key;
    for (size_t i = 0; i < first.size(); ++i) {
      if (!first[i].is_null()) cols[i].type = first[i].type();
    }
  }

  data::Table out{data::Schema(std::move(cols))};
  for (const auto& [key_bytes, group] : groups_) {
    data::Tuple row = group.key;
    for (size_t i = 0; i < spec_.aggregates.size(); ++i) {
      row.push_back(group.states[i].Finalize(spec_.aggregates[i]));
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

Status GroupedAggregation::FinishDecode() const {
  for (const auto& [key_bytes, group] : groups_) {
    if (group.key.size() != spec_.keys.size() ||
        group.states.size() != spec_.aggregates.size()) {
      return Status::Corruption("group shape differs from its GroupBy spec");
    }
  }
  return Status::OK();
}

Bytes GroupedAggregation::KeyBytes(const Group& group) {
  Writer w;
  SerializeKey(group.key, &w);
  return w.Take();
}

}  // namespace edgelet::query
