#include "query/grouping_sets.h"

#include <algorithm>

namespace edgelet::query {

namespace {

void AppendUnique(std::vector<std::string>* out, const std::string& s) {
  if (std::find(out->begin(), out->end(), s) == out->end()) {
    out->push_back(s);
  }
}

}  // namespace

std::vector<std::string> GroupingSetsSpec::AllKeyColumns() const {
  std::vector<std::string> out;
  for (const auto& set : sets) {
    for (const auto& k : set) AppendUnique(&out, k);
  }
  return out;
}

std::vector<std::string> GroupingSetsSpec::ColumnsForSet(size_t i) const {
  std::vector<std::string> out;
  for (const auto& k : sets[i]) AppendUnique(&out, k);
  for (const auto& a : aggregates) {
    if (a.column != "*") AppendUnique(&out, a.column);
  }
  return out;
}

std::vector<std::string> GroupingSetsSpec::AllColumns() const {
  std::vector<std::string> out = AllKeyColumns();
  for (const auto& a : aggregates) {
    if (a.column != "*") AppendUnique(&out, a.column);
  }
  return out;
}

void GroupingSetsSpec::Serialize(Writer* w) const {
  w->PutVarint(sets.size());
  for (const auto& set : sets) {
    w->PutVarint(set.size());
    for (const auto& k : set) w->PutString(k);
  }
  w->PutVarint(aggregates.size());
  for (const auto& a : aggregates) a.Serialize(w);
}

Result<GroupingSetsSpec> GroupingSetsSpec::Deserialize(Reader* r) {
  GroupingSetsSpec spec;
  auto ns = r->GetVarint();
  if (!ns.ok()) return ns.status();
  for (uint64_t i = 0; i < *ns; ++i) {
    auto nk = r->GetVarint();
    if (!nk.ok()) return nk.status();
    std::vector<std::string> set;
    for (uint64_t j = 0; j < *nk; ++j) {
      auto k = r->GetString();
      if (!k.ok()) return k.status();
      set.push_back(std::move(*k));
    }
    spec.sets.push_back(std::move(set));
  }
  auto na = r->GetVarint();
  if (!na.ok()) return na.status();
  for (uint64_t i = 0; i < *na; ++i) {
    auto a = AggregateSpec::Deserialize(r);
    if (!a.ok()) return a.status();
    spec.aggregates.push_back(std::move(*a));
  }
  return spec;
}

GroupingSetsResult::GroupingSetsResult(GroupingSetsSpec spec)
    : spec_(std::move(spec)),
      per_set_(spec_.sets.size()),
      present_(spec_.sets.size(), false) {}

Result<GroupingSetsResult> GroupingSetsResult::Compute(
    const data::TableView& view, const GroupingSetsSpec& spec) {
  std::vector<size_t> all(spec.sets.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return ComputeSets(view, spec, all);
}

Result<GroupingSetsResult> GroupingSetsResult::ComputeSets(
    const data::TableView& view, const GroupingSetsSpec& spec,
    const std::vector<size_t>& set_indices) {
  GroupingSetsResult out(spec);
  for (size_t i : set_indices) {
    if (i >= spec.sets.size()) {
      return Status::OutOfRange("grouping set index " + std::to_string(i));
    }
    GroupBySpec gb{spec.sets[i], spec.aggregates};
    auto agg = GroupedAggregation::Compute(view, gb);
    if (!agg.ok()) return agg.status();
    out.per_set_[i] = std::move(*agg);
    out.present_[i] = true;
  }
  return out;
}

Status GroupingSetsResult::Merge(const GroupingSetsResult& other) {
  if (per_set_.empty() && present_.empty()) {
    // Default-constructed accumulator adopts the incoming spec.
    spec_ = other.spec_;
    per_set_.resize(spec_.sets.size());
    present_.assign(spec_.sets.size(), false);
  }
  if (!(spec_ == other.spec_)) {
    return Status::InvalidArgument("cannot merge: GroupingSets specs differ");
  }
  for (size_t i = 0; i < per_set_.size(); ++i) {
    if (!other.present_[i]) continue;
    if (!present_[i]) {
      per_set_[i] = other.per_set_[i];
      present_[i] = true;
    } else {
      EDGELET_RETURN_NOT_OK(per_set_[i].Merge(other.per_set_[i]));
    }
  }
  return Status::OK();
}

bool GroupingSetsResult::HasSet(size_t i) const {
  return i < present_.size() && present_[i];
}

Result<data::Table> GroupingSetsResult::Finalize() const {
  std::vector<std::string> all_keys = spec_.AllKeyColumns();

  std::vector<data::Column> cols;
  cols.push_back({"grouping_set", data::ValueType::kInt64});
  for (const auto& k : all_keys) cols.push_back({k, data::ValueType::kString});
  for (const auto& a : spec_.aggregates) {
    data::ValueType t = AggregateYieldsInteger(a.fn)
                            ? data::ValueType::kInt64
                            : data::ValueType::kDouble;
    cols.push_back({a.OutputName(), t});
  }

  data::Table out{data::Schema(cols)};
  for (size_t i = 0; i < per_set_.size(); ++i) {
    if (!present_[i]) {
      return Status::FailedPrecondition(
          "grouping set " + std::to_string(i) +
          " missing: no computer reported it");
    }
    data::Table set_table = per_set_[i].Finalize();
    const auto& set_keys = spec_.sets[i];
    // Map each union key column to its position in this set's output (or
    // NULL if absent).
    for (const auto& row : set_table.rows()) {
      data::Tuple t;
      t.reserve(cols.size());
      t.emplace_back(static_cast<int64_t>(i));
      for (const auto& key : all_keys) {
        auto it = std::find(set_keys.begin(), set_keys.end(), key);
        if (it == set_keys.end()) {
          t.push_back(data::Value::Null());
        } else {
          t.push_back(row[static_cast<size_t>(it - set_keys.begin())]);
        }
      }
      for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
        t.push_back(row[set_keys.size() + a]);
      }
      out.AppendUnchecked(std::move(t));
    }
  }
  out.SortRows();
  return out;
}

void GroupingSetsResult::Serialize(Writer* w) const {
  spec_.Serialize(w);
  w->PutVarint(per_set_.size());
  for (size_t i = 0; i < per_set_.size(); ++i) {
    w->PutBool(present_[i]);
    if (present_[i]) per_set_[i].Serialize(w);
  }
}

Result<GroupingSetsResult> GroupingSetsResult::Deserialize(Reader* r) {
  auto spec = GroupingSetsSpec::Deserialize(r);
  if (!spec.ok()) return spec.status();
  GroupingSetsResult out(std::move(*spec));
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  if (*n != out.per_set_.size()) {
    return Status::Corruption("grouping-set count mismatch");
  }
  for (uint64_t i = 0; i < *n; ++i) {
    auto present = r->GetBool();
    if (!present.ok()) return present.status();
    if (*present) {
      auto agg = GroupedAggregation::Deserialize(r);
      if (!agg.ok()) return agg.status();
      out.per_set_[i] = std::move(*agg);
      out.present_[i] = true;
    }
  }
  return out;
}

}  // namespace edgelet::query
