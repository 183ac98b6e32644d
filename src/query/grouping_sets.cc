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

GroupingSetsResult::GroupingSetsResult(GroupingSetsSpec spec)
    : spec_(std::move(spec)), per_set_(spec_.sets.size()) {}

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
  }
  return out;
}

Status GroupingSetsResult::Merge(const GroupingSetsResult& other) {
  if (per_set_.empty()) {
    // Default-constructed accumulator adopts the incoming spec.
    spec_ = other.spec_;
    per_set_.resize(spec_.sets.size());
  }
  if (!(spec_ == other.spec_)) {
    return Status::InvalidArgument("cannot merge: GroupingSets specs differ");
  }
  for (size_t i = 0; i < per_set_.size(); ++i) {
    if (!other.per_set_[i].has_value()) continue;
    if (!per_set_[i].has_value()) {
      per_set_[i] = other.per_set_[i];
    } else {
      EDGELET_RETURN_NOT_OK(per_set_[i]->Merge(*other.per_set_[i]));
    }
  }
  return Status::OK();
}

bool GroupingSetsResult::HasSet(size_t i) const {
  return i < per_set_.size() && per_set_[i].has_value();
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
    if (!per_set_[i].has_value()) {
      return Status::FailedPrecondition(
          "grouping set " + std::to_string(i) +
          " missing: no computer reported it");
    }
    data::Table set_table = per_set_[i]->Finalize();
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

Status GroupingSetsResult::FinishDecode() const {
  if (per_set_.size() != spec_.sets.size()) {
    return Status::Corruption("grouping-set count mismatch");
  }
  for (size_t i = 0; i < per_set_.size(); ++i) {
    const GroupBySpec want{spec_.sets[i], spec_.aggregates};
    if (per_set_[i].has_value() && !(per_set_[i]->spec() == want)) {
      return Status::Corruption("grouping set " + std::to_string(i) +
                                " carries a foreign GroupBy spec");
    }
  }
  return Status::OK();
}

}  // namespace edgelet::query
