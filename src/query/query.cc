#include "query/query.h"

#include <algorithm>

namespace edgelet::query {

namespace {

void AppendUnique(std::vector<std::string>* out, const std::string& s) {
  if (std::find(out->begin(), out->end(), s) == out->end()) {
    out->push_back(s);
  }
}

// True when `column` is in the schema and holds INT64 or DOUBLE.
bool IsNumeric(const data::Schema& schema, const std::string& column) {
  auto idx = schema.IndexOf(column);
  if (!idx.ok()) return false;
  const data::ValueType t = schema.column(*idx).type;
  return t == data::ValueType::kInt64 || t == data::ValueType::kDouble;
}

}  // namespace

std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kGroupingSets:
      return "GROUPING_SETS";
    case QueryKind::kKMeans:
      return "KMEANS";
  }
  return "?";
}

std::vector<std::string> Query::RequiredColumns() const {
  std::vector<std::string> out;
  if (kind == QueryKind::kGroupingSets) {
    for (const auto& c : grouping_sets.AllColumns()) AppendUnique(&out, c);
  } else {
    for (const auto& f : kmeans.features) AppendUnique(&out, f);
    for (const auto& a : kmeans.cluster_aggregates) {
      if (a.column != "*") AppendUnique(&out, a.column);
    }
  }
  return out;
}

Status Query::Validate(const data::Schema& schema) const {
  if (snapshot_cardinality == 0) {
    return Status::InvalidArgument("snapshot_cardinality must be > 0");
  }
  for (const auto& p : predicates) {
    if (!schema.Contains(p.column)) {
      return Status::InvalidArgument("predicate column not in schema: " +
                                     p.column);
    }
  }
  for (const auto& c : RequiredColumns()) {
    if (!schema.Contains(c)) {
      return Status::InvalidArgument("query column not in schema: " + c);
    }
  }
  // A quantile sketch takes numbers only; over any other column every
  // computer would fail its partition at run time.
  const auto& aggregates = kind == QueryKind::kGroupingSets
                               ? grouping_sets.aggregates
                               : kmeans.cluster_aggregates;
  for (const auto& a : aggregates) {
    if (a.fn != AggregateFunction::kQuantile) continue;
    if (!IsNumeric(schema, a.column)) {
      return Status::InvalidArgument("QUANTILE column not numeric: " +
                                     a.column);
    }
  }
  if (kind == QueryKind::kGroupingSets) {
    if (grouping_sets.sets.empty()) {
      return Status::InvalidArgument("GROUPING SETS query needs >= 1 set");
    }
    if (grouping_sets.aggregates.empty()) {
      return Status::InvalidArgument("GROUPING SETS query needs aggregates");
    }
  } else {
    if (kmeans.k <= 0) {
      return Status::InvalidArgument("K-Means k must be > 0");
    }
    if (kmeans.features.empty()) {
      return Status::InvalidArgument("K-Means needs >= 1 feature");
    }
    if (kmeans.local_iterations <= 0) {
      return Status::InvalidArgument("K-Means local_iterations must be > 0");
    }
    for (const auto& f : kmeans.features) {
      if (!IsNumeric(schema, f)) {
        return Status::InvalidArgument("K-Means feature not numeric: " + f);
      }
    }
  }
  return Status::OK();
}

}  // namespace edgelet::query
