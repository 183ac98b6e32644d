#ifndef EDGELET_QUERY_GROUPBY_H_
#define EDGELET_QUERY_GROUPBY_H_

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "data/column_table.h"
#include "data/table.h"
#include "query/aggregate.h"

namespace edgelet::query {

// GROUP BY <keys> with a list of aggregates.
struct GroupBySpec {
  std::vector<std::string> keys;  // empty => single global group
  std::vector<AggregateSpec> aggregates;

  template <typename M>
  static auto Fields(M& m) { return std::tie(m.keys, m.aggregates); }
  bool operator==(const GroupBySpec& other) const {
    return keys == other.keys && aggregates == other.aggregates;
  }
};

// Mergeable partial result of a grouped aggregation: per-group algebraic
// states. Computers produce these on their partitions; the Computing
// Combiner merges them, and merging is exact (validity property).
class GroupedAggregation {
 public:
  GroupedAggregation() = default;
  explicit GroupedAggregation(GroupBySpec spec) : spec_(std::move(spec)) {}

  const GroupBySpec& spec() const { return spec_; }

  // Aggregates every row of `view` (which must contain all key and
  // aggregate columns), reading cells straight from its store.
  static Result<GroupedAggregation> Compute(const data::TableView& view,
                                            const GroupBySpec& spec);

  // Merges a partial result from another partition; specs must match and
  // every state must merge (AggregateState::Merge).
  Status Merge(const GroupedAggregation& other);

  size_t num_groups() const { return groups_.size(); }

  // Finalized table: key columns then one column per aggregate, rows in
  // deterministic key order.
  data::Table Finalize() const;

  // On the wire: the spec, then the groups in key order; the map keys
  // are rebuilt from the group keys.
  template <typename M>
  static auto Fields(M& m) {
    return wire::Tie(m.spec_, wire::Values(m.groups_, &KeyBytes));
  }
  // Rejects a group whose key or state count differs from the spec's.
  Status FinishDecode() const;

 private:
  struct Group {
    data::Tuple key;
    std::vector<AggregateState> states;

    template <typename M>
    static auto Fields(M& m) { return std::tie(m.key, m.states); }
  };

  // The map key of a group: its key values, serialized.
  static Bytes KeyBytes(const Group& group);

  GroupBySpec spec_;
  // Keyed by the serialized key tuple => deterministic iteration order.
  std::map<Bytes, Group> groups_;
};

}  // namespace edgelet::query

#endif  // EDGELET_QUERY_GROUPBY_H_
