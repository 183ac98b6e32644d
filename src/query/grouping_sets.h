#ifndef EDGELET_QUERY_GROUPING_SETS_H_
#define EDGELET_QUERY_GROUPING_SETS_H_

#include "query/groupby.h"

namespace edgelet::query {

// GROUP BY GROUPING SETS ((k1...), (k2...), ...): multiple Group-By clauses
// evaluated over the same snapshot in one query — the first demo query of
// the paper (§3.2 Part 1, citing the Snowflake GROUPING SETS semantics).
struct GroupingSetsSpec {
  std::vector<std::vector<std::string>> sets;
  std::vector<AggregateSpec> aggregates;

  // Union of all key columns, in first-appearance order.
  std::vector<std::string> AllKeyColumns() const;
  // Columns a computer needs to evaluate set `i`.
  std::vector<std::string> ColumnsForSet(size_t i) const;
  // All columns referenced anywhere (keys + aggregate inputs).
  std::vector<std::string> AllColumns() const;

  void Serialize(Writer* w) const;
  static Result<GroupingSetsSpec> Deserialize(Reader* r);
  bool operator==(const GroupingSetsSpec& other) const {
    return sets == other.sets && aggregates == other.aggregates;
  }
};

// Mergeable partial result: one GroupedAggregation per grouping set.
// A vertically-partitioned computer may hold only a subset of the sets; the
// combiner stitches per-set partials from all computers.
class GroupingSetsResult {
 public:
  GroupingSetsResult() = default;
  explicit GroupingSetsResult(GroupingSetsSpec spec);

  const GroupingSetsSpec& spec() const { return spec_; }

  // Computes every grouping set over `view`.
  static Result<GroupingSetsResult> Compute(const data::TableView& view,
                                            const GroupingSetsSpec& spec);
  // Computes only the listed set indices (vertical partitioning: this
  // computer holds only the attributes those sets need).
  static Result<GroupingSetsResult> ComputeSets(
      const data::TableView& view, const GroupingSetsSpec& spec,
      const std::vector<size_t>& set_indices);

  Status Merge(const GroupingSetsResult& other);

  bool HasSet(size_t i) const;
  const GroupedAggregation& set_result(size_t i) const {
    return per_set_[i];
  }

  // SQL GROUPING SETS output: one row block per set over the union of key
  // columns; keys absent from a set are NULL. A "grouping_set" INT64 column
  // disambiguates (stands in for the SQL GROUPING() function).
  Result<data::Table> Finalize() const;

  void Serialize(Writer* w) const;
  static Result<GroupingSetsResult> Deserialize(Reader* r);

 private:
  GroupingSetsSpec spec_;
  std::vector<GroupedAggregation> per_set_;
  std::vector<bool> present_;
};

}  // namespace edgelet::query

#endif  // EDGELET_QUERY_GROUPING_SETS_H_
