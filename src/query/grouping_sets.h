#ifndef EDGELET_QUERY_GROUPING_SETS_H_
#define EDGELET_QUERY_GROUPING_SETS_H_

#include <optional>
#include <tuple>

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

  template <typename M>
  static auto Fields(M& m) { return std::tie(m.sets, m.aggregates); }
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

  // SQL GROUPING SETS output: one row block per set over the union of key
  // columns; keys absent from a set are NULL. A "grouping_set" INT64 column
  // disambiguates (stands in for the SQL GROUPING() function).
  Result<data::Table> Finalize() const;

  template <typename M>
  static auto Fields(M& m) { return std::tie(m.spec_, m.per_set_); }
  // Rejects a set count other than the spec's, and a present set whose
  // GroupBy spec is not {sets[i], aggregates}.
  Status FinishDecode() const;

 private:
  GroupingSetsSpec spec_;
  // One entry per grouping set; empty when no computed partial covers it.
  std::vector<std::optional<GroupedAggregation>> per_set_;
};

}  // namespace edgelet::query

#endif  // EDGELET_QUERY_GROUPING_SETS_H_
