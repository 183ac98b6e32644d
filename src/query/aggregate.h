#ifndef EDGELET_QUERY_AGGREGATE_H_
#define EDGELET_QUERY_AGGREGATE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "data/value.h"
#include "query/hll.h"
#include "query/quantile.h"

namespace edgelet::query {

// Aggregate functions supported by Edgelet computations. All of them are
// distributive or algebraic: partial states computed on disjoint partitions
// merge into the exact global answer, which is what makes the
// Overcollection strategy applicable (paper §2.2).
enum class AggregateFunction : uint8_t {
  kCount = 0,  // COUNT(col): non-null values; COUNT(*) when column == "*"
  kSum = 1,
  kMin = 2,
  kMax = 3,
  kAvg = 4,
  kVariance = 5,  // population variance
  kStdDev = 6,    // population standard deviation
  // Approximate distinct count via a mergeable HyperLogLog sketch
  // (exact distinct counting is not distributive; the sketch is).
  kCountDistinct = 7,
  // Approximate quantile via a mergeable KLL-style sketch; the quantile
  // rank comes from AggregateSpec::parameter (0.5 = median).
  kQuantile = 8,
};
// The last valid tag: the wire codec rejects any above it.
constexpr AggregateFunction WireLastTag(AggregateFunction) {
  return AggregateFunction::kQuantile;
}

// True for aggregates whose result is integral (COUNT, COUNT DISTINCT).
bool AggregateYieldsInteger(AggregateFunction fn);

std::string_view AggregateFunctionName(AggregateFunction fn);

struct AggregateSpec {
  AggregateFunction fn = AggregateFunction::kCount;
  std::string column;  // "*" allowed for COUNT
  // Function argument; only kQuantile reads it (the quantile rank in
  // [0, 1]).
  double parameter = 0.5;

  // "AVG(bmi)" / "Q50(bmi)"-style result column name.
  std::string OutputName() const;

  template <typename M>
  static auto Fields(M& m) { return std::tie(m.fn, m.column, m.parameter); }

  bool operator==(const AggregateSpec& other) const {
    return fn == other.fn && column == other.column &&
           parameter == other.parameter;
  }
};

// Algebraic partial state covering every supported function: merging states
// from disjoint partitions then finalizing equals computing on the union.
class AggregateState {
 public:
  AggregateState() = default;

  // Accumulates one input value. NULLs are ignored (SQL semantics);
  // `count_star` additionally counts NULLs (for COUNT(*)).
  Status Add(const data::Value& v, bool count_star = false);

  // Accumulates one value into the distinct-count sketch (for
  // kCountDistinct). NULLs are ignored.
  void AddDistinct(const data::Value& v);

  // Accumulates one numeric value into the quantile sketch (for
  // kQuantile). NULLs are ignored; non-numeric values fail.
  Status AddQuantile(const data::Value& v);

  // Accumulates one input row of aggregate `fn` through the matching Add*
  // call: the one dispatch every operator uses. A COUNT(*) row
  // (`count_star`) is counted once, whatever `v` holds.
  Status Accumulate(AggregateFunction fn, const data::Value& v,
                    bool count_star);

  // Fails when the sketches cannot be united (a foreign HLL precision or
  // quantile-sketch width); the state is then partly merged and must be
  // discarded.
  Status Merge(const AggregateState& other);

  // NULL result when no value was observed (except COUNT -> 0).
  // kQuantile needs the rank from the spec; the fn-only overload uses the
  // median.
  data::Value Finalize(AggregateFunction fn) const;
  data::Value Finalize(const AggregateSpec& spec) const;

  uint64_t count() const { return count_; }

  template <typename M>
  static auto Fields(M& m) {
    return wire::Tie(wire::Varint(m.count_), m.sum_, m.sum_sq_, m.min_, m.max_,
                     m.has_numeric_, m.hll_, m.sketch_);
  }

  bool operator==(const AggregateState& other) const;

 private:
  uint64_t count_ = 0;    // non-null values (or all rows for COUNT(*))
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool has_numeric_ = false;
  std::optional<HyperLogLog> hll_;  // only materialized for kCountDistinct
  std::optional<QuantileSketch> sketch_;  // only for kQuantile
};

}  // namespace edgelet::query

#endif  // EDGELET_QUERY_AGGREGATE_H_
