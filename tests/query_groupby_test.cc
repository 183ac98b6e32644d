#include "query/groupby.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "query/grouping_sets.h"
#include "table_views.h"

namespace edgelet::query {
namespace {

using data::Table;
using data::Value;
using testutil::HashPartitions;
using testutil::ViewOf;

data::TableView People() {
  data::Schema schema({{"region", data::ValueType::kString},
                       {"sex", data::ValueType::kString},
                       {"age", data::ValueType::kInt64},
                       {"bmi", data::ValueType::kDouble}});
  Table t(schema);
  auto add = [&](const char* region, const char* sex, int64_t age,
                 double bmi) {
    ASSERT_TRUE(
        t.Append({Value(region), Value(sex), Value(age), Value(bmi)}).ok());
  };
  add("north", "F", 70, 22.0);
  add("north", "M", 75, 27.0);
  add("south", "F", 80, 24.0);
  add("south", "F", 85, 26.0);
  add("south", "M", 90, 30.0);
  return ViewOf(t);
}

TEST(GroupByTest, GlobalAggregate) {
  GroupBySpec spec{{}, {{AggregateFunction::kAvg, "age"}}};
  auto agg = GroupedAggregation::Compute(People(), spec);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->num_groups(), 1u);
  Table out = agg->Finalize();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(out.row(0)[0].AsDouble(), 80.0);
}

TEST(GroupByTest, SingleKey) {
  GroupBySpec spec{{"region"},
                   {{AggregateFunction::kCount, "*"},
                    {AggregateFunction::kAvg, "bmi"}}};
  auto agg = GroupedAggregation::Compute(People(), spec);
  ASSERT_TRUE(agg.ok());
  Table out = agg->Finalize();
  ASSERT_EQ(out.num_rows(), 2u);
  // Deterministic (serialized-key) order; find rows by key.
  for (const auto& row : out.rows()) {
    if (row[0].AsString() == "north") {
      EXPECT_EQ(row[1].AsInt64(), 2);
      EXPECT_DOUBLE_EQ(row[2].AsDouble(), 24.5);
    } else {
      EXPECT_EQ(row[0].AsString(), "south");
      EXPECT_EQ(row[1].AsInt64(), 3);
      EXPECT_NEAR(row[2].AsDouble(), 26.6666666667, 1e-9);
    }
  }
}

TEST(GroupByTest, CompositeKey) {
  GroupBySpec spec{{"region", "sex"}, {{AggregateFunction::kCount, "*"}}};
  auto agg = GroupedAggregation::Compute(People(), spec);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->num_groups(), 4u);  // north/F north/M south/F south/M
}

TEST(GroupByTest, UnknownColumnFails) {
  GroupBySpec spec{{"nope"}, {{AggregateFunction::kCount, "*"}}};
  EXPECT_FALSE(GroupedAggregation::Compute(People(), spec).ok());
  GroupBySpec spec2{{"region"}, {{AggregateFunction::kSum, "nope"}}};
  EXPECT_FALSE(GroupedAggregation::Compute(People(), spec2).ok());
}

TEST(GroupByTest, StarOnlyValidForCount) {
  GroupBySpec spec{{"region"}, {{AggregateFunction::kSum, "*"}}};
  EXPECT_FALSE(GroupedAggregation::Compute(People(), spec).ok());
}

TEST(GroupByTest, MergeSpecMismatchFails) {
  GroupBySpec s1{{"region"}, {{AggregateFunction::kCount, "*"}}};
  GroupBySpec s2{{"sex"}, {{AggregateFunction::kCount, "*"}}};
  auto a = GroupedAggregation::Compute(People(), s1);
  auto b = GroupedAggregation::Compute(People(), s2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a->Merge(*b).ok());
}

TEST(GroupByTest, DefaultConstructedAdoptsSpecOnMerge) {
  GroupBySpec spec{{"region"}, {{AggregateFunction::kCount, "*"}}};
  auto a = GroupedAggregation::Compute(People(), spec);
  ASSERT_TRUE(a.ok());
  GroupedAggregation acc;
  EXPECT_TRUE(acc.Merge(*a).ok());
  EXPECT_EQ(acc.num_groups(), a->num_groups());
}

// Validity property (paper): distributed-and-merged == centralized, for the
// realistic health workload partitioned by contributor hash.
TEST(GroupByTest, PartitionedMergeEqualsCentralized) {
  data::HealthDataParams params;
  params.num_individuals = 2000;
  const data::TableView table =
      ViewOf(data::GenerateHealthColumns(params, 31));
  GroupBySpec spec{{"region", "sex"},
                   {{AggregateFunction::kCount, "*"},
                    {AggregateFunction::kAvg, "bmi"},
                    {AggregateFunction::kMin, "age"},
                    {AggregateFunction::kMax, "systolic_bp"},
                    {AggregateFunction::kVariance, "chronic_count"}}};

  auto central = GroupedAggregation::Compute(table, spec);
  ASSERT_TRUE(central.ok());

  const auto parts = HashPartitions(table, "contributor_id", 8);
  GroupedAggregation merged;
  for (const auto& p : parts) {
    auto partial = GroupedAggregation::Compute(p, spec);
    ASSERT_TRUE(partial.ok());
    ASSERT_TRUE(merged.Merge(*partial).ok());
  }

  Table a = merged.Finalize();
  Table b = central->Finalize();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.schema(), b.schema());
  for (size_t i = 0; i < a.num_rows(); ++i) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      const Value& va = a.row(i)[c];
      const Value& vb = b.row(i)[c];
      if (va.type() == data::ValueType::kDouble) {
        EXPECT_NEAR(va.AsDouble(), vb.AsDouble(),
                    1e-8 * std::max(1.0, std::abs(vb.AsDouble())));
      } else {
        EXPECT_EQ(va, vb);
      }
    }
  }
}

TEST(GroupByTest, SerializationRoundTrip) {
  GroupBySpec spec{{"region"},
                   {{AggregateFunction::kCount, "*"},
                    {AggregateFunction::kAvg, "bmi"}}};
  auto agg = GroupedAggregation::Compute(People(), spec);
  ASSERT_TRUE(agg.ok());
  Writer w;
  wire::Put(&w, *agg);
  Reader r(w.data());
  auto back = wire::Read<GroupedAggregation>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Finalize(), agg->Finalize());
}

// The bytes of an AggregateState over one value, held only in `sketch`:
// an HLL when `hll`, else a quantile sketch.
template <typename Sketch>
Bytes StateHolding(const Sketch& sketch, bool hll) {
  Writer w;
  w.PutVarint(1);                                // count
  for (int i = 0; i < 4; ++i) w.PutDouble(0.0);  // sum, sum_sq, min, max
  w.PutBool(false);                              // has_numeric
  w.PutBool(hll);
  if (hll) wire::Put(&w, sketch);
  w.PutBool(!hll);
  if (!hll) wire::Put(&w, sketch);
  return w.Take();
}

// A decoded partial for the one-aggregate `spec`: the group "north",
// holding `state`.
GroupedAggregation NorthPartial(const GroupBySpec& spec, const Bytes& state) {
  Writer w;
  wire::Put(&w, spec);
  w.PutVarint(1);  // groups
  w.PutVarint(1);  // key values
  Value("north").Serialize(&w);
  w.PutVarint(1);  // states
  w.PutRaw(state.data(), state.size());
  Reader r(w.data());
  auto out = wire::Read<GroupedAggregation>(&r);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(*out) : GroupedAggregation();
}

TEST(GroupByTest, MergeFailsOnForeignSketches) {
  // Computed partials carry the default HLL precision (10) and quantile
  // sketch width (128). A partial built with other ones cannot be united
  // with them: the merge must fail, not count the group as if its
  // sketch held no values.
  HyperLogLog hll(12);
  hll.AddHash(42);
  QuantileSketch sketch(16);
  sketch.Add(1.0);
  for (bool is_hll : {true, false}) {
    GroupBySpec spec{{"region"},
                     {{is_hll ? AggregateFunction::kCountDistinct
                              : AggregateFunction::kQuantile,
                       "bmi"}}};
    auto acc = GroupedAggregation::Compute(People(), spec);
    ASSERT_TRUE(acc.ok());
    const GroupedAggregation foreign = NorthPartial(
        spec, is_hll ? StateHolding(hll, true) : StateHolding(sketch, false));
    EXPECT_FALSE(acc->Merge(foreign).ok()) << (is_hll ? "HLL" : "sketch");
  }
}

// --- Grouping sets -----------------------------------------------------------

GroupingSetsSpec DemoSpec() {
  return GroupingSetsSpec{
      {{"region"}, {"sex"}, {"region", "sex"}},
      {{AggregateFunction::kCount, "*"}, {AggregateFunction::kAvg, "bmi"}}};
}

TEST(GroupingSetsTest, ColumnHelpers) {
  GroupingSetsSpec spec = DemoSpec();
  EXPECT_EQ(spec.AllKeyColumns(),
            (std::vector<std::string>{"region", "sex"}));
  EXPECT_EQ(spec.ColumnsForSet(0),
            (std::vector<std::string>{"region", "bmi"}));
  EXPECT_EQ(spec.AllColumns(),
            (std::vector<std::string>{"region", "sex", "bmi"}));
}

TEST(GroupingSetsTest, ComputeAllSets) {
  auto result = GroupingSetsResult::Compute(People(), DemoSpec());
  ASSERT_TRUE(result.ok());
  auto table = result->Finalize();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  // region: 2 groups, sex: 2 groups, region x sex: 4 groups.
  EXPECT_EQ(table->num_rows(), 8u);
  // grouping_set column present and first.
  EXPECT_EQ(table->schema().column(0).name, "grouping_set");
}

TEST(GroupingSetsTest, NullsForAbsentKeys) {
  auto result = GroupingSetsResult::Compute(People(), DemoSpec());
  ASSERT_TRUE(result.ok());
  auto table = result->Finalize();
  ASSERT_TRUE(table.ok());
  for (const auto& row : table->rows()) {
    int64_t set = row[0].AsInt64();
    bool region_null = row[1].is_null();
    bool sex_null = row[2].is_null();
    if (set == 0) {
      EXPECT_FALSE(region_null);
      EXPECT_TRUE(sex_null);
    } else if (set == 1) {
      EXPECT_TRUE(region_null);
      EXPECT_FALSE(sex_null);
    } else {
      EXPECT_FALSE(region_null);
      EXPECT_FALSE(sex_null);
    }
  }
}

TEST(GroupingSetsTest, PartialSetsAndStitching) {
  // Vertical partitioning: computer A evaluates sets {0}, computer B sets
  // {1, 2}; the combiner stitches.
  GroupingSetsSpec spec = DemoSpec();
  auto a = GroupingSetsResult::ComputeSets(People(), spec, {0});
  auto b = GroupingSetsResult::ComputeSets(People(), spec, {1, 2});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->HasSet(0));
  EXPECT_FALSE(a->HasSet(1));
  // Unstitched finalize fails (incomplete).
  EXPECT_FALSE(a->Finalize().ok());

  GroupingSetsResult acc;
  ASSERT_TRUE(acc.Merge(*a).ok());
  ASSERT_TRUE(acc.Merge(*b).ok());
  auto stitched = acc.Finalize();
  ASSERT_TRUE(stitched.ok());

  auto full = GroupingSetsResult::Compute(People(), spec);
  ASSERT_TRUE(full.ok());
  auto expected = full->Finalize();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*stitched, *expected);
}

TEST(GroupingSetsTest, MergeAcrossHorizontalPartitions) {
  data::HealthDataParams params;
  params.num_individuals = 1200;
  const data::TableView table =
      ViewOf(data::GenerateHealthColumns(params, 77));
  GroupingSetsSpec spec{
      {{"region"}, {"dependency"}},
      {{AggregateFunction::kCount, "*"}, {AggregateFunction::kAvg, "age"}}};

  auto central = GroupingSetsResult::Compute(table, spec);
  ASSERT_TRUE(central.ok());
  auto expected = central->Finalize();
  ASSERT_TRUE(expected.ok());

  const auto parts = HashPartitions(table, "contributor_id", 5);
  GroupingSetsResult acc;
  for (const auto& p : parts) {
    auto partial = GroupingSetsResult::Compute(p, spec);
    ASSERT_TRUE(partial.ok());
    ASSERT_TRUE(acc.Merge(*partial).ok());
  }
  auto merged = acc.Finalize();
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->num_rows(), expected->num_rows());
  for (size_t i = 0; i < merged->num_rows(); ++i) {
    for (size_t c = 0; c < merged->schema().num_columns(); ++c) {
      const Value& va = merged->row(i)[c];
      const Value& vb = expected->row(i)[c];
      if (va.type() == data::ValueType::kDouble) {
        EXPECT_NEAR(va.AsDouble(), vb.AsDouble(), 1e-9);
      } else {
        EXPECT_EQ(va, vb);
      }
    }
  }
}

TEST(GroupingSetsTest, SerializationRoundTrip) {
  auto result = GroupingSetsResult::Compute(People(), DemoSpec());
  ASSERT_TRUE(result.ok());
  Writer w;
  wire::Put(&w, *result);
  Reader r(w.data());
  auto back = wire::Read<GroupingSetsResult>(&r);
  ASSERT_TRUE(back.ok());
  auto t1 = result->Finalize();
  auto t2 = back->Finalize();
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(*t1, *t2);
}

TEST(GroupingSetsTest, PartialSerializationPreservesPresence) {
  auto a = GroupingSetsResult::ComputeSets(People(), DemoSpec(), {1});
  ASSERT_TRUE(a.ok());
  Writer w;
  wire::Put(&w, *a);
  Reader r(w.data());
  auto back = wire::Read<GroupingSetsResult>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->HasSet(0));
  EXPECT_TRUE(back->HasSet(1));
  EXPECT_FALSE(back->HasSet(2));
}

}  // namespace
}  // namespace edgelet::query
