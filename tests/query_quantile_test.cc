#include "query/quantile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "data/generator.h"
#include "query/groupby.h"
#include "table_views.h"

namespace edgelet::query {
namespace {

using testutil::HashPartitions;
using testutil::ViewOf;

// Exact quantile of a sample, by sorting.
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::min<double>(q * values.size(), values.size() - 1));
  return values[rank];
}

TEST(QuantileSketchTest, EmptyFails) {
  QuantileSketch s;
  EXPECT_FALSE(s.Quantile(0.5).ok());
  EXPECT_EQ(s.count(), 0u);
}

TEST(QuantileSketchTest, ExactWhileUncompacted) {
  QuantileSketch s(128);
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 100u);
  EXPECT_NEAR(*s.Quantile(0.0), 1.0, 1.0);
  EXPECT_NEAR(*s.Quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(*s.Quantile(1.0), 100.0, 0.0);
}

TEST(QuantileSketchTest, ApproximatesLargeStreams) {
  QuantileSketch s(128);
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) {
    double v = rng.NextGaussian(100, 15);
    values.push_back(v);
    s.Add(v);
  }
  EXPECT_LT(s.RetainedItems(), 3000u);  // actually sketching
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double exact = ExactQuantile(values, q);
    auto approx = s.Quantile(q);
    ASSERT_TRUE(approx.ok());
    // Rank error tolerance: compare by value with a generous band (the
    // distribution is smooth, so small rank error => small value error).
    EXPECT_NEAR(*approx, exact, 2.0) << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeApproximatesUnion) {
  Rng rng(7);
  QuantileSketch a(128), b(128);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.NextDouble(0, 1000);
    all.push_back(v);
    (i % 2 ? a : b).Add(v);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.count(), 20000u);
  for (double q : {0.25, 0.5, 0.75}) {
    EXPECT_NEAR(*a.Quantile(q), ExactQuantile(all, q), 25.0) << q;
  }
}

TEST(QuantileSketchTest, MergeWidthMismatchFails) {
  QuantileSketch a(64), b(128);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(QuantileSketchTest, SerializationRoundTrip) {
  QuantileSketch s(64);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) s.Add(rng.NextGaussian());
  Writer w;
  wire::Put(&w, s);
  Reader r(w.data());
  auto back = wire::Read<QuantileSketch>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
  EXPECT_DOUBLE_EQ(*back->Quantile(0.5), *s.Quantile(0.5));
}

TEST(QuantileSketchTest, DeserializeRejectsCorruption) {
  Writer w;
  w.PutVarint(64);   // k
  w.PutVarint(10);   // count
  w.PutVarint(100);  // absurd level count
  Reader r(w.data());
  EXPECT_FALSE(wire::Read<QuantileSketch>(&r).ok());
}

TEST(QuantileSketchTest, QuantileClamped) {
  QuantileSketch s;
  s.Add(1.0);
  s.Add(2.0);
  EXPECT_TRUE(s.Quantile(-0.5).ok());
  EXPECT_TRUE(s.Quantile(1.5).ok());
}

// --- QUANTILE through the aggregation engine -------------------------------

TEST(QuantileAggregateTest, OutputNameEncodesRank) {
  AggregateSpec median{AggregateFunction::kQuantile, "bmi", 0.5};
  EXPECT_EQ(median.OutputName(), "Q50(bmi)");
  AggregateSpec p90{AggregateFunction::kQuantile, "bmi", 0.9};
  EXPECT_EQ(p90.OutputName(), "Q90(bmi)");
}

TEST(QuantileAggregateTest, SpecSerializationCarriesParameter) {
  AggregateSpec spec{AggregateFunction::kQuantile, "age", 0.75};
  Writer w;
  wire::Put(&w, spec);
  Reader r(w.data());
  auto back = wire::Read<AggregateSpec>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, spec);
}

TEST(QuantileAggregateTest, MedianPerGroup) {
  data::Schema schema({{"g", data::ValueType::kString},
                       {"v", data::ValueType::kDouble}});
  data::Table t(schema);
  for (int i = 1; i <= 99; ++i) {
    ASSERT_TRUE(t.Append({data::Value("a"),
                          data::Value(static_cast<double>(i))}).ok());
  }
  GroupBySpec spec{{"g"}, {{AggregateFunction::kQuantile, "v", 0.5}}};
  auto agg = GroupedAggregation::Compute(ViewOf(t), spec);
  ASSERT_TRUE(agg.ok());
  data::Table out = agg->Finalize();
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_NEAR(out.row(0)[1].AsDouble(), 50.0, 1.0);
  EXPECT_EQ(out.schema().column(1).name, "Q50(v)");
}

TEST(QuantileAggregateTest, MergeAcrossPartitionsStaysAccurate) {
  data::HealthDataParams params;
  params.num_individuals = 4000;
  const data::TableView table =
      ViewOf(data::GenerateHealthColumns(params, 21));
  GroupBySpec spec{{}, {{AggregateFunction::kQuantile, "bmi", 0.5}}};

  auto bmi = table.schema().IndexOf("bmi");
  ASSERT_TRUE(bmi.ok());
  std::vector<double> exact_values;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    exact_values.push_back(table.ValueAt(r, *bmi).AsDouble());
  }
  double exact = ExactQuantile(exact_values, 0.5);

  const auto parts = HashPartitions(table, "contributor_id", 8);
  GroupedAggregation merged;
  for (const auto& p : parts) {
    auto partial = GroupedAggregation::Compute(p, spec);
    ASSERT_TRUE(partial.ok());
    ASSERT_TRUE(merged.Merge(*partial).ok());
  }
  data::Table out = merged.Finalize();
  EXPECT_NEAR(out.row(0)[0].AsDouble(), exact, 0.5);
}

TEST(QuantileAggregateTest, NullIgnoredStringFails) {
  AggregateState s;
  ASSERT_TRUE(s.AddQuantile(data::Value::Null()).ok());
  EXPECT_TRUE(s.Finalize(AggregateFunction::kQuantile).is_null());
  EXPECT_FALSE(s.AddQuantile(data::Value("oops")).ok());
}

TEST(QuantileAggregateTest, StateSerializationCarriesSketch) {
  AggregateState s;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        s.AddQuantile(data::Value(static_cast<double>(i))).ok());
  }
  Writer w;
  wire::Put(&w, s);
  Reader r(w.data());
  auto back = wire::Read<AggregateState>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
}

}  // namespace
}  // namespace edgelet::query
