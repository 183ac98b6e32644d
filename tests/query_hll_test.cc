#include "query/hll.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "data/generator.h"
#include "query/groupby.h"
#include "table_views.h"

namespace edgelet::query {
namespace {

using testutil::HashPartitions;
using testutil::ViewOf;

TEST(HllTest, EmptyEstimatesZero) {
  HyperLogLog hll;
  EXPECT_DOUBLE_EQ(hll.Estimate(), 0.0);
}

TEST(HllTest, PrecisionClamped) {
  EXPECT_EQ(HyperLogLog(2).precision(), 4);
  EXPECT_EQ(HyperLogLog(20).precision(), 16);
  EXPECT_EQ(HyperLogLog(10).num_registers(), 1024u);
}

TEST(HllTest, SmallCardinalitiesNearExact) {
  // Linear counting regime: estimates should be within ~2%.
  for (int n : {1, 5, 10, 50, 100}) {
    HyperLogLog hll(12);
    for (int i = 0; i < n; ++i) {
      hll.AddHash(Mix64(static_cast<uint64_t>(i) + 1));
    }
    EXPECT_NEAR(hll.Estimate(), n, std::max(1.0, 0.03 * n)) << n;
  }
}

TEST(HllTest, LargeCardinalityWithinErrorBound) {
  // Standard error ~ 1.04/sqrt(2^p); allow 4 sigma.
  const int kPrecision = 12;
  const int kN = 200000;
  HyperLogLog hll(kPrecision);
  for (int i = 0; i < kN; ++i) {
    hll.AddHash(Mix64(static_cast<uint64_t>(i) + 7));
  }
  double sigma = 1.04 / std::sqrt(static_cast<double>(1 << kPrecision));
  EXPECT_NEAR(hll.Estimate(), kN, 4 * sigma * kN);
}

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 20; ++i) {
      hll.AddHash(Mix64(static_cast<uint64_t>(i) + 1));
    }
  }
  EXPECT_NEAR(hll.Estimate(), 20, 2.0);
}

TEST(HllTest, MergeEqualsUnion) {
  Rng rng(5);
  HyperLogLog a(11), b(11), whole(11);
  std::set<uint64_t> truth;
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextBelow(3000);  // overlapping sets
    uint64_t h = Mix64(v + 1);
    truth.insert(v);
    if (i % 2 == 0) {
      a.AddHash(h);
    } else {
      b.AddHash(h);
    }
    whole.AddHash(h);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), whole.Estimate());
  EXPECT_NEAR(a.Estimate(), static_cast<double>(truth.size()),
              0.15 * truth.size());
}

TEST(HllTest, MergePrecisionMismatchFails) {
  HyperLogLog a(10), b(12);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(HllTest, SerializationRoundTrip) {
  HyperLogLog hll(10);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) hll.AddHash(rng.NextU64());
  Writer w;
  hll.Serialize(&w);
  Reader r(w.data());
  auto back = HyperLogLog::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, hll);
  EXPECT_TRUE(r.AtEnd());
}

TEST(HllTest, EmptySketchSerializesSmall) {
  HyperLogLog hll(12);  // 4096 registers, all zero
  Writer w;
  hll.Serialize(&w);
  EXPECT_LT(w.size(), 16u);  // run-length encoded
}

TEST(HllTest, DeserializeRejectsCorruption) {
  Writer w;
  w.PutU8(10);
  w.PutU8(1);
  w.PutVarint(5000);  // run longer than register file
  Reader r(w.data());
  EXPECT_FALSE(HyperLogLog::Deserialize(&r).ok());
}

// --- COUNT DISTINCT through the aggregation engine ---------------------------

TEST(CountDistinctTest, ExactForSmallGroups) {
  data::Schema schema({{"region", data::ValueType::kString},
                       {"person", data::ValueType::kInt64}});
  data::Table t(schema);
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(t.Append({data::Value(i % 2 ? "north" : "south"),
                          data::Value(i % 10)})  // 10 distinct per region
                    .ok());
  }
  GroupBySpec spec{{"region"},
                   {{AggregateFunction::kCountDistinct, "person"},
                    {AggregateFunction::kCount, "person"}}};
  auto agg = GroupedAggregation::Compute(ViewOf(t), spec);
  ASSERT_TRUE(agg.ok());
  data::Table out = agg->Finalize();
  ASSERT_EQ(out.num_rows(), 2u);
  for (const auto& row : out.rows()) {
    EXPECT_EQ(row[1].AsInt64(), 5);   // 5 distinct persons per region
    EXPECT_EQ(row[2].AsInt64(), 15);  // 15 rows per region
  }
}

TEST(CountDistinctTest, MergeAcrossPartitionsMatchesCentralized) {
  data::HealthDataParams params;
  params.num_individuals = 3000;
  const data::TableView table =
      ViewOf(data::GenerateHealthColumns(params, 9));
  GroupBySpec spec{{}, {{AggregateFunction::kCountDistinct, "dependency"}}};

  auto central = GroupedAggregation::Compute(table, spec);
  ASSERT_TRUE(central.ok());

  const auto parts = HashPartitions(table, "contributor_id", 6);
  GroupedAggregation merged;
  for (const auto& p : parts) {
    auto partial = GroupedAggregation::Compute(p, spec);
    ASSERT_TRUE(partial.ok());
    ASSERT_TRUE(merged.Merge(*partial).ok());
  }
  // Sketch merging is exact: identical registers, identical estimate.
  EXPECT_EQ(merged.Finalize(), central->Finalize());
  // And dependency has 6 distinct levels.
  EXPECT_EQ(central->Finalize().row(0)[0].AsInt64(), 6);
}

TEST(CountDistinctTest, NullsIgnored) {
  AggregateState s;
  s.AddDistinct(data::Value::Null());
  EXPECT_EQ(s.Finalize(AggregateFunction::kCountDistinct).AsInt64(), 0);
  s.AddDistinct(data::Value("x"));
  s.AddDistinct(data::Value("x"));
  EXPECT_EQ(s.Finalize(AggregateFunction::kCountDistinct).AsInt64(), 1);
}

TEST(CountDistinctTest, SerializationCarriesSketch) {
  AggregateState s;
  for (int i = 0; i < 100; ++i) {
    s.AddDistinct(data::Value(static_cast<int64_t>(i)));
  }
  Writer w;
  wire::Put(&w, s);
  Reader r(w.data());
  auto back = wire::Read<AggregateState>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Finalize(AggregateFunction::kCountDistinct),
            s.Finalize(AggregateFunction::kCountDistinct));
}

TEST(CountDistinctTest, StarRejected) {
  data::Schema schema({{"x", data::ValueType::kInt64}});
  data::Table t(schema);
  GroupBySpec spec{{}, {{AggregateFunction::kCountDistinct, "*"}}};
  EXPECT_FALSE(GroupedAggregation::Compute(ViewOf(t), spec).ok());
}

}  // namespace
}  // namespace edgelet::query
