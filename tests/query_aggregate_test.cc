#include "query/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace edgelet::query {
namespace {

using data::Value;

AggregateState StateOf(const std::vector<double>& values) {
  AggregateState s;
  for (double v : values) EXPECT_TRUE(s.Add(Value(v)).ok());
  return s;
}

TEST(AggregateSpecTest, OutputName) {
  EXPECT_EQ((AggregateSpec{AggregateFunction::kAvg, "bmi"}).OutputName(),
            "AVG(bmi)");
  EXPECT_EQ((AggregateSpec{AggregateFunction::kCount, "*"}).OutputName(),
            "COUNT(*)");
}

TEST(AggregateSpecTest, SerializationRoundTrip) {
  AggregateSpec spec{AggregateFunction::kVariance, "systolic_bp"};
  Writer w;
  wire::Put(&w, spec);
  Reader r(w.data());
  auto back = wire::Read<AggregateSpec>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, spec);
}

TEST(AggregateStateTest, CountSumMinMaxAvg) {
  AggregateState s = StateOf({2.0, 4.0, 6.0});
  EXPECT_EQ(s.Finalize(AggregateFunction::kCount).AsInt64(), 3);
  EXPECT_DOUBLE_EQ(s.Finalize(AggregateFunction::kSum).AsDouble(), 12.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggregateFunction::kMin).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggregateFunction::kMax).AsDouble(), 6.0);
  EXPECT_DOUBLE_EQ(s.Finalize(AggregateFunction::kAvg).AsDouble(), 4.0);
}

TEST(AggregateStateTest, VarianceAndStdDev) {
  AggregateState s = StateOf({1.0, 2.0, 3.0, 4.0});
  // Population variance of {1,2,3,4} = 1.25.
  EXPECT_NEAR(s.Finalize(AggregateFunction::kVariance).AsDouble(), 1.25,
              1e-12);
  EXPECT_NEAR(s.Finalize(AggregateFunction::kStdDev).AsDouble(),
              std::sqrt(1.25), 1e-12);
}

TEST(AggregateStateTest, IntValuesWiden) {
  AggregateState s;
  ASSERT_TRUE(s.Add(Value(int64_t{10})).ok());
  ASSERT_TRUE(s.Add(Value(int64_t{20})).ok());
  EXPECT_DOUBLE_EQ(s.Finalize(AggregateFunction::kAvg).AsDouble(), 15.0);
}

TEST(AggregateStateTest, NullsIgnoredExceptCountStar) {
  AggregateState s;
  ASSERT_TRUE(s.Add(Value(1.0)).ok());
  ASSERT_TRUE(s.Add(Value::Null()).ok());
  EXPECT_EQ(s.Finalize(AggregateFunction::kCount).AsInt64(), 1);

  AggregateState star;
  ASSERT_TRUE(star.Add(Value(1.0), true).ok());
  ASSERT_TRUE(star.Add(Value::Null(), true).ok());
  EXPECT_EQ(star.Finalize(AggregateFunction::kCount).AsInt64(), 2);
}

TEST(AggregateStateTest, EmptyStateFinalizes) {
  AggregateState s;
  EXPECT_EQ(s.Finalize(AggregateFunction::kCount).AsInt64(), 0);
  EXPECT_TRUE(s.Finalize(AggregateFunction::kSum).is_null());
  EXPECT_TRUE(s.Finalize(AggregateFunction::kMin).is_null());
  EXPECT_TRUE(s.Finalize(AggregateFunction::kAvg).is_null());
  EXPECT_TRUE(s.Finalize(AggregateFunction::kVariance).is_null());
}

TEST(AggregateStateTest, StringsCountOnly) {
  AggregateState s;
  ASSERT_TRUE(s.Add(Value("abc")).ok());
  EXPECT_EQ(s.Finalize(AggregateFunction::kCount).AsInt64(), 1);
  EXPECT_TRUE(s.Finalize(AggregateFunction::kSum).is_null());
}

// The key property behind Overcollection validity: merging partition
// partials equals computing on the union.
TEST(AggregateStateTest, MergeEqualsUnion) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> all;
    std::vector<AggregateState> parts(4);
    AggregateState whole;
    for (int i = 0; i < 100; ++i) {
      double v = rng.NextGaussian(50, 20);
      all.push_back(v);
      ASSERT_TRUE(parts[rng.NextBelow(4)].Add(Value(v)).ok());
      ASSERT_TRUE(whole.Add(Value(v)).ok());
    }
    AggregateState merged;
    for (const auto& p : parts) ASSERT_TRUE(merged.Merge(p).ok());
    for (auto fn : {AggregateFunction::kCount, AggregateFunction::kSum,
                    AggregateFunction::kMin, AggregateFunction::kMax,
                    AggregateFunction::kAvg, AggregateFunction::kVariance}) {
      Value a = merged.Finalize(fn);
      Value b = whole.Finalize(fn);
      if (fn == AggregateFunction::kCount) {
        EXPECT_EQ(a.AsInt64(), b.AsInt64());
      } else {
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(),
                    1e-9 * std::max(1.0, std::abs(b.AsDouble())));
      }
    }
  }
}

TEST(AggregateStateTest, MergeWithEmptyIsIdentity) {
  AggregateState s = StateOf({5.0, 7.0});
  AggregateState empty;
  AggregateState merged = s;
  ASSERT_TRUE(merged.Merge(empty).ok());
  EXPECT_EQ(merged, s);
  AggregateState other;
  ASSERT_TRUE(other.Merge(s).ok());
  EXPECT_EQ(other, s);
}

TEST(AggregateStateTest, SerializationRoundTrip) {
  AggregateState s = StateOf({1.5, -2.5, 100.0});
  Writer w;
  wire::Put(&w, s);
  Reader r(w.data());
  auto back = wire::Read<AggregateState>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
}

// Property sweep: merge-equals-union must hold for every function across
// random splits.
class AggregateMergeProperty
    : public ::testing::TestWithParam<AggregateFunction> {};

TEST_P(AggregateMergeProperty, MergeCommutesWithUnion) {
  AggregateFunction fn = GetParam();
  Rng rng(static_cast<uint64_t>(fn) + 99);
  std::vector<AggregateState> parts(7);
  AggregateState whole;
  for (int i = 0; i < 500; ++i) {
    double v = rng.NextDouble(-100, 100);
    ASSERT_TRUE(parts[rng.NextBelow(7)].Add(Value(v)).ok());
    ASSERT_TRUE(whole.Add(Value(v)).ok());
  }
  // Merge in a scrambled order — merging must be order-independent.
  AggregateState merged;
  std::vector<int> order{3, 0, 6, 2, 5, 1, 4};
  for (int i : order) ASSERT_TRUE(merged.Merge(parts[i]).ok());
  Value a = merged.Finalize(fn);
  Value b = whole.Finalize(fn);
  if (fn == AggregateFunction::kCount) {
    EXPECT_EQ(a.AsInt64(), b.AsInt64());
  } else {
    EXPECT_NEAR(a.AsDouble(), b.AsDouble(),
                1e-8 * std::max(1.0, std::abs(b.AsDouble())));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, AggregateMergeProperty,
    ::testing::Values(AggregateFunction::kCount, AggregateFunction::kSum,
                      AggregateFunction::kMin, AggregateFunction::kMax,
                      AggregateFunction::kAvg, AggregateFunction::kVariance,
                      AggregateFunction::kStdDev));

}  // namespace
}  // namespace edgelet::query
