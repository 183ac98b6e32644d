#include "data/generator.h"

#include <gtest/gtest.h>

#include <set>

namespace edgelet::data {
namespace {

TEST(GeneratorTest, ProducesRequestedCount) {
  HealthDataParams params;
  params.num_individuals = 500;
  Table t = GenerateHealthData(params, 1);
  EXPECT_EQ(t.num_rows(), 500u);
  EXPECT_EQ(t.schema(), HealthSchema());
}

TEST(GeneratorTest, DeterministicForSeed) {
  HealthDataParams params;
  params.num_individuals = 200;
  Table a = GenerateHealthData(params, 99);
  Table b = GenerateHealthData(params, 99);
  EXPECT_EQ(a, b);
  Table c = GenerateHealthData(params, 100);
  EXPECT_FALSE(a == c);
}

// Member k is row k - 1; CentralizedGroupingSets selects rows by it.
TEST(GeneratorTest, ContributorIdsUniqueAndSequential) {
  HealthDataParams params;
  params.num_individuals = 300;
  Table t = GenerateHealthData(params, 5);
  std::set<int64_t> ids;
  for (const auto& row : t.rows()) {
    EXPECT_EQ(row[0].AsInt64(), static_cast<int64_t>(ids.size() + 1));
    ids.insert(row[0].AsInt64());
  }
  EXPECT_EQ(ids.size(), 300u);
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), 300);
}

TEST(GeneratorTest, ValuesWithinDomain) {
  HealthDataParams params;
  params.num_individuals = 2000;
  params.min_age = 65;
  Table t = GenerateHealthData(params, 7);
  auto age_idx = t.schema().IndexOf("age");
  auto bmi_idx = t.schema().IndexOf("bmi");
  auto dep_idx = t.schema().IndexOf("dependency");
  auto sex_idx = t.schema().IndexOf("sex");
  ASSERT_TRUE(age_idx.ok() && bmi_idx.ok() && dep_idx.ok() && sex_idx.ok());
  for (const auto& row : t.rows()) {
    int64_t age = row[*age_idx].AsInt64();
    EXPECT_GE(age, 65);
    EXPECT_LE(age, 100);
    double bmi = row[*bmi_idx].AsDouble();
    EXPECT_GE(bmi, 14.0);
    EXPECT_LE(bmi, 45.0);
    int64_t dep = row[*dep_idx].AsInt64();
    EXPECT_GE(dep, 1);
    EXPECT_LE(dep, 6);
    const std::string& sex = row[*sex_idx].AsString();
    EXPECT_TRUE(sex == "F" || sex == "M");
  }
}

TEST(GeneratorTest, LatentProfilesCoverRequestedRange) {
  HealthDataParams params;
  params.num_individuals = 1000;
  params.num_profiles = 3;
  Table t = GenerateHealthData(params, 11);
  auto idx = t.schema().IndexOf("latent_profile");
  ASSERT_TRUE(idx.ok());
  std::set<int64_t> profiles;
  for (const auto& row : t.rows()) profiles.insert(row[*idx].AsInt64());
  EXPECT_EQ(profiles.size(), 3u);
  EXPECT_EQ(*profiles.begin(), 0);
  EXPECT_EQ(*profiles.rbegin(), 2);
}

TEST(GeneratorTest, ProfilesAreStatisticallySeparable) {
  // Frail profile (2) must have lower mean dependency than robust (0).
  HealthDataParams params;
  params.num_individuals = 4000;
  params.num_profiles = 3;
  Table t = GenerateHealthData(params, 13);
  auto dep_idx = *t.schema().IndexOf("dependency");
  auto prof_idx = *t.schema().IndexOf("latent_profile");
  double sum[3] = {0, 0, 0};
  int count[3] = {0, 0, 0};
  for (const auto& row : t.rows()) {
    int p = static_cast<int>(row[prof_idx].AsInt64());
    sum[p] += static_cast<double>(row[dep_idx].AsInt64());
    ++count[p];
  }
  ASSERT_GT(count[0], 0);
  ASSERT_GT(count[2], 0);
  EXPECT_GT(sum[0] / count[0], sum[2] / count[2] + 1.0);
}

TEST(GeneratorTest, NumericFeatureNamesExistInSchema) {
  Schema s = HealthSchema();
  for (const auto& f : HealthNumericFeatures()) {
    EXPECT_TRUE(s.Contains(f)) << f;
  }
}

}  // namespace
}  // namespace edgelet::data
