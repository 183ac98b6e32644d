#include <gtest/gtest.h>

#include "privacy/exposure.h"
#include "privacy/vertical_partitioner.h"

namespace edgelet::privacy {
namespace {

using query::OperatorRole;
using query::Qep;

TEST(SeparationTest, ViolationDetection) {
  std::vector<SeparationConstraint> constraints = {{"age", "region"}};
  EXPECT_TRUE(ViolatesSeparation({"age", "region", "bmi"}, constraints));
  EXPECT_FALSE(ViolatesSeparation({"age", "bmi"}, constraints));
  EXPECT_FALSE(ViolatesSeparation({"region"}, constraints));
  EXPECT_FALSE(ViolatesSeparation({}, constraints));
}

TEST(VerticalPartitionerTest, NoConstraintsMergesIntoOneGroup) {
  auto r = PartitionAttributes({{"age", "bmi"}, {"region", "bmi"}}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 1u);
  EXPECT_EQ(r->set_to_group, (std::vector<size_t>{0, 0}));
}

TEST(VerticalPartitionerTest, ConstraintForcesSeparateGroups) {
  std::vector<SeparationConstraint> constraints = {{"age", "region"}};
  auto r = PartitionAttributes({{"age", "bmi"}, {"region", "bmi"}},
                               constraints);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->groups.size(), 2u);
  for (const auto& g : r->groups) {
    EXPECT_FALSE(ViolatesSeparation(g, constraints));
  }
  // bmi may legitimately appear in both groups.
}

TEST(VerticalPartitionerTest, CoAccessViolationIsPlanningError) {
  std::vector<SeparationConstraint> constraints = {{"age", "region"}};
  auto r = PartitionAttributes({{"age", "region"}}, constraints);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(VerticalPartitionerTest, SizeCapSplitsGroups) {
  auto r = PartitionAttributes({{"a", "b"}, {"c", "d"}}, {},
                               /*max_attributes_per_group=*/2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 2u);
}

TEST(VerticalPartitionerTest, SizeCapTooSmallFails) {
  auto r = PartitionAttributes({{"a", "b", "c"}}, {},
                               /*max_attributes_per_group=*/2);
  EXPECT_FALSE(r.ok());
}

TEST(VerticalPartitionerTest, EmptyInputFails) {
  EXPECT_FALSE(PartitionAttributes({}, {}).ok());
}

TEST(VerticalPartitionerTest, DuplicatesWithinSetDeduplicated) {
  auto r = PartitionAttributes({{"a", "a", "b"}}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups[0], (std::vector<std::string>{"a", "b"}));
}

TEST(VerticalPartitionerTest, ManyPairwiseConstraints) {
  // a,b,c pairwise separated: three singleton-based groups.
  std::vector<SeparationConstraint> constraints = {
      {"a", "b"}, {"a", "c"}, {"b", "c"}};
  auto r = PartitionAttributes({{"a", "x"}, {"b", "x"}, {"c", "x"}},
                               constraints);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->groups.size(), 3u);
  for (const auto& g : r->groups) {
    EXPECT_FALSE(ViolatesSeparation(g, constraints));
  }
}

// --- Exposure ------------------------------------------------------------

Qep PlanWithPartitions(int n, int m, std::vector<std::string> attrs) {
  Qep qep;
  qep.SetPartitioning(n, m);
  uint64_t querier = qep.AddVertex({.role = OperatorRole::kQuerier});
  uint64_t combiner = qep.AddVertex({.role = OperatorRole::kCombiner});
  EXPECT_TRUE(qep.AddEdge(combiner, querier).ok());
  for (int p = 0; p < n + m; ++p) {
    uint64_t sb = qep.AddVertex({.role = OperatorRole::kSnapshotBuilder,
                                 .partition = p,
                                 .attributes = attrs});
    uint64_t comp = qep.AddVertex({.role = OperatorRole::kComputer,
                                   .partition = p,
                                   .vgroup = 0,
                                   .attributes = attrs});
    EXPECT_TRUE(qep.AddEdge(sb, comp).ok());
    EXPECT_TRUE(qep.AddEdge(comp, combiner).ok());
  }
  return qep;
}

TEST(ExposureTest, HorizontalPartitioningBoundsTuples) {
  Qep qep1 = PlanWithPartitions(1, 0, {"age", "bmi"});
  Qep qep10 = PlanWithPartitions(10, 0, {"age", "bmi"});
  auto r1 = ComputeExposure(qep1, 2000);
  auto r10 = ComputeExposure(qep10, 2000);
  EXPECT_EQ(r1.max_tuples_per_edgelet, 2000u);
  EXPECT_EQ(r10.max_tuples_per_edgelet, 200u);
  EXPECT_DOUBLE_EQ(r1.worst_snapshot_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r10.worst_snapshot_fraction, 0.1);
}

TEST(ExposureTest, QuotaIsCeilOfCOverN) {
  Qep qep = PlanWithPartitions(3, 0, {"age"});
  auto r = ComputeExposure(qep, 1000);
  EXPECT_EQ(r.max_tuples_per_edgelet, 334u);  // ceil(1000/3)
}

TEST(ExposureTest, AggregatingOperatorsExposeNothing) {
  Qep qep = PlanWithPartitions(2, 1, {"age", "bmi"});
  auto r = ComputeExposure(qep, 100);
  for (const auto& op : r.per_operator) {
    if (op.role == "Combiner" || op.role == "Querier" ||
        op.role == "DataContributor") {
      EXPECT_EQ(op.tuples, 0u) << op.role;
    }
  }
}

TEST(ExposureTest, CellsReflectAttributeCount) {
  Qep wide = PlanWithPartitions(4, 0, {"a", "b", "c", "d"});
  Qep narrow = PlanWithPartitions(4, 0, {"a"});
  auto rw = ComputeExposure(wide, 400);
  auto rn = ComputeExposure(narrow, 400);
  EXPECT_EQ(rw.max_cells_per_edgelet, 400u);  // 100 tuples x 4 attrs
  EXPECT_EQ(rn.max_cells_per_edgelet, 100u);
}

TEST(ExposureTest, ValidateSeparationOnPlan) {
  std::vector<SeparationConstraint> constraints = {{"age", "region"}};
  Qep bad = PlanWithPartitions(2, 0, {"age", "region"});
  EXPECT_FALSE(ValidateSeparation(bad, constraints).ok());
  Qep good = PlanWithPartitions(2, 0, {"age", "bmi"});
  EXPECT_TRUE(ValidateSeparation(good, constraints).ok());
}

TEST(ExposureTest, ContributorsExemptFromSeparation) {
  // A contributor holds its own full record; that is not leakage.
  Qep qep;
  qep.AddVertex({.role = OperatorRole::kDataContributor,
                 .attributes = {"age", "region"}});
  EXPECT_TRUE(ValidateSeparation(qep, {{"age", "region"}}).ok());
}

// The contributor tier is one vertex standing for k devices: it is listed
// once, exposes no tuple, and leaves the plan's worst case to the
// processors.
TEST(ExposureTest, CountedContributorTierListedOnce) {
  Qep qep = PlanWithPartitions(2, 0, {"age", "bmi"});
  const auto base = ComputeExposure(qep, 100);
  qep.AddVertex({.role = OperatorRole::kDataContributor,
                 .attributes = {"age", "bmi"},
                 .count = 5000});
  const auto r = ComputeExposure(qep, 100);
  EXPECT_EQ(qep.CountByRole(OperatorRole::kDataContributor), 5000u);
  ASSERT_EQ(r.per_operator.size(), base.per_operator.size() + 1);
  size_t listed = 0;
  for (const auto& op : r.per_operator) {
    if (op.role != "DataContributor") continue;
    ++listed;
    EXPECT_EQ(op.tuples, 0u);
    EXPECT_EQ(op.cells, 0u);
  }
  EXPECT_EQ(listed, 1u);
  EXPECT_EQ(r.max_tuples_per_edgelet, base.max_tuples_per_edgelet);
  EXPECT_EQ(r.max_cells_per_edgelet, base.max_cells_per_edgelet);
  EXPECT_EQ(r.total_cells, base.total_cells);
  EXPECT_DOUBLE_EQ(r.worst_snapshot_fraction, base.worst_snapshot_fraction);
}

TEST(ExposureTest, ReportRendersKeyNumbers) {
  Qep qep = PlanWithPartitions(10, 2, {"age"});
  auto r = ComputeExposure(qep, 1000);
  std::string s = r.ToString();
  EXPECT_NE(s.find("100"), std::string::npos);
}

}  // namespace
}  // namespace edgelet::privacy
