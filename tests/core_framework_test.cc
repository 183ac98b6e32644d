#include "core/framework.h"

#include <gtest/gtest.h>

#include <set>

namespace edgelet::core {
namespace {

using exec::Strategy;
using query::AggregateFunction;
using query::CompareOp;
using query::QueryKind;

query::Query HealthSurveyQuery(uint64_t id = 1) {
  query::Query q;
  q.query_id = id;
  q.name = "health survey";
  q.kind = QueryKind::kGroupingSets;
  q.predicates = {{"age", CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = 40;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}, {"sex"}},
      {{AggregateFunction::kCount, "*"}, {AggregateFunction::kAvg, "bmi"}}};
  return q;
}

query::Query ClusteringQuery(uint64_t id = 2) {
  query::Query q;
  q.query_id = id;
  q.name = "dependency clustering";
  q.kind = QueryKind::kKMeans;
  q.predicates = {{"age", CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = 60;
  q.kmeans.k = 3;
  q.kmeans.features = {"bmi", "systolic_bp"};
  q.kmeans.cluster_aggregates = {{AggregateFunction::kAvg, "dependency"}};
  return q;
}

FrameworkConfig StableConfig(uint64_t seed = 1) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 120;
  cfg.fleet.num_processors = 40;
  cfg.fleet.enable_churn = false;  // isolate from disconnections
  cfg.network.drop_probability = 0.0;
  cfg.seed = seed;
  return cfg;
}

exec::ExecutionConfig QuickExecution(uint64_t seed = 1) {
  exec::ExecutionConfig cfg;
  cfg.collection_window = 60 * kSecond;
  cfg.deadline = 10 * kMinute;
  cfg.combiner_margin = 60 * kSecond;
  cfg.heartbeat_period = 20 * kSecond;
  cfg.num_heartbeats = 6;
  cfg.inject_failures = false;
  cfg.seed = seed;
  return cfg;
}

// --- Planner --------------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : framework_(StableConfig()) {
    EXPECT_TRUE(framework_.Init().ok());
  }
  EdgeletFramework framework_;
};

TEST_F(PlannerTest, HorizontalPartitioningFromExposureCap) {
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = framework_.Plan(HealthSurveyQuery(), privacy, {},
                           Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->n, 4);  // ceil(40 / 10)
  EXPECT_EQ(d->quota, 10u);
  EXPECT_GT(d->m, 0);  // default 5% failure presumption needs overcollection
}

TEST_F(PlannerTest, NoCapMeansSinglePartition) {
  auto d = framework_.Plan(HealthSurveyQuery(), {}, {},
                           Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->n, 1);
  EXPECT_EQ(d->quota, 40u);
}

TEST_F(PlannerTest, OvercollectionGrowsWithFailureProbability) {
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  resilience::ResilienceConfig low{0.02, 0.99};
  resilience::ResilienceConfig high{0.25, 0.99};
  auto dl = framework_.Plan(HealthSurveyQuery(), privacy, low,
                            Strategy::kOvercollection);
  auto dh = framework_.Plan(HealthSurveyQuery(), privacy, high,
                            Strategy::kOvercollection);
  ASSERT_TRUE(dl.ok() && dh.ok());
  EXPECT_LT(dl->m, dh->m);
}

TEST_F(PlannerTest, SeparationConstraintSplitsVerticalGroups) {
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  privacy.separation = {{"region", "sex"}};
  auto d = framework_.Plan(HealthSurveyQuery(), privacy, {},
                           Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->vgroup_columns.size(), 2u);
  for (const auto& group : d->vgroup_columns) {
    EXPECT_FALSE(privacy::ViolatesSeparation(group, privacy.separation));
  }
  // Each grouping set is computed by exactly one vertical group.
  std::set<size_t> sets_covered;
  for (const auto& indices : d->vgroup_set_indices) {
    sets_covered.insert(indices.begin(), indices.end());
  }
  EXPECT_EQ(sets_covered.size(), 2u);
}

TEST_F(PlannerTest, ImpossibleSeparationFailsPlanning) {
  PrivacyConfig privacy;
  privacy.separation = {{"region", "bmi"}};  // AVG(bmi) BY region needs both
  auto d = framework_.Plan(HealthSurveyQuery(), privacy, {},
                           Strategy::kOvercollection);
  EXPECT_FALSE(d.ok());
}

TEST_F(PlannerTest, KMeansRefusesSeparatedFeatures) {
  PrivacyConfig privacy;
  privacy.separation = {{"bmi", "systolic_bp"}};
  auto d = framework_.Plan(ClusteringQuery(), privacy, {},
                           Strategy::kOvercollection);
  EXPECT_FALSE(d.ok());
}

TEST_F(PlannerTest, BackupStrategySizesReplicas) {
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 20;  // n = 2
  resilience::ResilienceConfig resilience{0.1, 0.99};
  auto d = framework_.Plan(HealthSurveyQuery(), privacy, resilience,
                           Strategy::kBackup);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->m, 0);
  EXPECT_GT(d->sb_groups[0][0].size(), 1u);  // replicated operators
  EXPECT_EQ(d->combiner_group.size(), d->sb_groups[0][0].size());
}

TEST_F(PlannerTest, OvercollectionUsesSingletonGroupsAndActiveBackup) {
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = framework_.Plan(HealthSurveyQuery(), privacy, {},
                           Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  for (const auto& partition : d->sb_groups) {
    for (const auto& group : partition) EXPECT_EQ(group.size(), 1u);
  }
  EXPECT_EQ(d->combiner_group.size(), 2u);  // Combiner + Active Backup
}

TEST_F(PlannerTest, DistinctDevicesPerOperator) {
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = framework_.Plan(HealthSurveyQuery(), privacy, {},
                           Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  std::set<net::NodeId> seen;
  auto check = [&seen](net::NodeId id) {
    EXPECT_TRUE(seen.insert(id).second) << "device reused: " << id;
  };
  for (const auto& p : d->sb_groups) {
    for (const auto& g : p) {
      for (auto id : g) check(id);
    }
  }
  for (const auto& p : d->computer_groups) {
    for (const auto& g : p) {
      for (auto id : g) check(id);
    }
  }
  for (auto id : d->combiner_group) check(id);
}

TEST_F(PlannerTest, PoolTooSmallFails) {
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 1;  // n = 40 partitions
  auto d = framework_.Plan(HealthSurveyQuery(), privacy, {},
                           Strategy::kOvercollection);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PlannerTest, QepShapeMatchesFigure3) {
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = framework_.Plan(HealthSurveyQuery(), privacy, {},
                           Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  const query::Qep& qep = d->qep;
  EXPECT_TRUE(qep.Validate().ok());
  EXPECT_EQ(qep.CountByRole(query::OperatorRole::kSnapshotBuilder),
            static_cast<size_t>(d->n + d->m));
  EXPECT_EQ(qep.CountByRole(query::OperatorRole::kCombiner), 1u);
  EXPECT_EQ(qep.CountByRole(query::OperatorRole::kCombinerBackup), 1u);
  EXPECT_EQ(qep.CountByRole(query::OperatorRole::kQuerier), 1u);
  EXPECT_EQ(qep.CountByRole(query::OperatorRole::kDataContributor), 120u);
}

// The contributor tier is one counted leaf: a plan over 5,000 contributor
// devices has as many vertices as one over 120, and the same exposure.
TEST_F(PlannerTest, PlanSizeIsIndependentOfCrowd) {
  FrameworkConfig big_cfg = StableConfig();
  big_cfg.fleet.num_contributors = 5000;
  big_cfg.data.num_individuals = 5000;
  EdgeletFramework big(big_cfg);
  ASSERT_TRUE(big.Init().ok());
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto small_plan = framework_.Plan(HealthSurveyQuery(), privacy, {},
                                    Strategy::kOvercollection);
  auto big_plan =
      big.Plan(HealthSurveyQuery(), privacy, {}, Strategy::kOvercollection);
  ASSERT_TRUE(small_plan.ok() && big_plan.ok());
  EXPECT_EQ(small_plan->qep.num_vertices(), big_plan->qep.num_vertices());
  EXPECT_EQ(
      small_plan->qep.CountByRole(query::OperatorRole::kDataContributor),
      120u);
  EXPECT_EQ(big_plan->qep.CountByRole(query::OperatorRole::kDataContributor),
            5000u);
  // Pinned from the one-vertex-per-contributor planner: the tier exposes
  // nothing, so folding it changes none of the four numbers.
  for (const auto* plan : {&*small_plan, &*big_plan}) {
    const privacy::ExposureReport e = Planner::Exposure(*plan);
    EXPECT_EQ(e.max_tuples_per_edgelet, 10u);
    EXPECT_EQ(e.max_cells_per_edgelet, 30u);
    EXPECT_EQ(e.total_cells, 420u);
    EXPECT_DOUBLE_EQ(e.worst_snapshot_fraction, 0.25);
  }
}

TEST_F(PlannerTest, ExposureDropsWithHorizontalPartitioning) {
  PrivacyConfig coarse;
  coarse.max_tuples_per_edgelet = 40;
  PrivacyConfig fine;
  fine.max_tuples_per_edgelet = 5;
  auto dc = framework_.Plan(HealthSurveyQuery(), coarse, {},
                            Strategy::kOvercollection);
  auto df = framework_.Plan(HealthSurveyQuery(), fine, {},
                            Strategy::kOvercollection);
  ASSERT_TRUE(dc.ok() && df.ok());
  auto ec = Planner::Exposure(*dc);
  auto ef = Planner::Exposure(*df);
  EXPECT_GT(ec.max_tuples_per_edgelet, ef.max_tuples_per_edgelet);
}

// --- End-to-end executions ---------------------------------------------------

TEST(FrameworkTest, InitBuildsPopulationAndFleet) {
  EdgeletFramework fw(StableConfig());
  ASSERT_TRUE(fw.Init().ok());
  EXPECT_EQ(fw.population_view().num_rows(), 120u);
  EXPECT_EQ(fw.fleet()->contributors().size(), 120u);
  EXPECT_NE(fw.querier_node(), 0u);
  // Double init rejected.
  EXPECT_FALSE(fw.Init().ok());
}

// Query id 0 is no valid tag: every message of an execution carries its
// id, and traffic is attributed by it. Execution rejects it, as the
// scheduler's Submit does, and the framework stays usable.
TEST(FrameworkTest, ExecuteRejectsQueryIdZero) {
  EdgeletFramework fw(StableConfig(11));
  ASSERT_TRUE(fw.Init().ok());
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = fw.Plan(HealthSurveyQuery(/*id=*/0), privacy, {},
                   Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  auto rejected = fw.Execute(*d, QuickExecution(11));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  // A rejected Execute keeps no half-started execution behind.
  EXPECT_EQ(fw.live_execution_count(), 0u);
  EXPECT_EQ(fw.last_execution(), nullptr);
  auto started = fw.StartExecution(*d, QuickExecution(11));
  ASSERT_FALSE(started.ok());
  EXPECT_TRUE(started.status().IsInvalidArgument());
  EXPECT_EQ(fw.live_execution_count(), 0u);

  d->query.query_id = 1;
  auto report = fw.Execute(*d, QuickExecution(11));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->success);
}

// A deployment whose shape or devices do not hold is rejected before any
// actor exists: the discarded execution leaves no scheduled event that
// would later fire into freed memory (framework_asan_smoke runs this).
TEST(FrameworkTest, RejectedStartLeavesNoEventBehind) {
  EdgeletFramework fw(StableConfig(11));
  ASSERT_TRUE(fw.Init().ok());
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = fw.Plan(HealthSurveyQuery(), privacy, {},
                   Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const size_t pending = fw.sim()->pending_events();

  exec::Deployment missing_device = *d;
  missing_device.computer_groups[0][0] = {987654};
  auto started = fw.StartExecution(missing_device, QuickExecution(11));
  ASSERT_FALSE(started.ok());
  EXPECT_TRUE(started.status().IsNotFound()) << started.status().ToString();
  EXPECT_EQ(fw.sim()->pending_events(), pending);
  auto executed = fw.Execute(missing_device, QuickExecution(11));
  ASSERT_FALSE(executed.ok());
  EXPECT_TRUE(executed.status().IsNotFound());
  EXPECT_EQ(fw.sim()->pending_events(), pending);
  EXPECT_EQ(fw.live_execution_count(), 0u);

  exec::Deployment short_grid = *d;
  short_grid.computer_groups.pop_back();
  started = fw.StartExecution(short_grid, QuickExecution(11));
  ASSERT_FALSE(started.ok());
  EXPECT_TRUE(started.status().IsInvalidArgument());
  EXPECT_EQ(fw.sim()->pending_events(), pending);

  // Whatever a rejected start left scheduled would fire here, into freed
  // actors.
  fw.sim()->RunUntil(fw.sim()->now() + 10 * kMinute);
  auto report = fw.Execute(*d, QuickExecution(11));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->success);
}

// The contribution plan resolves against the population store inside
// Start(): a projection naming a column the store lacks fails Start()
// before any actor exists, instead of every contributor sending nothing
// while the query runs to its deadline.
TEST(FrameworkTest, UnresolvableContributionPlanIsRejected) {
  EdgeletFramework fw(StableConfig(11));
  ASSERT_TRUE(fw.Init().ok());
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = fw.Plan(HealthSurveyQuery(), privacy, {},
                   Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const size_t pending = fw.sim()->pending_events();
  const size_t live = fw.live_execution_count();

  exec::Deployment missing_column = *d;
  missing_column.vgroup_columns[0].push_back("no_such_column");
  auto started = fw.StartExecution(missing_column, QuickExecution(11));
  ASSERT_FALSE(started.ok());
  EXPECT_TRUE(started.status().IsInvalidArgument())
      << started.status().ToString();
  EXPECT_EQ(fw.live_execution_count(), live);
  EXPECT_EQ(fw.sim()->pending_events(), pending);

  exec::Deployment bad_predicate = *d;
  bad_predicate.query.predicates = {
      {"no_such_column", CompareOp::kGt, data::Value(int64_t{1})}};
  started = fw.StartExecution(bad_predicate, QuickExecution(11));
  ASSERT_FALSE(started.ok());
  EXPECT_TRUE(started.status().IsInvalidArgument())
      << started.status().ToString();
  EXPECT_EQ(fw.live_execution_count(), live);
  EXPECT_EQ(fw.sim()->pending_events(), pending);

  // The framework stays usable.
  auto report = fw.Execute(*d, QuickExecution(11));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->success);
}

TEST(FrameworkTest, GroupingSetsEndToEndNoFailures) {
  EdgeletFramework fw(StableConfig(11));
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = HealthSurveyQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = fw.Plan(q, privacy, {}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  auto report = fw.Execute(*d, QuickExecution(11));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->success);
  EXPECT_LT(report->completion_time, 10 * kMinute);
  EXPECT_EQ(report->partitions_used.size(), static_cast<size_t>(d->n));
  // Each vertical chain's snapshot covers exactly C = n * quota rows.
  ASSERT_EQ(report->snapshot_contributors_by_vgroup.size(),
            d->vgroup_columns.size());
  EXPECT_EQ(report->snapshot_contributors_by_vgroup[0].size(),
            static_cast<size_t>(d->n) * d->quota);
  EXPECT_FALSE(report->result.empty());

  // Validity: distributed == centralized over the same snapshot.
  auto validity = fw.VerifyGroupingSets(*d, *report);
  ASSERT_TRUE(validity.ok()) << validity.status().ToString();
  EXPECT_TRUE(validity->valid) << validity->detail;
  EXPECT_GT(validity->rows_compared, 0u);
}

TEST(FrameworkTest, GroupingSetsWithVerticalPartitioning) {
  EdgeletFramework fw(StableConfig(13));
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = HealthSurveyQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  privacy.separation = {{"region", "sex"}};
  auto d = fw.Plan(q, privacy, {}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_EQ(d->vgroup_columns.size(), 2u);

  auto report = fw.Execute(*d, QuickExecution(13));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success);
  auto validity = fw.VerifyGroupingSets(*d, *report);
  ASSERT_TRUE(validity.ok());
  EXPECT_TRUE(validity->valid) << validity->detail;
}

TEST(FrameworkTest, SurvivesFailuresWithinPresumption) {
  EdgeletFramework fw(StableConfig(17));
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = HealthSurveyQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  resilience::ResilienceConfig resilience{0.15, 0.995};
  auto d = fw.Plan(q, privacy, resilience, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  exec::ExecutionConfig ec = QuickExecution(17);
  ec.inject_failures = true;
  ec.failure_probability = 0.15;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->success);
  auto validity = fw.VerifyGroupingSets(*d, *report);
  ASSERT_TRUE(validity.ok());
  EXPECT_TRUE(validity->valid) << validity->detail;
}

TEST(FrameworkTest, FailsWithoutOvercollectionOnSingleEarlyFailure) {
  EdgeletFramework fw(StableConfig(19));
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = HealthSurveyQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  // Plan for a benign world (m == 0)...
  resilience::ResilienceConfig optimistic{0.0, 0.5};
  auto d = fw.Plan(q, privacy, optimistic, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->m, 0);

  // ...then lose one snapshot builder before it can finish: with m = 0
  // every partition is a single point of failure.
  net::NodeId victim = d->sb_groups[0][0][0];
  fw.sim()->ScheduleAt(fw.sim()->now() + 1 * kSecond,
                       [&fw, victim]() { fw.network()->Kill(victim); });
  auto report = fw.Execute(*d, QuickExecution(19));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);

  // The same single failure is absorbed once the plan overcollects.
  EdgeletFramework fw2(StableConfig(19));
  ASSERT_TRUE(fw2.Init().ok());
  resilience::ResilienceConfig guarded{0.1, 0.99};
  auto d2 = fw2.Plan(q, privacy, guarded, Strategy::kOvercollection);
  ASSERT_TRUE(d2.ok());
  ASSERT_GT(d2->m, 0);
  net::NodeId victim2 = d2->sb_groups[0][0][0];
  fw2.sim()->ScheduleAt(fw2.sim()->now() + 1 * kSecond,
                        [&fw2, victim2]() { fw2.network()->Kill(victim2); });
  auto report2 = fw2.Execute(*d2, QuickExecution(19));
  ASSERT_TRUE(report2.ok());
  EXPECT_TRUE(report2->success);
}

TEST(FrameworkTest, BackupStrategyEndToEnd) {
  EdgeletFramework fw(StableConfig(23));
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = HealthSurveyQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 20;  // n = 2
  resilience::ResilienceConfig resilience{0.1, 0.99};
  auto d = fw.Plan(q, privacy, resilience, Strategy::kBackup);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  auto report = fw.Execute(*d, QuickExecution(23));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success);
  EXPECT_EQ(report->strategy, Strategy::kBackup);
  auto validity = fw.VerifyGroupingSets(*d, *report);
  ASSERT_TRUE(validity.ok());
  EXPECT_TRUE(validity->valid) << validity->detail;
}

TEST(FrameworkTest, BackupStrategyFailsOverOnLeaderDeath) {
  EdgeletFramework fw(StableConfig(29));
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = HealthSurveyQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 20;  // n = 2
  resilience::ResilienceConfig resilience{0.1, 0.99};
  auto d = fw.Plan(q, privacy, resilience, Strategy::kBackup);
  ASSERT_TRUE(d.ok());
  ASSERT_GT(d->sb_groups[0][0].size(), 1u);

  // Assassinate the rank-0 snapshot builder of partition 0 early, before
  // the snapshot completes.
  net::NodeId victim = d->sb_groups[0][0][0];
  fw.sim()->ScheduleAt(fw.sim()->now() + 5 * kSecond,
                       [&fw, victim]() { fw.network()->Kill(victim); });

  auto report = fw.Execute(*d, QuickExecution(29));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->success);  // a standby replica took over
  auto validity = fw.VerifyGroupingSets(*d, *report);
  ASSERT_TRUE(validity.ok());
  EXPECT_TRUE(validity->valid) << validity->detail;
}

TEST(FrameworkTest, KMeansEndToEnd) {
  EdgeletFramework fw(StableConfig(31));
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = ClusteringQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 20;  // n = 3
  auto d = fw.Plan(q, privacy, {}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  auto report = fw.Execute(*d, QuickExecution(31));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success);
  // Result: one row per cluster with centroid coordinates and aggregates.
  EXPECT_EQ(report->result.num_rows(), 3u);
  EXPECT_TRUE(report->result.schema().Contains("centroid_bmi"));
  EXPECT_TRUE(report->result.schema().Contains("AVG(dependency)"));

  // Accuracy: distributed centroids must be close to a centralized run on
  // all qualifying points.
  auto central = fw.CentralizedKMeans(q);
  ASSERT_TRUE(central.ok());
  auto points = fw.QualifyingPoints(q);
  ASSERT_TRUE(points.ok());

  ml::Matrix distributed;
  auto bmi_idx = report->result.schema().IndexOf("centroid_bmi");
  auto bp_idx = report->result.schema().IndexOf("centroid_systolic_bp");
  ASSERT_TRUE(bmi_idx.ok() && bp_idx.ok());
  for (const auto& row : report->result.rows()) {
    distributed.push_back(
        {row[*bmi_idx].AsDouble(), row[*bp_idx].AsDouble()});
  }
  auto ratio = ml::InertiaRatio(*points, distributed, central->centroids);
  ASSERT_TRUE(ratio.ok());
  EXPECT_LT(*ratio, 1.5) << "distributed clustering too far from central";
}

TEST(FrameworkTest, KMeansDegradesGracefullyUnderMessageLoss) {
  // Overcollection inflates the crowd requirement to ~(n+m)/n * C, so the
  // population must be large enough for every partition to fill its quota
  // even with 15% message loss.
  FrameworkConfig cfg = StableConfig(37);
  cfg.fleet.num_contributors = 400;
  cfg.fleet.num_processors = 80;
  cfg.network.drop_probability = 0.15;  // lossy links
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = ClusteringQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 20;
  resilience::ResilienceConfig resilience{0.3, 0.99};
  auto d = fw.Plan(q, privacy, resilience, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  auto report = fw.Execute(*d, QuickExecution(37));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Heartbeat progression means a result is still produced.
  EXPECT_TRUE(report->success);
}

TEST(FrameworkTest, SequentialQueriesOnOneFleet) {
  EdgeletFramework fw(StableConfig(41));
  ASSERT_TRUE(fw.Init().ok());
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  for (uint64_t qid = 1; qid <= 2; ++qid) {
    query::Query q = HealthSurveyQuery(qid);
    auto d = fw.Plan(q, privacy, {}, Strategy::kOvercollection);
    ASSERT_TRUE(d.ok());
    auto report = fw.Execute(*d, QuickExecution(41 + qid));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->success) << "query " << qid;
  }
}

TEST(FrameworkTest, ReportsExposureAndTraffic) {
  EdgeletFramework fw(StableConfig(43));
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = HealthSurveyQuery();
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 10;
  auto d = fw.Plan(q, privacy, {}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  auto report = fw.Execute(*d, QuickExecution(43));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->success);
  EXPECT_GT(report->messages_sent, 0u);
  EXPECT_GT(report->bytes_sent, 0u);
  // Observed exposure never exceeds what a builder legitimately collects:
  // contributions can arrive beyond the quota, but they are dropped; the
  // recorded ceiling stays within a small multiple of the quota.
  EXPECT_GT(report->max_observed_exposure_tuples, 0u);
}

TEST(CompareResultTablesTest, DetectsMismatches) {
  data::Schema schema({{"k", data::ValueType::kString},
                       {"v", data::ValueType::kDouble}});
  data::Table a(schema), b(schema), c(schema), d(schema);
  ASSERT_TRUE(a.Append({data::Value("x"), data::Value(1.0)}).ok());
  ASSERT_TRUE(b.Append({data::Value("x"), data::Value(1.0 + 1e-12)}).ok());
  ASSERT_TRUE(c.Append({data::Value("x"), data::Value(2.0)}).ok());
  ASSERT_TRUE(d.Append({data::Value("y"), data::Value(1.0)}).ok());

  EXPECT_TRUE(CompareResultTables(a, b).valid);   // within tolerance
  EXPECT_FALSE(CompareResultTables(a, c).valid);  // numeric mismatch
  EXPECT_FALSE(CompareResultTables(a, d).valid);  // key mismatch
  data::Table empty(schema);
  EXPECT_FALSE(CompareResultTables(a, empty).valid);  // row count
}

// The centralized rerun selects the same rows as a scan of the store's id
// column: keys in any order, repeated or naming nobody.
TEST(FrameworkTest, CentralizedGroupingSetsSelectsTheContributorsRows) {
  EdgeletFramework fw(StableConfig(3));
  ASSERT_TRUE(fw.Init().ok());
  const query::Query q = HealthSurveyQuery();
  const std::vector<uint64_t> keys = {97, 5, 64, 5, 0, 12, 121, 1, 120, 33,
                                      1000, 64};
  auto central = fw.CentralizedGroupingSets(q, keys, {});
  ASSERT_TRUE(central.ok()) << central.status().ToString();

  const auto& store = fw.population_store();
  auto id_idx = store->schema().IndexOf(data::kContributorIdColumn);
  ASSERT_TRUE(id_idx.ok());
  const std::vector<int64_t>& ids = store->Int64Column(*id_idx);
  const std::set<uint64_t> wanted(keys.begin(), keys.end());
  std::vector<uint32_t> scanned;
  for (size_t r = 0; r < ids.size(); ++r) {
    if (wanted.count(static_cast<uint64_t>(ids[r])) > 0) {
      scanned.push_back(static_cast<uint32_t>(r));
    }
  }
  ASSERT_EQ(scanned.size(), 7u);  // of 120 members: 1 5 12 33 64 97 120
  auto reference = query::GroupingSetsResult::Compute(
      data::TableView(store, std::move(scanned)), q.grouping_sets);
  ASSERT_TRUE(reference.ok());
  auto got = central->Finalize();
  auto want = reference->Finalize();
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(*got, *want);
}

}  // namespace
}  // namespace edgelet::core
