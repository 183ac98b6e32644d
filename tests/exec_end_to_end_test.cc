// Parameterized end-to-end sweeps: every combination of resiliency
// strategy, vertical partitioning, and failure injection must deliver a
// valid result when the plan's presumption covers the injected rate.

#include <gtest/gtest.h>

#include "core/framework.h"

namespace edgelet::core {
namespace {

using exec::Strategy;
using query::AggregateFunction;
using query::CompareOp;

struct SweepCase {
  std::string label;
  Strategy strategy;
  bool separate_attributes;
  double failure_probability;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  return info.param.label;
}

class EndToEndSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EndToEndSweep, DeliversValidResultWithinPresumption) {
  const SweepCase& param = GetParam();

  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 400;
  cfg.fleet.num_processors = 120;
  cfg.fleet.enable_churn = false;
  cfg.seed = 1234;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());

  query::Query q;
  q.query_id = 77;
  q.kind = query::QueryKind::kGroupingSets;
  q.predicates = {{"age", CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = 60;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}, {"sex"}},
      {{AggregateFunction::kCount, "*"},
       {AggregateFunction::kAvg, "bmi"},
       {AggregateFunction::kMax, "systolic_bp"}}};

  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 20;  // n = 3
  if (param.separate_attributes) {
    privacy.separation = {{"region", "sex"}};
  }
  resilience::ResilienceConfig resilience{
      std::max(param.failure_probability, 0.05), 0.995};

  auto d = fw.Plan(q, privacy, resilience, param.strategy);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  if (param.separate_attributes) {
    EXPECT_EQ(d->vgroup_columns.size(), 2u);
  }

  exec::ExecutionConfig ec;
  ec.collection_window = 60 * kSecond;
  ec.deadline = 8 * kMinute;
  ec.inject_failures = param.failure_probability > 0;
  ec.failure_probability = param.failure_probability;
  ec.seed = 99;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success) << param.label;

  auto validity = fw.VerifyGroupingSets(*d, *report);
  ASSERT_TRUE(validity.ok()) << validity.status().ToString();
  EXPECT_TRUE(validity->valid) << validity->detail;
  EXPECT_GT(validity->rows_compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyPrivacyFailureMatrix, EndToEndSweep,
    ::testing::Values(
        SweepCase{"over_flat_clean", Strategy::kOvercollection, false, 0.0},
        SweepCase{"over_flat_faulty", Strategy::kOvercollection, false, 0.1},
        SweepCase{"over_vertical_clean", Strategy::kOvercollection, true,
                  0.0},
        SweepCase{"over_vertical_faulty", Strategy::kOvercollection, true,
                  0.1},
        SweepCase{"backup_flat_clean", Strategy::kBackup, false, 0.0},
        SweepCase{"backup_flat_faulty", Strategy::kBackup, false, 0.1},
        SweepCase{"backup_vertical_clean", Strategy::kBackup, true, 0.0},
        SweepCase{"backup_vertical_faulty", Strategy::kBackup, true, 0.1}),
    CaseName);

// Sketch-based aggregates (COUNT DISTINCT, QUANTILE) through the full
// distributed path. Sketches merge deterministically, and the per-vgroup
// centralized rerun rebuilds sketches over the same rows — but in a
// different insertion order, so the comparison uses the estimates, not
// byte equality. COUNT DISTINCT over few distinct values is exact; the
// median lands within the sketch's rank error.
TEST(SketchAggregatesEndToEnd, DistinctAndQuantileFlowThrough) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 400;
  cfg.fleet.num_processors = 60;
  cfg.fleet.enable_churn = false;
  cfg.seed = 777;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());

  query::Query q;
  q.query_id = 88;
  q.kind = query::QueryKind::kGroupingSets;
  q.predicates = {{"age", CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = 90;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"sex"}},
      {{AggregateFunction::kCount, "*"},
       {AggregateFunction::kCountDistinct, "dependency"},
       {AggregateFunction::kQuantile, "bmi", 0.5}}};

  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 30;  // n = 3
  auto d = fw.Plan(q, privacy, {0.05, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();

  exec::ExecutionConfig ec;
  ec.collection_window = 60 * kSecond;
  ec.deadline = 8 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->success);

  ASSERT_EQ(report->result.num_rows(), 2u);  // F / M
  auto cd_idx = report->result.schema().IndexOf("COUNT_DISTINCT(dependency)");
  auto q_idx = report->result.schema().IndexOf("Q50(bmi)");
  ASSERT_TRUE(cd_idx.ok() && q_idx.ok());
  for (const auto& row : report->result.rows()) {
    int64_t distinct = row[*cd_idx].AsInt64();
    EXPECT_GE(distinct, 3);  // dependency levels 1..6, most present
    EXPECT_LE(distinct, 6);
    double median_bmi = row[*q_idx].AsDouble();
    EXPECT_GT(median_bmi, 18.0);
    EXPECT_LT(median_bmi, 36.0);
  }

  // Cross-check the distinct counts against the exact ground truth over
  // the same snapshot rows.
  std::set<uint64_t> keys(report->snapshot_contributors_by_vgroup[0].begin(),
                          report->snapshot_contributors_by_vgroup[0].end());
  const data::Table population = fw.population_view().ToTable();
  auto id_idx = population.schema().IndexOf("contributor_id");
  auto sex_idx = population.schema().IndexOf("sex");
  auto dep_idx = population.schema().IndexOf("dependency");
  ASSERT_TRUE(id_idx.ok() && sex_idx.ok() && dep_idx.ok());
  std::map<std::string, std::set<int64_t>> truth;
  for (const auto& row : population.rows()) {
    if (!keys.count(static_cast<uint64_t>(row[*id_idx].AsInt64()))) continue;
    truth[row[*sex_idx].AsString()].insert(row[*dep_idx].AsInt64());
  }
  auto sex_out = report->result.schema().IndexOf("sex");
  ASSERT_TRUE(sex_out.ok());
  for (const auto& row : report->result.rows()) {
    int64_t got = row[*cd_idx].AsInt64();
    int64_t expected =
        static_cast<int64_t>(truth[row[*sex_out].AsString()].size());
    // HLL with p=10 on <=6 distinct values is exact.
    EXPECT_EQ(got, expected);
  }
}

// Store-and-forward duplicate delivery must not double-count a
// contributor (the snapshot builder deduplicates by contributor key).
TEST(SnapshotDedupEndToEnd, ChurnReplaysDoNotInflateSnapshots) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 300;
  cfg.fleet.num_processors = 60;
  cfg.fleet.enable_churn = true;  // devices flap; mailboxes replay
  cfg.seed = 31;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());

  query::Query q;
  q.query_id = 5;
  q.kind = query::QueryKind::kGroupingSets;
  q.snapshot_cardinality = 50;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}}, {{AggregateFunction::kCount, "*"}}};

  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 25;  // n = 2
  auto d = fw.Plan(q, privacy, {0.15, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());

  exec::ExecutionConfig ec;
  ec.collection_window = 3 * kMinute;
  ec.deadline = 20 * kMinute;
  ec.combiner_margin = 2 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  if (!report->success) GTEST_SKIP() << "churn made this run miss; fine";

  // The merged snapshot must contain n * quota DISTINCT contributors.
  const auto& keys = report->snapshot_contributors_by_vgroup[0];
  std::set<uint64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());
  EXPECT_EQ(keys.size(), static_cast<size_t>(d->n) * d->quota);
  // And COUNT(*) across regions equals the snapshot cardinality.
  int64_t total = 0;
  auto count_idx = report->result.schema().IndexOf("COUNT(*)");
  ASSERT_TRUE(count_idx.ok());
  for (const auto& row : report->result.rows()) {
    total += row[*count_idx].AsInt64();
  }
  EXPECT_EQ(total, static_cast<int64_t>(d->n * d->quota));
}

// Temporary disconnection (not a crash): a snapshot builder goes offline
// for two minutes mid-collection. Store-and-forward parks contributions in
// its mailbox; on reconnection the snapshot completes and the query still
// meets its (generous) deadline. This is the paper's OppNet story: a
// temporarily unreachable edgelet is delay, not loss.
TEST(DisconnectionToleranceEndToEnd, OfflineBuilderRecoversViaMailbox) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 200;
  cfg.fleet.num_processors = 60;
  cfg.fleet.enable_churn = false;
  cfg.network.store_and_forward = true;
  cfg.seed = 61;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());

  query::Query q;
  q.query_id = 6;
  q.kind = query::QueryKind::kGroupingSets;
  q.snapshot_cardinality = 40;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}}, {{AggregateFunction::kCount, "*"}}};
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = 20;  // n = 2
  resilience::ResilienceConfig resilience{0.0, 0.9};  // no overcollection
  auto d = fw.Plan(q, privacy, resilience, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->m, 0);  // the offline builder is NOT expendable

  net::NodeId victim = d->sb_groups[0][0][0];
  fw.sim()->ScheduleAt(5 * kSecond, [&fw, victim]() {
    fw.network()->SetOnline(victim, false);
  });
  fw.sim()->ScheduleAt(3 * kMinute, [&fw, victim]() {
    fw.network()->SetOnline(victim, true);  // mailbox replays here
  });

  exec::ExecutionConfig ec;
  ec.collection_window = 60 * kSecond;
  ec.deadline = 10 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  // Completion waited for the reconnection.
  EXPECT_GT(report->completion_time, 3 * kMinute);
  auto validity = fw.VerifyGroupingSets(*d, *report);
  ASSERT_TRUE(validity.ok());
  EXPECT_TRUE(validity->valid) << validity->detail;

  // Control: without store-and-forward the same disconnection is fatal
  // for an m=0 plan.
  FrameworkConfig cfg2 = cfg;
  cfg2.network.store_and_forward = false;
  EdgeletFramework fw2(cfg2);
  ASSERT_TRUE(fw2.Init().ok());
  auto d2 = fw2.Plan(q, privacy, resilience, Strategy::kOvercollection);
  ASSERT_TRUE(d2.ok());
  net::NodeId victim2 = d2->sb_groups[0][0][0];
  fw2.sim()->ScheduleAt(5 * kSecond, [&fw2, victim2]() {
    fw2.network()->SetOnline(victim2, false);
  });
  fw2.sim()->ScheduleAt(3 * kMinute, [&fw2, victim2]() {
    fw2.network()->SetOnline(victim2, true);
  });
  auto report2 = fw2.Execute(*d2, ec);
  ASSERT_TRUE(report2.ok());
  EXPECT_FALSE(report2->success);
}

}  // namespace
}  // namespace edgelet::core
