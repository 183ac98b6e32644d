#include <gtest/gtest.h>

#include <cstdint>

#include "core/framework.h"

// Columnar-migration invariance suite. The population moved from a row
// Table copied into every layer to one shared ColumnTable read through
// TableViews; these tests pin down the two properties that migration
// promised:
//
//  1. Bit-identical execution: the fingerprints below were recorded on
//     the historical row-store path (same configs, same seeds) and must
//     never drift. A change here means the columnar path altered query
//     results, rng draw order, or wire serialization — not "update the
//     constant", but "find the divergence".
//  2. No O(population) copies: devices and the validity oracle read the
//     one shared slab; nothing rematerializes the population as rows.

namespace edgelet::core {
namespace {

using exec::Strategy;
using query::AggregateFunction;
using query::CompareOp;
using query::QueryKind;

// Mirrors bench_util.h SurveyQuery (the demo's Grouping Sets query).
query::Query SurveyQuery(uint64_t snapshot_cardinality, uint64_t query_id) {
  query::Query q;
  q.query_id = query_id;
  q.name = "health survey";
  q.kind = QueryKind::kGroupingSets;
  q.predicates = {{"age", CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = snapshot_cardinality;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}, {"sex"}},
      {{AggregateFunction::kCount, "*"},
       {AggregateFunction::kAvg, "bmi"},
       {AggregateFunction::kAvg, "systolic_bp"}}};
  return q;
}

// Mirrors bench_util.h ClusterQuery (the demo's K-Means query).
query::Query ClusterQuery(uint64_t snapshot_cardinality, uint64_t query_id) {
  query::Query q;
  q.query_id = query_id;
  q.name = "dependency clustering";
  q.kind = QueryKind::kKMeans;
  q.predicates = {{"age", CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = snapshot_cardinality;
  q.kmeans.k = 4;
  q.kmeans.features = {"age", "bmi", "systolic_bp", "chronic_count"};
  q.kmeans.cluster_aggregates = {
      {AggregateFunction::kAvg, "dependency"}};
  return q;
}

// One fixed-config execution, fingerprinted. Every knob that feeds the
// rng or the plan is pinned so the fingerprint is a pure function of the
// engine's behavior.
uint64_t RunFingerprint(size_t contributors, size_t cohort, size_t shards,
                        bool kmeans, Strategy strategy) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = contributors;
  cfg.fleet.contributor_cohort_size = cohort;
  cfg.fleet.num_processors = 48;
  cfg.fleet.enable_churn = false;
  cfg.seed = 977;
  cfg.sim_shards = shards;
  EdgeletFramework fw(cfg);
  EXPECT_TRUE(fw.Init().ok());
  const uint64_t c_card = contributors / 5;
  query::Query q = kmeans ? ClusterQuery(c_card, 977)
                          : SurveyQuery(c_card, 977);
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = (c_card + 4) / 5;
  auto d = fw.Plan(q, privacy, {0.05, 0.99}, strategy);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  if (!d.ok()) return 0;
  exec::ExecutionConfig ec;
  ec.collection_window = 2 * kMinute;
  ec.deadline = 10 * kMinute;
  ec.inject_failures = false;
  ec.seed = 31;
  auto report = fw.Execute(*d, ec);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return 0;
  EXPECT_TRUE(report->success);
  return exec::ReportFingerprint(*report);
}

// Fingerprints recorded on the pre-columnar row-store engine.
TEST(ColumnarInvarianceTest, GroupingSetsOvercollectionFingerprint) {
  EXPECT_EQ(RunFingerprint(240, 1, 1, false, Strategy::kOvercollection),
            16721959199358941153ull);
}

TEST(ColumnarInvarianceTest, GroupingSetsBackupFingerprint) {
  EXPECT_EQ(RunFingerprint(240, 1, 1, false, Strategy::kBackup),
            16895485328694493416ull);
}

TEST(ColumnarInvarianceTest, KMeansOvercollectionFingerprint) {
  EXPECT_EQ(RunFingerprint(240, 1, 1, true, Strategy::kOvercollection),
            11877561214239888882ull);
}

TEST(ColumnarInvarianceTest, CohortFingerprintShardInvariant) {
  const uint64_t serial =
      RunFingerprint(2000, 128, 1, false, Strategy::kOvercollection);
  EXPECT_EQ(serial, 262003147949798397ull);
  EXPECT_EQ(RunFingerprint(2000, 128, 2, false, Strategy::kOvercollection),
            serial);
}

// A population that went through rows and back into a fresh columnar
// store must hand devices exactly the rows the framework's own store does.
TEST(ColumnarInvarianceTest, RowAndViewDistributionAgree) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 60;
  cfg.fleet.contributor_cohort_size = 4;
  cfg.fleet.num_processors = 10;
  cfg.fleet.enable_churn = false;
  cfg.seed = 5;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());

  auto rows = data::ColumnTable::FromTable(fw.population_view().ToTable());
  ASSERT_TRUE(rows.ok());
  FrameworkConfig cfg2 = cfg;
  EdgeletFramework fw2(cfg2);
  ASSERT_TRUE(fw2.Init().ok());
  ASSERT_TRUE(fw2.fleet()
                  ->DistributeData(data::TableView(
                      std::make_shared<const data::ColumnTable>(
                          std::move(*rows))))
                  .ok());

  const auto& a = fw.fleet()->contributors();
  const auto& b = fw2.fleet()->contributors();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->local_view().ToTable(), b[i]->local_view().ToTable());
  }
}

// At 1M individuals the population must exist once: every device's view
// aliases the framework's slab, no row materialization happens, and the
// slab itself stays within columnar-layout bounds (~64 B/row; the old
// row store was ~6x that before counting the per-device copies).
TEST(ColumnarInvarianceTest, MillionRowsSingleSharedStore) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 1'000'000;
  cfg.fleet.contributor_cohort_size = 4096;
  cfg.fleet.num_processors = 8;
  cfg.fleet.enable_churn = false;
  cfg.seed = 3;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());

  const auto& store = fw.population_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_rows(), 1'000'000u);

  size_t covered = 0;
  for (const device::Device* dev : fw.fleet()->contributors()) {
    const data::TableView& v = dev->local_view();
    // Zero-copy: the device aliases the shared slab...
    EXPECT_EQ(v.store_ptr().get(), store.get());
    // ...through a contiguous member block, not a selection copy.
    EXPECT_TRUE(v.contiguous());
    covered += v.num_rows();
  }
  EXPECT_EQ(covered, 1'000'000u);

  // ~64 B/row layout (3 doubles + 4 ints + 2 dict-coded strings); fail
  // loudly if someone regresses the slab toward row-store footprints.
  EXPECT_LT(store->ApproxBytes(), size_t{128} << 20);
}

}  // namespace
}  // namespace edgelet::core
