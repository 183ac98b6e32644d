// Negative-path coverage: executions and plans that must fail cleanly, and
// degraded runs that must degrade the way the paper predicts.

#include <gtest/gtest.h>

#include "core/framework.h"
#include "core/validity_oracle.h"
#include "exec/protocol.h"
#include "table_views.h"

namespace edgelet::core {
namespace {

using exec::Strategy;
using query::AggregateFunction;
using query::CompareOp;

query::Query MiniQuery(uint64_t id = 1) {
  query::Query q;
  q.query_id = id;
  q.kind = query::QueryKind::kGroupingSets;
  q.snapshot_cardinality = 20;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}}, {{AggregateFunction::kCount, "*"}}};
  return q;
}

TEST(FailurePathsTest, ExecuteBeforeInitFails) {
  FrameworkConfig cfg;
  EdgeletFramework fw(cfg);
  exec::Deployment empty;
  EXPECT_FALSE(fw.Execute(empty, {}).ok());
  EXPECT_FALSE(fw.Plan(MiniQuery(), {}, {}, Strategy::kOvercollection).ok());
}

TEST(FailurePathsTest, ImpossibleReliabilityTargetFailsPlanning) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 50;
  cfg.fleet.num_processors = 20;
  cfg.fleet.enable_churn = false;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  // 90% failure probability with a 0.999999 target: unreachable within the
  // processor pool (and within max_m).
  resilience::ResilienceConfig impossible{0.9, 0.999999};
  auto d = fw.Plan(MiniQuery(), {}, impossible, Strategy::kOvercollection);
  EXPECT_FALSE(d.ok());
}

TEST(FailurePathsTest, CrowdTooSmallMissesDeadline) {
  // Only 10 qualifying contributors for a snapshot of 20: no partition can
  // ever fill its quota, so the query must time out (not crash, not
  // deliver an undersized snapshot).
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 10;
  cfg.fleet.num_processors = 20;
  cfg.fleet.enable_churn = false;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.0, 0.9}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 2 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
  EXPECT_EQ(report->completion_time, kSimTimeNever);
  EXPECT_TRUE(report->result.empty());
}

TEST(FailurePathsTest, NoQualifyingContributorsTimesOut) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 50;
  cfg.fleet.num_processors = 20;
  cfg.fleet.enable_churn = false;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = MiniQuery();
  // Impossible predicate: nobody is older than 200.
  q.predicates = {{"age", CompareOp::kGt, data::Value(int64_t{200})}};
  auto d = fw.Plan(q, {}, {0.0, 0.9}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 2 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
  EXPECT_EQ(report->contributors_participating, 0u);
}

TEST(FailurePathsTest, BothCombinersDeadMeansNoResult) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 100;
  cfg.fleet.num_processors = 30;
  cfg.fleet.enable_churn = false;
  cfg.seed = 3;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->combiner_group.size(), 2u);
  // Kill the Combiner AND its Active Backup before anything completes.
  for (net::NodeId id : d->combiner_group) {
    fw.sim()->ScheduleAt(fw.sim()->now() + kSecond,
                         [&fw, id]() { fw.network()->Kill(id); });
  }
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 3 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
}

TEST(FailurePathsTest, SingleCombinerDeathAbsorbedByActiveBackup) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 100;
  cfg.fleet.num_processors = 30;
  cfg.fleet.enable_churn = false;
  cfg.seed = 3;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  net::NodeId primary = d->combiner_group[0];
  fw.sim()->ScheduleAt(fw.sim()->now() + kSecond,
                       [&fw, primary]() { fw.network()->Kill(primary); });
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 3 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);  // the Active Backup delivered
  auto validity = fw.VerifyGroupingSets(*d, *report);
  ASSERT_TRUE(validity.ok());
  EXPECT_TRUE(validity->valid) << validity->detail;
}

TEST(FailurePathsTest, QuerierReceivesDuplicatesFromActiveBackup) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 100;
  cfg.fleet.num_processors = 30;
  cfg.fleet.enable_churn = false;
  cfg.seed = 5;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.05, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 3 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->success);
  // Two active combiners each emit (plus re-emissions): everything beyond
  // the first accepted delivery is counted as a deduplicated duplicate.
  EXPECT_GE(report->duplicate_results, 1u);
}

TEST(FailurePathsTest, OutOfRangeWirePartialsCannotCorruptTheResult) {
  // A compromised processor seals partials with garbage wire fields: a
  // vgroup past num_vgroups (which used to both satisfy the completion
  // count and write out of bounds via epochs[vg]) and a partition the plan
  // never deployed. Both must be rejected at the combiner; the execution
  // must still deliver the honest — and centrally verifiable — answer.
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 100;
  cfg.fleet.num_processors = 30;
  cfg.fleet.enable_churn = false;
  cfg.seed = 3;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());

  // Junk rows under the *correct* spec, so a combiner that accepted them
  // would merge them cleanly into a wrong (but successful) result.
  data::Table junk(data::Schema({{"region", data::ValueType::kString}}));
  junk.AppendUnchecked({data::Value("nowhere")});
  auto junk_result =
      query::GroupingSetsResult::Compute(testutil::ViewOf(junk),
                                         d->query.grouping_sets);
  ASSERT_TRUE(junk_result.ok());
  device::Device* sender = fw.fleet()->by_node(d->combiner_group[0]);
  ASSERT_NE(sender, nullptr);
  auto send_junk = [&](uint32_t partition, uint32_t vgroup) {
    exec::GsPartialMsg msg;
    msg.query_id = d->query.query_id;
    msg.partition = partition;
    msg.vgroup = vgroup;
    msg.epoch = 0;
    msg.result = *junk_result;
    Bytes payload = msg.Encode();
    for (net::NodeId combiner : d->combiner_group) {
      fw.sim()->ScheduleAt(
          sender->id(), 2 * kSecond, [sender, combiner, payload, qid = msg.query_id]() {
            (void)sender->SendSealed(combiner, exec::kGsPartial, payload,
                                     qid);
          });
    }
  };
  send_junk(/*partition=*/0, /*vgroup=*/99);
  send_junk(/*partition=*/77, /*vgroup=*/0);

  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 3 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->success);
  for (uint32_t p : report->partitions_used) {
    EXPECT_LT(p, static_cast<uint32_t>(d->n + d->m));
  }
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->verdict, TrialVerdict::kValid) << audit->detail;
  EXPECT_STREQ(TrialVerdictName(audit->verdict), "valid");
}

TEST(FailurePathsTest, OracleClassifiesTimeoutAsFailedSafe) {
  // Crowd too small to fill any partition: the execution fails, and the
  // oracle must classify that as failed-safe (the invariant's permitted
  // failure mode), not as an audit error.
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 10;
  cfg.fleet.num_processors = 20;
  cfg.fleet.enable_churn = false;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.0, 0.9}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 2 * kMinute;
  ec.inject_failures = false;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->success);
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->verdict, TrialVerdict::kFailedSafe);
  EXPECT_STREQ(TrialVerdictName(audit->verdict), "failed-safe");
}

TEST(FailurePathsTest, UnknownColumnsFailAtPlanTimeNotRunTime) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 20;
  cfg.fleet.num_processors = 10;
  cfg.fleet.enable_churn = false;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  query::Query q = MiniQuery();
  q.grouping_sets.sets = {{"no_such_column"}};
  auto d = fw.Plan(q, {}, {}, Strategy::kOvercollection);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace edgelet::core
