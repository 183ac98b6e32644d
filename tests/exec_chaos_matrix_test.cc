// The standing correctness gate behind all perf work: sweep fault kinds ×
// rates × strategies under the deterministic chaos injector and assert the
// paper's validity invariant — every *successful* execution is *valid*
// (equivalent to a centralized run over the recorded crowd sample); faults
// may only ever push a trial into failed-safe. Also pins the two
// regression scenarios this subsystem was built to catch: the combiner
// wedge on a poisoned partial merge, and chaos replay determinism across
// parsim shard counts.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "core/framework.h"
#include "core/validity_oracle.h"
#include "device/fleet.h"
#include "exec/protocol.h"
#include "table_views.h"

namespace edgelet::core {
namespace {

using chaos::ChaosConfig;
using chaos::ChaosInjector;
using chaos::FaultKind;
using chaos::FaultKindName;
using exec::Strategy;
using query::AggregateFunction;

query::Query MiniQuery(uint64_t id = 1) {
  query::Query q;
  q.query_id = id;
  q.kind = query::QueryKind::kGroupingSets;
  q.snapshot_cardinality = 20;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}}, {{AggregateFunction::kCount, "*"}}};
  return q;
}

FrameworkConfig SmallFleet(uint64_t seed) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 60;
  cfg.fleet.num_processors = 24;
  cfg.fleet.enable_churn = false;
  cfg.seed = seed;
  return cfg;
}

exec::ExecutionConfig QuickExec() {
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 4 * kMinute;
  ec.inject_failures = false;
  return ec;
}

// Runs one (kind, rate, strategy) cell and returns the oracle verdict.
TrialVerdict RunCell(FaultKind kind, double rate, Strategy strategy) {
  EdgeletFramework fw(SmallFleet(/*seed=*/17));
  EXPECT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, strategy);
  EXPECT_TRUE(d.ok());
  ChaosInjector injector(
      chaos::MakeFaultScenario(kind, /*seed=*/1234, rate));
  injector.AttachTo(fw.network());
  auto report = fw.Execute(*d, QuickExec());
  injector.Detach();
  EXPECT_TRUE(report.ok());
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  EXPECT_TRUE(audit.ok()) << audit.status().ToString();
  if (!audit.ok()) return TrialVerdict::kFailedSafe;
  return audit->verdict;
}

TEST(ChaosMatrixTest, EverySuccessfulExecutionIsValid) {
  const FaultKind kKinds[] = {FaultKind::kDrop, FaultKind::kBurst,
                              FaultKind::kDuplicate, FaultKind::kDelay,
                              FaultKind::kCorrupt};
  const double kRates[] = {0.05, 0.15, 0.30};
  const Strategy kStrategies[] = {Strategy::kOvercollection,
                                  Strategy::kBackup};
  int valid = 0, failed_safe = 0;
  for (FaultKind kind : kKinds) {
    for (double rate : kRates) {
      for (Strategy strategy : kStrategies) {
        TrialVerdict verdict = RunCell(kind, rate, strategy);
        EXPECT_NE(verdict, TrialVerdict::kInvalid)
            << "successful-but-invalid execution under fault kind "
            << FaultKindName(kind) << " at rate " << rate << " with strategy "
            << exec::StrategyName(strategy);
        (verdict == TrialVerdict::kValid ? valid : failed_safe)++;
      }
    }
  }
  // The matrix must not be vacuous: the framework rides out a healthy
  // share of these fault schedules (resends + overcollection + backup).
  EXPECT_GE(valid, 10) << valid << " valid / " << failed_safe
                       << " failed-safe of 30 cells";
}

// The bug this PR fixes: a partial whose GroupingSets spec cannot merge
// used to wedge the combiner forever (combining_ never reset), so the m
// spare partitions Overcollection pays for were unreachable and the
// execution timed out. With eviction + retry the spare completes the
// result, and the delivered answer still matches the centralized rerun.
TEST(ChaosMatrixTest, PoisonedPartialMergeRecoversThroughSparePartition) {
  EdgeletFramework fw(SmallFleet(/*seed=*/3));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  ASSERT_GE(d->m, 1) << "scenario needs at least one spare partition";

  // A poisoned partial: correct query id, in-range partition/vgroup, but a
  // GroupingSets spec that cannot merge with the deployed one. Crafted by
  // a (compromised) processor device and sealed like any honest partial.
  query::GroupingSetsSpec poison_spec{
      {{}}, {{AggregateFunction::kCount, "*"}}};
  data::Table t(data::Schema({{"x", data::ValueType::kInt64}}));
  t.AppendUnchecked({data::Value(int64_t{1})});
  auto poison =
      query::GroupingSetsResult::Compute(testutil::ViewOf(t), poison_spec);
  ASSERT_TRUE(poison.ok());
  exec::GsPartialMsg msg;
  msg.query_id = d->query.query_id;
  msg.partition = 0;
  msg.vgroup = 0;
  msg.epoch = 0;
  msg.result = *poison;
  Bytes payload = msg.Encode();

  // Deliver the poison to EVERY combiner (Combiner + Active Backup) early,
  // before any honest partial: partition 0 "completes" with the poison on
  // both, so without eviction both wedge and nothing reaches the querier.
  device::Device* sender = fw.fleet()->by_node(d->combiner_group[0]);
  ASSERT_NE(sender, nullptr);
  for (net::NodeId combiner : d->combiner_group) {
    fw.sim()->ScheduleAt(
        sender->id(), 2 * kSecond, [sender, combiner, payload, qid = msg.query_id]() {
          (void)sender->SendSealed(combiner, exec::kGsPartial, payload, qid);
        });
  }

  auto report = fw.Execute(*d, QuickExec());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success)
      << "combiner wedged: spare partition was never consumed";
  // The poisoned partition must not appear in the merged set.
  for (uint32_t p : report->partitions_used) EXPECT_NE(p, 0u);
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->verdict, TrialVerdict::kValid) << audit->detail;
}

// --- Crash-with-recovery legs of the matrix (DESIGN.md §5k) -------------

// Every device hosting a snapshot builder or computer of the plan.
std::vector<net::NodeId> ChainDevices(const exec::Deployment& d) {
  std::set<net::NodeId> nodes;
  for (const auto& partition : d.sb_groups) {
    for (const auto& group : partition) {
      nodes.insert(group.begin(), group.end());
    }
  }
  for (const auto& partition : d.computer_groups) {
    for (const auto& group : partition) {
      nodes.insert(group.begin(), group.end());
    }
  }
  return {nodes.begin(), nodes.end()};
}

struct RecoveryMode {
  const char* name;
  Strategy strategy;
  bool repair;
};

// One crash-with-recovery cell: chain devices crash and reboot on a
// deterministic schedule with the sealed store + resume path active.
// Returns (verdict, recoveries_resumed).
std::pair<TrialVerdict, uint32_t> RunRecoveryCell(const RecoveryMode& mode,
                                                  TransportBackend backend) {
  FrameworkConfig cfg = SmallFleet(/*seed=*/17);
  cfg.transport = backend;
  EdgeletFramework fw(cfg);
  EXPECT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, mode.strategy);
  EXPECT_TRUE(d.ok());
  Rng rng(/*seed=*/55);
  SimTime now = fw.sim()->now();
  auto plan = device::PlanReboots(
      ChainDevices(*d), /*crash_probability=*/0.5, now + 4 * kSecond,
      now + 20 * kSecond, /*min_down=*/5 * kSecond, /*max_down=*/10 * kSecond,
      &rng);
  device::ScheduleReboots(fw.network(), plan);
  exec::ExecutionConfig ec = QuickExec();
  ec.repair.enabled = mode.repair;
  ec.recovery.enabled = true;
  auto report = fw.Execute(*d, ec);
  EXPECT_TRUE(report.ok());
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  EXPECT_TRUE(audit.ok()) << audit.status().ToString();
  TrialVerdict verdict =
      audit.ok() ? audit->verdict : TrialVerdict::kFailedSafe;
  return {verdict, report->recoveries_resumed};
}

// Matrix extension: crash-with-recovery × {Overcollection, Backup,
// Overcollection+repair} × {sim, live}. The invariant is identical to the
// message-level matrix — a crash-reboot cycle may cost the trial (failed
// safe) but may never buy a successful-but-invalid result — and across
// the sim cells the resume path must actually fire.
TEST(ChaosMatrixTest, CrashWithRecoveryMatrixNeverInvalid) {
  const RecoveryMode kModes[] = {
      {"overcollection", Strategy::kOvercollection, false},
      {"backup", Strategy::kBackup, false},
      {"overcollection+repair", Strategy::kOvercollection, true},
  };
  const TransportBackend kBackends[] = {TransportBackend::kSim,
                                        TransportBackend::kLive};
  uint32_t resumed_sim = 0;
  for (const RecoveryMode& mode : kModes) {
    for (TransportBackend backend : kBackends) {
      auto [verdict, resumed] = RunRecoveryCell(mode, backend);
      EXPECT_NE(verdict, TrialVerdict::kInvalid)
          << "successful-but-invalid under crash-with-recovery, mode "
          << mode.name << ", backend "
          << (backend == TransportBackend::kSim ? "sim" : "live");
      if (backend == TransportBackend::kSim) resumed_sim += resumed;
    }
  }
  EXPECT_GT(resumed_sim, 0u)
      << "no cell ever resumed a rebooted operator; the matrix is vacuous";
}

// Chaos replay determinism: a fixed chaos seed must produce bit-identical
// executions under the serial engine and parsim at any shard count — the
// injector draws only from per-sender counter-based streams, in the
// sender's event context.
TEST(ChaosMatrixTest, ChaosScenarioIsShardCountInvariant) {
  auto fingerprint = [](size_t shards) {
    FrameworkConfig cfg = SmallFleet(/*seed=*/11);
    cfg.sim_shards = shards;
    EdgeletFramework fw(cfg);
    EXPECT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
    EXPECT_TRUE(d.ok());
    ChaosConfig cc = chaos::MakeFaultScenario(FaultKind::kDrop,
                                              /*seed=*/777, /*rate=*/0.2);
    cc.duplicate_probability = 0.15;
    cc.delay_spike_probability = 0.1;
    ChaosInjector injector(cc);
    injector.AttachTo(fw.network());
    auto report = fw.Execute(*d, QuickExec());
    injector.Detach();
    EXPECT_TRUE(report.ok());
    return exec::ReportFingerprint(*report);
  };
  uint64_t serial = fingerprint(1);
  EXPECT_EQ(fingerprint(2), serial);
  EXPECT_EQ(fingerprint(4), serial);
}

}  // namespace
}  // namespace edgelet::core
