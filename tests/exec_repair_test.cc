// Mid-query failure detection + deadline-aware partition repair: spare
// pools, recruitment, re-solicitation, and the repair-vs-fail-safe
// decision. Covers the acceptance gates of the repair subsystem: repair
// completes validly where plain overcollection cannot; infeasible repairs
// fail safe strictly before the deadline; the subsystem is shard-count
// invariant; and repair never converts a fault into a successful-but-
// invalid result.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "core/framework.h"
#include "core/validity_oracle.h"
#include "exec/protocol.h"
#include "exec/repair.h"

namespace edgelet::core {
namespace {

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

// `cohort_size` members share one contributor device (1 = one device per
// member).
FrameworkConfig SmallFleet(uint64_t seed, size_t cohort_size = 1) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = 100;
  cfg.fleet.contributor_cohort_size = cohort_size;
  cfg.fleet.num_processors = 30;
  cfg.fleet.enable_churn = false;
  cfg.seed = seed;
  return cfg;
}

exec::ExecutionConfig RepairExec(bool repair_on) {
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 4 * kMinute;
  ec.inject_failures = false;
  ec.repair.enabled = repair_on;
  return ec;
}

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

void KillAllAt(EdgeletFramework* fw, const std::vector<net::NodeId>& nodes,
               SimDuration after) {
  net::Network* network = fw->network();
  for (net::NodeId id : nodes) {
    fw->sim()->ScheduleAt(id, fw->sim()->now() + after,
                          [network, id]() { network->Kill(id); });
  }
}

TEST(RepairPlanTest, PlannerReservesRankOrderedSparePool) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  ASSERT_FALSE(d->spare_pool.empty())
      << "leftover processors must be reserved as spares";

  // Spares are disjoint from every assigned operator device.
  std::set<net::NodeId> assigned;
  for (net::NodeId id : ChainDevices(*d)) assigned.insert(id);
  assigned.insert(d->combiner_group.begin(), d->combiner_group.end());
  for (net::NodeId spare : d->spare_pool) {
    EXPECT_EQ(assigned.count(spare), 0u)
        << "spare " << spare << " is also an assigned operator";
  }
  // Primary deployment + spares account for the whole processor pool.
  EXPECT_EQ(assigned.size() + d->spare_pool.size(), 30u);
}

// The tentpole scenario: crash every operator of every partition early, so
// live complete partitions drop to zero — strictly more failures than the
// planned m tolerates. Plain overcollection must fail; with the repair
// subsystem the controller detects the crashes, recruits spares, re-
// solicits the crowd, and the execution completes validly. `golden` pins
// the repaired report.
void RecoversUnderRepair(size_t cohort_size, uint64_t golden) {
  // Repair disabled: the same crash schedule is fatal.
  {
    EdgeletFramework fw(SmallFleet(/*seed=*/7, cohort_size));
    ASSERT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
    ASSERT_TRUE(d.ok());
    KillAllAt(&fw, ChainDevices(*d), 4 * kSecond);
    auto report = fw.Execute(*d, RepairExec(/*repair_on=*/false));
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->success);
    EXPECT_EQ(report->completion_time, kSimTimeNever);
    EXPECT_EQ(report->repairs_attempted, 0u);
    ValidityOracle oracle(&fw);
    auto audit = oracle.Audit(*d, *report);
    ASSERT_TRUE(audit.ok());
    EXPECT_EQ(audit->verdict, TrialVerdict::kFailedSafe);
  }
  // Repair enabled: same plan, same kills, valid completion.
  {
    EdgeletFramework fw(SmallFleet(/*seed=*/7, cohort_size));
    ASSERT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
    ASSERT_TRUE(d.ok());
    KillAllAt(&fw, ChainDevices(*d), 4 * kSecond);
    auto report = fw.Execute(*d, RepairExec(/*repair_on=*/true));
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->success) << "repair did not recover the execution";
    EXPECT_GE(report->failures_detected, 1u);
    EXPECT_GE(report->repairs_attempted, 1u);
    EXPECT_GE(report->repairs_succeeded, 1u);
    EXPECT_EQ(report->early_abort_time, kSimTimeNever);
    // The merged snapshot must be attributed to repair-generation epochs,
    // never to a dead original's rank.
    bool has_repair_epoch = false;
    for (uint32_t e : report->epochs_used) {
      if (e >= exec::kRepairEpochBase) has_repair_epoch = true;
    }
    EXPECT_TRUE(has_repair_epoch);
    // Pins the recruitment path byte for byte: recruited builders and
    // computers are configured by the same role functions as the planned
    // ones, and this golden holds them to the original recruit wiring.
    EXPECT_EQ(exec::ReportFingerprint(*report), golden)
        << std::hex << exec::ReportFingerprint(*report);
    ValidityOracle oracle(&fw);
    auto audit = oracle.Audit(*d, *report);
    ASSERT_TRUE(audit.ok());
    EXPECT_EQ(audit->verdict, TrialVerdict::kValid) << audit->detail;
  }
}

// Run once over one-member contributor devices and once over cohorts of
// four, so the re-solicitation fan-out over a device's members is pinned
// as well.
TEST(RepairTest, RepairRecoversWhereOvercollectionCannot) {
  struct Case {
    size_t cohort_size;
    uint64_t golden;
  };
  for (const Case& c : {Case{1, 0x22E29D330B7F117CULL},
                        Case{4, 0x41F8F68EFFCC7BE6ULL}}) {
    SCOPED_TRACE("cohort size " + std::to_string(c.cohort_size));
    RecoversUnderRepair(c.cohort_size, c.golden);
  }
}

// A recruit is wire input. One naming repair generation 0 (a planned
// operator's) or a vertical group the plan lacks must leave the spare
// idle rather than configure an operator from plan entries that do not
// exist (repair_asan_smoke runs this under ASan).
TEST(RepairTest, MalformedRecruitLeavesSpareIdle) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  ASSERT_FALSE(d->spare_pool.empty());
  device::Device* sender = fw.fleet()->by_node(d->combiner_group[0]);
  ASSERT_NE(sender, nullptr);
  const uint64_t qid = d->query.query_id;
  auto send = [&](uint32_t partition, uint32_t vgroup, uint32_t epoch) {
    exec::RecruitMsg msg;
    msg.query_id = qid;
    msg.role = exec::RecruitRole::kSnapshotBuilder;
    msg.partition = partition;
    msg.vgroup = vgroup;
    msg.epoch = epoch;
    msg.peer = d->spare_pool.back();
    msg.controller = sender->id();
    const Bytes payload = msg.Encode();
    for (net::NodeId spare : d->spare_pool) {
      fw.sim()->ScheduleAt(sender->id(), 2 * kSecond,
                           [sender, spare, payload, qid]() {
                             (void)sender->SendSealed(spare, exec::kRecruit,
                                                      payload, qid);
                           });
    }
  };
  send(/*partition=*/60000, /*vgroup=*/0, /*epoch=*/0);
  send(/*partition=*/0, /*vgroup=*/99, exec::kRepairEpochBase);

  auto report = fw.Execute(*d, RepairExec(/*repair_on=*/true));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  EXPECT_EQ(report->repairs_attempted, 0u);
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->verdict, TrialVerdict::kValid) << audit->detail;
}

// Deadline semantics: when the remaining budget cannot fit collection
// remainder + compute + emission + combiner margins, the controller must
// not recruit — it terminates the execution at detection time, strictly
// before the deadline, and the run classifies as failed-safe.
TEST(RepairTest, InfeasibleTimeBudgetFailsSafeStrictlyBeforeDeadline) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  KillAllAt(&fw, ChainDevices(*d), 4 * kSecond);
  exec::ExecutionConfig ec = RepairExec(/*repair_on=*/true);
  // Squeeze the budget: 2 min deadline with 1 min combiner margin and
  // 30 s + 30 s repair margins leaves no feasible repair at any detection
  // time.
  ec.deadline = 2 * kMinute;
  ec.repair.compute_margin = 30 * kSecond;
  ec.repair.emission_margin = 30 * kSecond;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
  EXPECT_EQ(report->completion_time, kSimTimeNever);
  EXPECT_GE(report->failures_detected, 1u);
  EXPECT_EQ(report->repairs_attempted, 0u);
  ASSERT_NE(report->early_abort_time, kSimTimeNever);
  EXPECT_LT(report->early_abort_time, ec.deadline)
      << "fail-safe must trigger strictly before the deadline";
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->verdict, TrialVerdict::kFailedSafe);
}

// A margin near the top of the clock must read as an infeasible budget,
// not wrap the repair's ready-by time past zero into a "feasible" repair.
// The one-shot Execute() path has no admission screen to catch it.
TEST(RepairTest, HugeMarginSaturatesInsteadOfWrapping) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  KillAllAt(&fw, ChainDevices(*d), 4 * kSecond);
  exec::ExecutionConfig ec = RepairExec(/*repair_on=*/true);
  ec.repair.compute_margin = kSimTimeNever - kMinute;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
  EXPECT_GE(report->failures_detected, 1u);
  EXPECT_EQ(report->repairs_attempted, 0u);
  ASSERT_NE(report->early_abort_time, kSimTimeNever);
  EXPECT_LT(report->early_abort_time, ec.deadline);
}

TEST(RepairTest, ExhaustedSparePoolFailsSafeEarly) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  // One spare cannot re-provision a full chain (builder + computer).
  d->spare_pool.resize(1);
  KillAllAt(&fw, ChainDevices(*d), 4 * kSecond);
  auto report = fw.Execute(*d, RepairExec(/*repair_on=*/true));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->success);
  EXPECT_EQ(report->repairs_attempted, 0u);
  ASSERT_NE(report->early_abort_time, kSimTimeNever);
  EXPECT_LT(report->early_abort_time, RepairExec(true).deadline);
}

// With an empty spare pool the subsystem must gate itself off entirely:
// no controller, no beacons, no early abort — the pre-repair behavior.
TEST(RepairTest, EmptySparePoolDisablesRepair) {
  auto run = [](bool repair_requested) {
    EdgeletFramework fw(SmallFleet(/*seed=*/9));
    EXPECT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
    EXPECT_TRUE(d.ok());
    d->spare_pool.clear();
    auto report = fw.Execute(*d, RepairExec(repair_requested));
    EXPECT_TRUE(report.ok());
    return exec::ReportFingerprint(*report);
  };
  // Bit-identical with and without the request: the gate removed every
  // repair-path side effect (beacons, detector draws, chunked run).
  EXPECT_EQ(run(true), run(false));
}

// Acceptance gate: ReportFingerprint must be identical for sim_shards in
// {1, 2, 4, 8} with the detector and repair active (heartbeats, recruit
// traffic and controller decisions all replay deterministically under the
// sharded engine).
TEST(RepairTest, RepairIsShardCountInvariant) {
  auto fingerprint = [](size_t shards) {
    FrameworkConfig cfg = SmallFleet(/*seed=*/13);
    cfg.sim_shards = shards;
    EdgeletFramework fw(cfg);
    EXPECT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
    EXPECT_TRUE(d.ok());
    exec::ExecutionConfig ec = RepairExec(/*repair_on=*/true);
    // Heavy injected crash load so detection, recruitment and (depending
    // on the draw) repair or fail-safe all execute.
    ec.inject_failures = true;
    ec.failure_probability = 0.35;
    ec.seed = 13;
    auto report = fw.Execute(*d, ec);
    EXPECT_TRUE(report.ok());
    return exec::ReportFingerprint(*report);
  };
  const uint64_t serial = fingerprint(1);
  EXPECT_EQ(fingerprint(2), serial);
  EXPECT_EQ(fingerprint(4), serial);
  EXPECT_EQ(fingerprint(8), serial);
}

// Repair must never turn a fault into a successful-but-invalid result:
// sweep chaos kinds x rates with repair active (plus injected crashes so
// the controller has something to do) and assert the validity invariant.
TEST(RepairTest, ChaosWithRepairNeverYieldsInvalid) {
  const FaultKind kKinds[] = {FaultKind::kDrop, FaultKind::kBurst,
                              FaultKind::kDuplicate, FaultKind::kDelay,
                              FaultKind::kCorrupt};
  const double kRates[] = {0.15, 0.30};
  int valid = 0, failed_safe = 0;
  for (FaultKind kind : kKinds) {
    for (double rate : kRates) {
      EdgeletFramework fw(SmallFleet(/*seed=*/17));
      ASSERT_TRUE(fw.Init().ok());
      auto d =
          fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
      ASSERT_TRUE(d.ok());
      ChaosInjector injector(chaos::MakeFaultScenario(kind, /*seed=*/1234,
                                                      rate));
      injector.AttachTo(fw.network());
      exec::ExecutionConfig ec = RepairExec(/*repair_on=*/true);
      ec.inject_failures = true;
      ec.failure_probability = 0.25;
      ec.seed = 17;
      auto report = fw.Execute(*d, ec);
      injector.Detach();
      ASSERT_TRUE(report.ok());
      ValidityOracle oracle(&fw);
      auto audit = oracle.Audit(*d, *report);
      ASSERT_TRUE(audit.ok()) << audit.status().ToString();
      EXPECT_NE(audit->verdict, TrialVerdict::kInvalid)
          << "successful-but-invalid under " << FaultKindName(kind)
          << " at rate " << rate << " with repair enabled";
      (audit->verdict == TrialVerdict::kValid ? valid : failed_safe)++;
    }
  }
  EXPECT_GE(valid, 1) << valid << " valid / " << failed_safe
                      << " failed-safe of 10 repair cells";
}

// The liveness/failover timing has exactly one source of truth
// (exec/defaults.h). Before it, ReplicaRole::Config defaulted failover to
// 15 s while executions ran 20 s. The two configs that still carry these
// values, as unit-test seams, must default to the constants.
TEST(RepairDefaultsTest, TimingDefaultsShareOneSourceOfTruth) {
  exec::ReplicaRole::Config rc;
  EXPECT_EQ(rc.ping_period, exec::kPingPeriod);
  EXPECT_EQ(rc.failover_timeout, exec::kFailoverTimeout);

  exec::CombinerActor::Config comb;
  EXPECT_EQ(comb.resend_interval, exec::kResendInterval);
}

TEST(RepairDefaultsTest, RepairOpIdsAreUniquePerOperator) {
  std::set<uint64_t> ids;
  for (uint32_t gen : {0u, 1u, 256u, 300u}) {
    for (uint32_t p = 0; p < 4; ++p) {
      for (uint32_t vg = 0; vg < 3; ++vg) {
        ids.insert(exec::RepairOpId(exec::RecruitRole::kSnapshotBuilder, p,
                                    vg, gen));
        ids.insert(exec::RepairOpId(exec::RecruitRole::kComputer, p, vg,
                                    gen));
      }
    }
  }
  EXPECT_EQ(ids.size(), 4u * 4u * 3u * 2u);
}

}  // namespace
}  // namespace edgelet::core
