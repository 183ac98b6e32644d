// Crash ≠ failure: the sealed persistent store + re-attest-and-resume
// recovery path (DESIGN.md §5k). A crashed operator device that reboots
// replays its sealed checkpoint log, re-attests, negotiates with the
// repair coordinator (or resumes unilaterally when repair is off), and
// rejoins the execution instead of being repaired around. Covers the PR's
// acceptance gates: short crashes resume without a repair; recovery beats
// the crash-forever baseline on repairs attempted; a repair in flight is
// cancelled when the incumbent returns before its recruits ack; a corrupt
// store degrades to recruit-around and never to successful-but-invalid;
// the whole path is parsim shard-count invariant and runs on the live
// transport.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/validity_oracle.h"
#include "device/fleet.h"
#include "exec/protocol.h"

namespace edgelet::core {
namespace {

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
  cfg.fleet.num_contributors = 100;
  cfg.fleet.num_processors = 30;
  cfg.fleet.enable_churn = false;
  cfg.seed = seed;
  return cfg;
}

exec::ExecutionConfig RecoveryExec(bool repair_on, bool recovery_on) {
  exec::ExecutionConfig ec;
  ec.collection_window = 30 * kSecond;
  ec.deadline = 4 * kMinute;
  ec.inject_failures = false;
  ec.repair.enabled = repair_on;
  ec.recovery.enabled = recovery_on;
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

// Every device hosting a snapshot builder, computer or combiner of the
// plan.
std::vector<net::NodeId> OperatorDevices(const exec::Deployment& d) {
  std::vector<net::NodeId> nodes = ChainDevices(d);
  std::set<net::NodeId> all(nodes.begin(), nodes.end());
  all.insert(d.combiner_group.begin(), d.combiner_group.end());
  return {all.begin(), all.end()};
}

// Crashes every node at now + down_after and reboots it down_for later.
void CrashRecoverAllAt(EdgeletFramework* fw,
                       const std::vector<net::NodeId>& nodes,
                       SimDuration down_after, SimDuration down_for) {
  device::RebootPlan plan;
  SimTime now = fw->sim()->now();
  for (net::NodeId id : nodes) {
    device::RebootPlan::Event e;
    e.id = id;
    e.down_at = now + down_after;
    e.up_at = e.down_at + down_for;
    plan.events.push_back(e);
  }
  device::ScheduleReboots(fw->network(), plan);
}

void KillAllAt(EdgeletFramework* fw, const std::vector<net::NodeId>& nodes,
               SimDuration after) {
  net::Network* network = fw->network();
  for (net::NodeId id : nodes) {
    fw->sim()->ScheduleAt(id, fw->sim()->now() + after,
                          [network, id]() { network->Kill(id); });
  }
}

// The tentpole scenario: every chain operator crashes mid-query and
// reboots inside the grace window. Each one replays its sealed log,
// re-attests, is re-admitted by the coordinator, and the execution
// completes validly with ZERO repairs — the crash was not a failure.
TEST(RecoveryTest, ShortCrashResumesWithoutRepair) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  // Down 10 s..18 s: shorter than the 15 s suspicion lease, so the
  // detector never even suspects, let alone confirms a loss.
  CrashRecoverAllAt(&fw, ChainDevices(*d), 10 * kSecond, 8 * kSecond);

  auto report = fw.Execute(*d, RecoveryExec(/*repair_on=*/true,
                                            /*recovery_on=*/true));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  EXPECT_GT(report->recoveries_resumed, 0u);
  EXPECT_EQ(report->repairs_attempted, 0u);
  EXPECT_GT(report->checkpoints_written, 0u);
  EXPECT_EQ(report->store_integrity_failures, 0u);
  // Pins the resume path byte for byte (every chain operator resumes once
  // from its replayed state).
  EXPECT_EQ(exec::ReportFingerprint(*report), 0x3D85FAD0529810D3ULL)
      << std::hex << exec::ReportFingerprint(*report);

  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->verdict, TrialVerdict::kValid) << audit->detail;
}

// Without a repair coordinator (repair disabled) a rebooted operator
// resumes unilaterally after replaying its log — nobody else could have
// taken its slot, so no negotiation is needed.
TEST(RecoveryTest, UnilateralResumeWhenRepairDisabled) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  CrashRecoverAllAt(&fw, ChainDevices(*d), 10 * kSecond, 8 * kSecond);

  auto report = fw.Execute(*d, RecoveryExec(/*repair_on=*/false,
                                            /*recovery_on=*/true));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->success);
  EXPECT_GT(report->recoveries_resumed, 0u);
  EXPECT_EQ(report->repairs_attempted, 0u);

  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_EQ(audit->verdict, TrialVerdict::kValid) << audit->detail;
}

// Recovery also rides along under the Backup strategy (replica groups):
// a crashed replica reboots and resumes unilaterally.
TEST(RecoveryTest, BackupStrategyCrashRecoveryStaysValid) {
  EdgeletFramework fw(SmallFleet(/*seed=*/11));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kBackup);
  ASSERT_TRUE(d.ok());
  CrashRecoverAllAt(&fw, ChainDevices(*d), 10 * kSecond, 8 * kSecond);

  auto report = fw.Execute(*d, RecoveryExec(/*repair_on=*/false,
                                            /*recovery_on=*/true));
  ASSERT_TRUE(report.ok());
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_NE(audit->verdict, TrialVerdict::kInvalid) << audit->detail;
  EXPECT_GT(report->recoveries_resumed, 0u);
}

// With recovery enabled but no crash to recover from, checkpointing must
// be invisible to the protocol: the report is bit-identical to a
// recovery-off run — which in turn is pinned to the pre-recovery golden
// fingerprints by core_columnar_invariance_test.
TEST(RecoveryTest, CrashFreeRecoveryRunIsBitIdenticalToRecoveryOff) {
  auto run = [](bool recovery_on) {
    EdgeletFramework fw(SmallFleet(/*seed=*/9));
    EXPECT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
    EXPECT_TRUE(d.ok());
    auto report =
        fw.Execute(*d, RecoveryExec(/*repair_on=*/true, recovery_on));
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report->recoveries_resumed, 0u);
    return exec::ReportFingerprint(*report);
  };
  EXPECT_EQ(run(true), run(false));
}

// Acceptance gate: the full crash → replay → re-attest → negotiate →
// resume pipeline must replay bit-identically for sim_shards in
// {1, 2, 4, 8}. Checkpoint cadence, store fault draws, detector jitter
// and the hello/ack race are all in per-owner counter-based streams.
TEST(RecoveryTest, ResumeIsShardCountInvariant) {
  auto run = [](size_t shards) {
    FrameworkConfig cfg = SmallFleet(/*seed=*/13);
    cfg.sim_shards = shards;
    EdgeletFramework fw(cfg);
    EXPECT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
    EXPECT_TRUE(d.ok());
    Rng rng(55);
    SimTime now = fw.sim()->now();
    auto plan = device::PlanReboots(ChainDevices(*d), /*crash_probability=*/
                                    0.6, now + 4 * kSecond, now + 20 * kSecond,
                                    5 * kSecond, 12 * kSecond, &rng);
    device::ScheduleReboots(fw.network(), plan);
    auto report = fw.Execute(*d, RecoveryExec(/*repair_on=*/true,
                                              /*recovery_on=*/true));
    EXPECT_TRUE(report.ok());
    return std::make_pair(exec::ReportFingerprint(*report),
                          report->recoveries_resumed);
  };
  const auto serial = run(1);
  EXPECT_GT(serial.second, 0u) << "scenario never exercised a resume";
  EXPECT_EQ(run(2).first, serial.first);
  EXPECT_EQ(run(4).first, serial.first);
  EXPECT_EQ(run(8).first, serial.first);
}

// Acceptance gate: on the same crash schedule, crash-with-recovery must
// attempt strictly fewer repairs than crash-forever — returning incumbents
// make recruitment unnecessary.
TEST(RecoveryTest, ReturningIncumbentsBeatCrashForeverOnRepairs) {
  struct Outcome {
    uint32_t repairs_attempted = 0;
    uint32_t recoveries_resumed = 0;
    TrialVerdict verdict = TrialVerdict::kFailedSafe;
  };
  auto run = [](bool recover) {
    EdgeletFramework fw(SmallFleet(/*seed=*/7));
    EXPECT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
    EXPECT_TRUE(d.ok());
    // Identical crash draws for both arms: the plan's leading Bernoulli +
    // crash-time draws match, only the reboot leg differs.
    Rng rng(55);
    SimTime now = fw.sim()->now();
    auto plan = device::PlanReboots(ChainDevices(*d), /*crash_probability=*/
                                    1.0, now + 6 * kSecond, now + 7 * kSecond,
                                    10 * kSecond, 12 * kSecond, &rng);
    net::Network* network = fw.network();
    if (recover) {
      device::ScheduleReboots(network, plan);
    } else {
      for (const auto& e : plan.events) {
        fw.sim()->ScheduleAt(e.id, e.down_at, [network, id = e.id]() {
          network->Crash(id);
        });
      }
    }
    auto report =
        fw.Execute(*d, RecoveryExec(/*repair_on=*/true, /*recovery_on=*/
                                    recover));
    EXPECT_TRUE(report.ok());
    Outcome out;
    out.repairs_attempted = report->repairs_attempted;
    out.recoveries_resumed = report->recoveries_resumed;
    ValidityOracle oracle(&fw);
    auto audit = oracle.Audit(*d, *report);
    EXPECT_TRUE(audit.ok());
    if (audit.ok()) out.verdict = audit->verdict;
    return out;
  };
  Outcome forever = run(false);
  Outcome recovered = run(true);
  EXPECT_GT(forever.repairs_attempted, 0u)
      << "baseline never repaired; the comparison is vacuous";
  EXPECT_LT(recovered.repairs_attempted, forever.repairs_attempted);
  EXPECT_GT(recovered.recoveries_resumed, 0u);
  EXPECT_NE(forever.verdict, TrialVerdict::kInvalid);
  EXPECT_NE(recovered.verdict, TrialVerdict::kInvalid);
}

// Epoch fencing, incumbent-first arm: operators stay down long enough for
// the controller to confirm the loss and issue a repair, but the recruits
// (all killed) never ack — when the incumbents then return, the in-flight
// repair is cancelled and the chains revert to their generation-0 owners.
TEST(RecoveryTest, InFlightRepairCancelledWhenIncumbentReturnsFirst) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  ASSERT_FALSE(d->spare_pool.empty());
  // Every spare is dead before the query starts: recruits can never ack.
  KillAllAt(&fw, d->spare_pool, 1 * kSecond);
  // Down 42 s: suspicion (~15 s lease) + confirm grace (15 s) both elapse,
  // a repair is issued, and only then do the incumbents come back.
  CrashRecoverAllAt(&fw, ChainDevices(*d), 6 * kSecond, 42 * kSecond);

  auto report = fw.Execute(*d, RecoveryExec(/*repair_on=*/true,
                                            /*recovery_on=*/true));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->repairs_attempted, 0u);
  EXPECT_GT(report->repairs_cancelled_by_return, 0u);
  EXPECT_GT(report->recoveries_resumed, 0u);

  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_NE(audit->verdict, TrialVerdict::kInvalid) << audit->detail;
}

// Integrity gate: when every checkpoint write tears, a rebooted device has
// nothing verifiable to resume from. It must stay retired — the detector
// confirms the loss and the repair path recruits around it — and the
// execution must never land successful-but-invalid on the strength of a
// corrupt store.
TEST(RecoveryTest, CorruptStoreDegradesToRecruitAroundNeverInvalid) {
  EdgeletFramework fw(SmallFleet(/*seed=*/7));
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  CrashRecoverAllAt(&fw, ChainDevices(*d), 6 * kSecond, 10 * kSecond);

  exec::ExecutionConfig ec = RecoveryExec(/*repair_on=*/true,
                                          /*recovery_on=*/true);
  ec.recovery.store_faults.torn_write_probability = 1.0;
  ec.recovery.store_faults.seed = 99;
  auto report = fw.Execute(*d, ec);
  ASSERT_TRUE(report.ok());
  // Every builder checkpointed before the crash, and every one of those
  // writes was torn: none of them may resume from state. The computers
  // crashed before their first checkpoint — a *clean* empty log — and are
  // allowed to rejoin fresh, which is why the bound is "no builder" rather
  // than "nobody".
  size_t builder_devices = 0;
  for (const auto& partition : d->sb_groups) {
    for (const auto& group : partition) builder_devices += group.size();
  }
  const size_t chain_devices = ChainDevices(*d).size();
  ASSERT_GT(builder_devices, 0u);
  EXPECT_LE(report->recoveries_resumed, chain_devices - builder_devices)
      << "an operator resumed from a store whose every record was torn";
  EXPECT_GT(report->store_integrity_failures, 0u);
  EXPECT_GT(report->repairs_attempted, 0u)
      << "recruit-around never engaged for the unrecoverable operators";

  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_NE(audit->verdict, TrialVerdict::kInvalid) << audit->detail;
}

// Repeated crashes of one device: every operator reboots twice, so each
// one is resumed on top of an earlier resumed incarnation whose resend
// timers are still pending. Those timers must find a live (defunct) actor,
// never a freed one; under ASan this is the regression gate for that.
TEST(RecoveryTest, SecondRebootOfEveryOperator) {
  struct Arm {
    Strategy strategy;
    bool repair_on;
  };
  for (const Arm& arm : {Arm{Strategy::kOvercollection, true},
                         Arm{Strategy::kOvercollection, false},
                         Arm{Strategy::kBackup, false}}) {
    SCOPED_TRACE(std::string(exec::StrategyName(arm.strategy)) +
                 (arm.repair_on ? ", repair on" : ", repair off"));
    EdgeletFramework fw(SmallFleet(/*seed=*/7));
    ASSERT_TRUE(fw.Init().ok());
    auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, arm.strategy);
    ASSERT_TRUE(d.ok());
    const std::vector<net::NodeId> nodes = OperatorDevices(*d);
    CrashRecoverAllAt(&fw, nodes, 10 * kSecond, 8 * kSecond);
    CrashRecoverAllAt(&fw, nodes, 40 * kSecond, 8 * kSecond);

    auto report = fw.Execute(*d, RecoveryExec(arm.repair_on,
                                              /*recovery_on=*/true));
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report->recoveries_resumed, 0u);
    ValidityOracle oracle(&fw);
    auto audit = oracle.Audit(*d, *report);
    ASSERT_TRUE(audit.ok());
    EXPECT_NE(audit->verdict, TrialVerdict::kInvalid) << audit->detail;
  }
}

// Live-transport conformance leg (DESIGN.md §5j): the same crash-recovery
// scenario on real threads and a scaled clock. Only valid-result
// equivalence is promised — the gate is resumes happen and the verdict is
// never successful-but-invalid.
TEST(RecoveryTest, LiveTransportCrashRecoveryStaysValid) {
  FrameworkConfig cfg = SmallFleet(/*seed=*/7);
  cfg.transport = TransportBackend::kLive;
  cfg.live_workers = 4;
  EdgeletFramework fw(cfg);
  ASSERT_TRUE(fw.Init().ok());
  auto d = fw.Plan(MiniQuery(), {}, {0.1, 0.99}, Strategy::kOvercollection);
  ASSERT_TRUE(d.ok());
  CrashRecoverAllAt(&fw, ChainDevices(*d), 10 * kSecond, 8 * kSecond);

  auto report = fw.Execute(*d, RecoveryExec(/*repair_on=*/true,
                                            /*recovery_on=*/true));
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->recoveries_resumed, 0u);
  ValidityOracle oracle(&fw);
  auto audit = oracle.Audit(*d, *report);
  ASSERT_TRUE(audit.ok());
  EXPECT_NE(audit->verdict, TrialVerdict::kInvalid) << audit->detail;
}

}  // namespace
}  // namespace edgelet::core
