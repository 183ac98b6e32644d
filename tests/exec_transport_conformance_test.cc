// Cross-backend conformance suite: the same planned QEP over the same
// crowd must yield the identical *valid* final result table on the DES
// engine and on the live thread-backed engine (net::live::LiveEngine) —
// for both resiliency strategies, and for a scoped drop/delay chaos
// subset whose per-sender fault schedules are backend-invariant by
// construction.
//
// What can be compared bit-exactly: configurations whose result is
// arrival-order independent. Here every contributor qualifies and the
// quota equals the full crowd, so the snapshot is the whole crowd no
// matter which order contributions land in, and the aggregates (COUNT,
// MIN, MAX, integer AVG inputs aggregated per identical row sets) are
// insensitive to merge order. Timing metadata (completion times, event
// counts) legitimately differs and is excluded — the comparison is the
// sorted final table plus the ValidityOracle verdict, not the report
// fingerprint. See DESIGN.md §5j.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "chaos/chaos.h"
#include "core/framework.h"
#include "exec/execution.h"
#include "exec/protocol.h"

namespace edgelet::core {
namespace {

using exec::Strategy;
using query::AggregateFunction;
using query::CompareOp;

constexpr size_t kCrowd = 60;

// Every member qualifies (age is always > 0), so the qualifying crowd is
// exactly the fleet and a quota of kCrowd fills deterministically.
query::Query ConformanceQuery() {
  query::Query q;
  q.query_id = 41;
  q.kind = query::QueryKind::kGroupingSets;
  q.predicates = {{"age", CompareOp::kGt, data::Value(int64_t{0})}};
  q.snapshot_cardinality = kCrowd;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}, {"sex"}},
      {{AggregateFunction::kCount, "*"},
       {AggregateFunction::kMin, "age"},
       {AggregateFunction::kMax, "systolic_bp"}}};
  return q;
}

FrameworkConfig ConformanceFleet(TransportBackend backend) {
  FrameworkConfig cfg;
  cfg.fleet.num_contributors = kCrowd;
  cfg.fleet.num_processors = 24;
  cfg.fleet.enable_churn = false;
  cfg.network.drop_probability = 0.0;
  cfg.seed = 4242;  // same seed on both backends: same data, same plan
  cfg.transport = backend;
  cfg.live_workers = 4;
  return cfg;
}

struct ConformanceRun {
  bool success = false;
  bool valid = false;
  data::Table result;
  std::vector<std::vector<uint64_t>> snapshot;  // contributors per vgroup
};

// Plans and executes the conformance query on a fresh framework over the
// given backend; optionally under a chaos scenario (attached after Init,
// when every node is registered).
ConformanceRun RunOnce(TransportBackend backend, Strategy strategy,
                       const chaos::ChaosConfig* chaos_config) {
  EdgeletFramework fw(ConformanceFleet(backend));
  EXPECT_TRUE(fw.Init().ok());

  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = kCrowd;  // n = 1: one full partition
  auto d = fw.Plan(ConformanceQuery(), privacy, {0.0, 0.5}, strategy);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->n, 1);
  EXPECT_EQ(d->quota, kCrowd);

  chaos::ChaosInjector injector(chaos_config != nullptr ? *chaos_config
                                                        : chaos::ChaosConfig{});
  if (chaos_config != nullptr) injector.AttachTo(fw.network());

  exec::ExecutionConfig ec;
  ec.collection_window = 60 * kSecond;
  ec.deadline = 8 * kMinute;
  ec.inject_failures = false;
  ec.seed = 99;
  if (chaos_config != nullptr) {
    // Scoped drops hit only re-sent emission types; give the resend tails
    // enough budget that every slice/partial/result survives its schedule.
    ec.emission_resends = 6;
    ec.result_resends = 6;
  }
  auto report = fw.Execute(*d, ec);
  injector.Detach();
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  ConformanceRun out;
  out.success = report->success;
  if (!report->success) return out;
  out.result = report->result;
  // The snapshot records contributors in arrival order, which is timing
  // metadata (it legitimately differs across backends and host load); the
  // cross-backend invariant is the sampled *membership* per vgroup.
  out.snapshot = report->snapshot_contributors_by_vgroup;
  for (auto& vgroup : out.snapshot) {
    std::sort(vgroup.begin(), vgroup.end());
  }
  auto validity = fw.VerifyGroupingSets(*d, *report);
  EXPECT_TRUE(validity.ok()) << validity.status().ToString();
  out.valid = validity->valid;
  EXPECT_TRUE(validity->valid) << validity->detail;
  return out;
}

void ExpectIdenticalValidResults(const ConformanceRun& sim,
                                 const ConformanceRun& live,
                                 const char* label) {
  ASSERT_TRUE(sim.success) << label << ": sim run failed";
  ASSERT_TRUE(live.success) << label << ": live run failed";
  EXPECT_TRUE(sim.valid) << label;
  EXPECT_TRUE(live.valid) << label;
  // The full crowd in the snapshot on both backends: the sampled sets
  // (not just the aggregates) must agree.
  EXPECT_EQ(sim.snapshot, live.snapshot) << label;
  ValidityReport same = CompareResultTables(live.result, sim.result);
  EXPECT_TRUE(same.valid)
      << label << ": live final table diverged from sim: " << same.detail;
}

TEST(TransportConformance, OvercollectionIdenticalValidResult) {
  const ConformanceRun sim =
      RunOnce(TransportBackend::kSim, Strategy::kOvercollection, nullptr);
  const ConformanceRun live =
      RunOnce(TransportBackend::kLive, Strategy::kOvercollection, nullptr);
  ExpectIdenticalValidResults(sim, live, "overcollection");
}

TEST(TransportConformance, BackupIdenticalValidResult) {
  const ConformanceRun sim =
      RunOnce(TransportBackend::kSim, Strategy::kBackup, nullptr);
  const ConformanceRun live =
      RunOnce(TransportBackend::kLive, Strategy::kBackup, nullptr);
  ExpectIdenticalValidResults(sim, live, "backup");
}

// Chaos subset: drops scoped to the re-sent emission types (snapshot
// slices, computed partials, final results — never the one-shot
// contributions) plus loss-free delay spikes on everything. Each sender's
// in-scope message count is backend-invariant (timer-driven emission
// schedules), so its positional fault schedule — drawn from its own
// counter-based stream — is too: the same messages survive, and the
// final valid table must still match bit-exactly.
TEST(TransportConformance, ScopedDropAndDelayChaosStillIdentical) {
  chaos::ChaosConfig chaos_config;
  chaos_config.seed = 7;
  chaos_config.drop_probability = 0.25;
  chaos_config.delay_spike_probability = 0.2;
  chaos_config.delay_spike_mean = 2 * kSecond;
  chaos_config.only_message_types = {exec::kSnapshotSlice, exec::kGsPartial,
                                     exec::kFinalResult};
  const ConformanceRun sim =
      RunOnce(TransportBackend::kSim, Strategy::kOvercollection,
              &chaos_config);
  const ConformanceRun live =
      RunOnce(TransportBackend::kLive, Strategy::kOvercollection,
              &chaos_config);
  ExpectIdenticalValidResults(sim, live, "scoped chaos");
}

// Live-backend chaos smoke: broad unscoped drops and delay spikes over
// real threads. Success is not guaranteed (contributions can be lost),
// but the safety property is absolute: zero successful-but-invalid
// results — a run either delivers the correct answer or fails safe.
TEST(TransportConformance, LiveBroadChaosNeverSuccessfulButInvalid) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{11}}) {
    chaos::ChaosConfig chaos_config;
    chaos_config.seed = seed;
    chaos_config.drop_probability = 0.05;
    chaos_config.delay_spike_probability = 0.3;
    chaos_config.delay_spike_mean = 5 * kSecond;
    const ConformanceRun live = RunOnce(
        TransportBackend::kLive, Strategy::kOvercollection, &chaos_config);
    if (live.success) {
      EXPECT_TRUE(live.valid) << "successful-but-invalid under live chaos, "
                              << "seed " << seed;
    }
  }
}

// The live engine runs events late, so an execution's timers can outlast
// its quiescence bound and still be pending when the execution is
// destroyed (the multi-tenant service retires executions mid-drain).
// They must then stay silent instead of firing into freed actors
// (live_asan_smoke runs this).
TEST(TransportConformance, LiveTimersOfADestroyedExecutionStaySilent) {
  EdgeletFramework fw(ConformanceFleet(TransportBackend::kLive));
  ASSERT_TRUE(fw.Init().ok());
  PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = kCrowd;
  auto d = fw.Plan(ConformanceQuery(), privacy, {0.0, 0.5},
                   Strategy::kOvercollection);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  exec::ExecutionConfig ec;
  ec.collection_window = 60 * kSecond;
  ec.deadline = 8 * kMinute;
  ec.inject_failures = false;

  net::Transport* net = fw.transport();
  auto execution =
      std::make_unique<exec::QueryExecution>(net, fw.fleet(), *d, ec);
  ASSERT_TRUE(execution->Start().ok());
  net->RunUntil(net->now() + 30 * kSecond);  // mid-collection
  ASSERT_GT(net->engine()->pending_events(), 0u);
  execution.reset();
  net->RunUntil(net->now() + 10 * kMinute);
}

}  // namespace
}  // namespace edgelet::core
