#include "resilience/overcollection.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "resilience/failure_detector.h"

namespace edgelet::resilience {
namespace {

// Independent reference for the binomial tail, written against a different
// formulation than the library's (log-space term recursion there; direct
// lgamma-based log-PMF summation here) so a shared algebra slip cannot
// cancel out.
double RefProbAtLeast(int need, int total, double s) {
  if (need <= 0) return 1.0;
  if (need > total) return 0.0;
  if (s <= 0.0) return 0.0;
  if (s >= 1.0) return 1.0;
  double sum = 0.0;
  for (int k = need; k <= total; ++k) {
    double log_pmf = std::lgamma(total + 1.0) - std::lgamma(k + 1.0) -
                     std::lgamma(total - k + 1.0) + k * std::log(s) +
                     (total - k) * std::log1p(-s);
    sum += std::exp(log_pmf);
  }
  return std::min(sum, 1.0);
}

// Reference minimal-m search against RefProbAtLeast.
int RefMinOvercollection(int n, double p, double target, int ops) {
  double s = std::pow(1.0 - p, ops);
  for (int m = 0;; ++m) {
    if (RefProbAtLeast(n, n + m, s) >= target) return m;
  }
}

TEST(ProbAtLeastTest, DegenerateCases) {
  EXPECT_DOUBLE_EQ(ProbAtLeast(0, 10, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(ProbAtLeast(11, 10, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(ProbAtLeast(5, 10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(ProbAtLeast(5, 10, 0.0), 0.0);
}

TEST(ProbAtLeastTest, MatchesClosedForms) {
  // P[>=1 of 2 @ 0.5] = 0.75
  EXPECT_NEAR(ProbAtLeast(1, 2, 0.5), 0.75, 1e-12);
  // P[>=2 of 2 @ 0.9] = 0.81
  EXPECT_NEAR(ProbAtLeast(2, 2, 0.9), 0.81, 1e-12);
  // P[>=2 of 3 @ 0.5] = 0.5
  EXPECT_NEAR(ProbAtLeast(2, 3, 0.5), 0.5, 1e-12);
}

TEST(ProbAtLeastTest, MonotoneInSurvival) {
  double prev = 0.0;
  for (double s = 0.05; s < 1.0; s += 0.05) {
    double p = ProbAtLeast(8, 12, s);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(ProbAtLeastTest, MonotoneInTotal) {
  double prev = 0.0;
  for (int total = 10; total <= 30; ++total) {
    double p = ProbAtLeast(10, total, 0.8);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(ProbAtLeastTest, AgreesWithMonteCarlo) {
  edgelet::Rng rng(8);
  const int need = 7, total = 10;
  const double s = 0.85;
  const int trials = 200000;
  int ok_count = 0;
  for (int t = 0; t < trials; ++t) {
    int alive = 0;
    for (int i = 0; i < total; ++i) alive += rng.NextBernoulli(s);
    ok_count += (alive >= need);
  }
  double mc = static_cast<double>(ok_count) / trials;
  EXPECT_NEAR(ProbAtLeast(need, total, s), mc, 0.005);
}

TEST(ProbAtLeastTest, LargeNStable) {
  // 1000 partitions: log-space computation must not under/overflow.
  double p = ProbAtLeast(1000, 1100, 0.95);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  EXPECT_GT(p, 0.99);  // E[alive] = 1045 >> 1000
}

TEST(MinOvercollectionTest, ZeroFailureNeedsNoOvercollection) {
  auto m = MinOvercollection(10, 0.0, 0.999);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, 0);
}

TEST(MinOvercollectionTest, GrowsWithFailureProbability) {
  int prev = 0;
  for (double p : {0.01, 0.05, 0.1, 0.2, 0.3}) {
    auto m = MinOvercollection(10, p, 0.99);
    ASSERT_TRUE(m.ok());
    EXPECT_GE(*m, prev);
    prev = *m;
  }
  EXPECT_GT(prev, 0);
}

TEST(MinOvercollectionTest, GrowsWithTarget) {
  auto low = MinOvercollection(10, 0.1, 0.9);
  auto high = MinOvercollection(10, 0.1, 0.99999);
  ASSERT_TRUE(low.ok() && high.ok());
  EXPECT_GT(*high, *low);
}

TEST(MinOvercollectionTest, ResultActuallyMeetsTarget) {
  for (double p : {0.02, 0.1, 0.25}) {
    for (int n : {2, 10, 50}) {
      auto m = MinOvercollection(n, p, 0.99);
      ASSERT_TRUE(m.ok());
      double s = PartitionSurvivalProbability(p, 2);
      EXPECT_GE(ProbAtLeast(n, n + *m, s), 0.99);
      if (*m > 0) {
        EXPECT_LT(ProbAtLeast(n, n + *m - 1, s), 0.99)
            << "m not minimal for n=" << n << " p=" << p;
      }
    }
  }
}

TEST(MinOvercollectionTest, MoreOpsPerPartitionNeedsMoreOvercollection) {
  auto m2 = MinOvercollection(10, 0.1, 0.99, /*ops_per_partition=*/2);
  auto m4 = MinOvercollection(10, 0.1, 0.99, /*ops_per_partition=*/4);
  ASSERT_TRUE(m2.ok() && m4.ok());
  EXPECT_GE(*m4, *m2);
}

TEST(MinOvercollectionTest, OvercollectionStaysCheap) {
  // Paper narrative: for realistic p, m << n.
  auto m = MinOvercollection(100, 0.05, 0.99);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(*m, 30);
}

TEST(MinOvercollectionTest, RejectsBadArguments) {
  EXPECT_FALSE(MinOvercollection(0, 0.1, 0.99).ok());
  EXPECT_FALSE(MinOvercollection(10, -0.1, 0.99).ok());
  EXPECT_FALSE(MinOvercollection(10, 1.0, 0.99).ok());
  EXPECT_FALSE(MinOvercollection(10, 0.1, 0.0).ok());
  EXPECT_FALSE(MinOvercollection(10, 0.1, 1.5).ok());
  EXPECT_FALSE(MinOvercollection(10, 0.1, 0.99, 0).ok());
}

TEST(MinOvercollectionTest, UnreachableTargetFails) {
  EXPECT_FALSE(MinOvercollection(10, 0.9, 0.999999, 2, /*max_m=*/3).ok());
}

TEST(MinBackupReplicasTest, ZeroFailureNeedsNone) {
  auto b = MinBackupReplicas(20, 0.0, 0.999);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 0);
}

TEST(MinBackupReplicasTest, MeetsTargetAndMinimal) {
  for (double p : {0.05, 0.2}) {
    for (int ops : {5, 20}) {
      auto b = MinBackupReplicas(ops, p, 0.99);
      ASSERT_TRUE(b.ok());
      auto meets = [&](int reps) {
        return std::pow(1.0 - std::pow(p, reps + 1), ops) >= 0.99;
      };
      EXPECT_TRUE(meets(*b));
      if (*b > 0) {
        EXPECT_FALSE(meets(*b - 1));
      }
    }
  }
}

TEST(MinBackupReplicasTest, MoreOperatorsNeedMoreReplicas) {
  auto few = MinBackupReplicas(2, 0.2, 0.999);
  auto many = MinBackupReplicas(500, 0.2, 0.999);
  ASSERT_TRUE(few.ok() && many.ok());
  EXPECT_GE(*many, *few);
}

TEST(PartitionSurvivalTest, Basics) {
  EXPECT_DOUBLE_EQ(PartitionSurvivalProbability(0.0, 3), 1.0);
  EXPECT_NEAR(PartitionSurvivalProbability(0.1, 2), 0.81, 1e-12);
  EXPECT_DOUBLE_EQ(PartitionSurvivalProbability(1.0, 1), 0.0);
}

// Pins the planner's Overcollection sizing against the independent
// reference: a partition with v vertical groups runs 2*v single-instance
// operators (one builder AND one computer per group), and MinOvercollection
// fed ops_per_partition = 2*v must agree with a from-scratch minimal-m
// search for every vgroups count the planner produces.
TEST(MinOvercollectionTest, BinomialSizingMatchesIndependentReference) {
  for (int vgroups : {1, 2, 3}) {
    for (double p : {0.05, 0.1, 0.25}) {
      for (int n : {2, 8, 20}) {
        const int ops = 2 * vgroups;
        auto m = MinOvercollection(n, p, 0.99, ops);
        ASSERT_TRUE(m.ok()) << "vgroups=" << vgroups << " p=" << p;
        EXPECT_EQ(*m, RefMinOvercollection(n, p, 0.99, ops))
            << "vgroups=" << vgroups << " p=" << p << " n=" << n;
      }
    }
  }
}

// The sizing bug the planner fix removes: modeling a v-vgroup partition as
// 1 + v operators (as if its builders shared one device) overstates the
// partition survival probability, so the resulting m misses the
// reliability target for every multi-vgroup plan. At v = 1 the two
// formulas coincide (1 + 1 == 2 * 1).
TEST(MinOvercollectionTest, OldOnePlusVgroupsFormulaUnderProvisions) {
  EXPECT_EQ(2 * 1, 1 + 1);
  bool any_under = false;
  for (int vgroups : {2, 3}) {
    for (double p : {0.1, 0.25}) {
      const int n = 10;
      auto m_old = MinOvercollection(n, p, 0.99, /*ops=*/1 + vgroups);
      ASSERT_TRUE(m_old.ok());
      // True per-partition survival: all 2*v operators alive.
      double s_true = std::pow(1.0 - p, 2 * vgroups);
      double achieved = RefProbAtLeast(n, n + *m_old, s_true);
      EXPECT_LE(achieved, 0.99 + 1e-12)
          << "old formula accidentally sufficient at vgroups=" << vgroups
          << " p=" << p;
      if (achieved < 0.99) any_under = true;
    }
  }
  EXPECT_TRUE(any_under)
      << "old formula never actually missed the target in this sweep";
}

// ---------------------------------------------------------------------------
// Heartbeat/lease failure detector.

// The lease timing is the protocol's: 5 s period, 3 misses, backoff x2
// capped at 3 steps, jitter up to 10 % of the 15 s base lease.
FailureDetectorConfig DetectorConfig() {
  FailureDetectorConfig cfg;
  cfg.seed = 42;
  return cfg;
}

TEST(FailureDetectorTest, SuspectsAfterLeaseExpiry) {
  FailureDetector fd(DetectorConfig());
  fd.Register(1, /*now=*/0);
  // Base lease = 15 s plus up to 1.5 s jitter.
  SimTime deadline = fd.SuspicionDeadline(1);
  EXPECT_GE(deadline, 15 * kSecond);
  EXPECT_LE(deadline, 15 * kSecond + 1500 * kMillisecond);
  EXPECT_TRUE(fd.Scan(deadline).empty());
  auto suspects = fd.Scan(deadline + 1);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 1u);
  EXPECT_TRUE(fd.IsSuspected(1));
  EXPECT_EQ(fd.detections(), 1u);
  // Reported exactly once until cleared.
  EXPECT_TRUE(fd.Scan(deadline + 10 * kSecond).empty());
}

TEST(FailureDetectorTest, HeartbeatRenewsLease) {
  FailureDetector fd(DetectorConfig());
  fd.Register(1, /*now=*/0);
  for (int beat = 1; beat <= 10; ++beat) {
    fd.Heartbeat(1, beat * 5 * kSecond);
    EXPECT_TRUE(fd.Scan(beat * 5 * kSecond).empty());
  }
  EXPECT_FALSE(fd.IsSuspected(1));
  EXPECT_EQ(fd.detections(), 0u);
  EXPECT_GT(fd.SuspicionDeadline(1), 50 * kSecond + 15 * kSecond);
}

TEST(FailureDetectorTest, FalseSuspicionWidensLease) {
  FailureDetector fd(DetectorConfig());
  fd.Register(1, /*now=*/0);
  SimTime first_deadline = fd.SuspicionDeadline(1);
  ASSERT_EQ(fd.Scan(first_deadline + 1).size(), 1u);
  // The "dead" operator speaks: false suspicion, lease doubles.
  SimTime beat = first_deadline + 2 * kSecond;
  fd.Heartbeat(1, beat);
  EXPECT_FALSE(fd.IsSuspected(1));
  EXPECT_EQ(fd.false_suspicions(), 1u);
  SimTime widened = fd.SuspicionDeadline(1);
  // New lease ~= 2 * 15 s (+ jitter) from the heartbeat.
  EXPECT_GE(widened - beat, 30 * kSecond);
  EXPECT_LE(widened - beat, 30 * kSecond + 3 * kSecond);
  // Backoff saturates at kMaxBackoffSteps (lease <= 15 s * 2^3 + jitter).
  for (int i = 0; i < 10; ++i) {
    SimTime d = fd.SuspicionDeadline(1);
    fd.Scan(d + 1);
    fd.Heartbeat(1, d + 2);
  }
  SimTime last_beat = fd.SuspicionDeadline(1);  // probe via one more beat
  fd.Heartbeat(1, last_beat);
  EXPECT_LE(fd.SuspicionDeadline(1) - last_beat,
            15 * kSecond * 8 + 12 * kSecond);
}

TEST(FailureDetectorTest, DeterministicAcrossInstancesAndOrder) {
  // Two detectors with the same seed must assign each op the same jitter
  // regardless of registration order: the stream is keyed by op id alone.
  FailureDetector a(DetectorConfig());
  FailureDetector b(DetectorConfig());
  a.Register(1, 0);
  a.Register(2, 0);
  a.Register(3, 0);
  b.Register(3, 0);
  b.Register(1, 0);
  b.Register(2, 0);
  for (uint64_t op : {1u, 2u, 3u}) {
    EXPECT_EQ(a.SuspicionDeadline(op), b.SuspicionDeadline(op)) << op;
  }
  // Scan reports in op-id order independent of registration order.
  EXPECT_EQ(a.Scan(100 * kSecond), b.Scan(100 * kSecond));
}

TEST(FailureDetectorTest, DeregisterStopsMonitoring) {
  FailureDetector fd(DetectorConfig());
  fd.Register(1, 0);
  fd.Register(2, 0);
  EXPECT_EQ(fd.monitored_count(), 2u);
  fd.Deregister(1);
  EXPECT_EQ(fd.monitored_count(), 1u);
  EXPECT_FALSE(fd.IsRegistered(1));
  EXPECT_EQ(fd.SuspicionDeadline(1), kSimTimeNever);
  auto suspects = fd.Scan(100 * kSecond);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 2u);
}

TEST(FailureDetectorTest, ReRegisterResetsLeaseAndSuspicion) {
  FailureDetector fd(DetectorConfig());
  fd.Register(1, 0);
  ASSERT_EQ(fd.Scan(100 * kSecond).size(), 1u);
  EXPECT_TRUE(fd.IsSuspected(1));
  // Re-registration (the repair controller replacing the operator's
  // generation) opens a fresh lease.
  fd.Register(1, 100 * kSecond);
  EXPECT_FALSE(fd.IsSuspected(1));
  EXPECT_GE(fd.SuspicionDeadline(1), 100 * kSecond + 15 * kSecond);
  EXPECT_TRUE(fd.Scan(100 * kSecond).empty());
}

// The ABA regression (DESIGN.md §5k): a heartbeat emitted by incarnation A
// just before its crash can arrive after the device rebooted as
// incarnation B — or, worse, after the controller re-registered the
// operator under B. The stale beat must be *dropped*, not allowed to renew
// a lease whose volatile state no longer exists.
TEST(FailureDetectorTest, StaleIncarnationHeartbeatCannotRenewLease) {
  FailureDetector fd(DetectorConfig());
  // The operator is on record as incarnation 2 (rebooted once already).
  fd.Register(1, /*now=*/0, /*incarnation=*/2);
  EXPECT_EQ(fd.IncarnationOf(1), 2u);
  SimTime deadline = fd.SuspicionDeadline(1);

  // A delayed straggler from incarnation 1 arrives mid-lease. Without the
  // incarnation check this would push the deadline out past `deadline`.
  fd.Heartbeat(1, 10 * kSecond, /*incarnation=*/1);
  EXPECT_EQ(fd.SuspicionDeadline(1), deadline)
      << "stale-incarnation heartbeat renewed the lease (ABA)";
  auto suspects = fd.Scan(deadline + 1);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_TRUE(fd.IsSuspected(1));

  // A stale beat cannot clear suspicion either — that would charge a
  // false suspicion and widen the lease for a dead operator.
  fd.Heartbeat(1, deadline + 2, /*incarnation=*/1);
  EXPECT_TRUE(fd.IsSuspected(1));
  EXPECT_EQ(fd.false_suspicions(), 0u);
}

TEST(FailureDetectorTest, NewerIncarnationReplacesLeaseNotRefreshesIt) {
  FailureDetectorConfig cfg = DetectorConfig();
  FailureDetector fd(cfg);
  fd.Register(1, /*now=*/0, /*incarnation=*/1);
  SimTime deadline = fd.SuspicionDeadline(1);
  ASSERT_EQ(fd.Scan(deadline + 1).size(), 1u);

  // The device rebooted: a beat from incarnation 2 means fresh
  // registration semantics — suspicion clears, the incarnation on record
  // advances, and crucially NO false suspicion is charged (the old
  // incarnation really was gone; widening the lease would slow the
  // detector down for the next real crash).
  SimTime beat = deadline + 5 * kSecond;
  fd.Heartbeat(1, beat, /*incarnation=*/2);
  EXPECT_FALSE(fd.IsSuspected(1));
  EXPECT_EQ(fd.IncarnationOf(1), 2u);
  EXPECT_EQ(fd.false_suspicions(), 0u);
  // Fresh base lease (15 s + jitter), not a backoff-widened one.
  EXPECT_LE(fd.SuspicionDeadline(1) - beat,
            15 * kSecond + 1500 * kMillisecond);
  EXPECT_GE(fd.SuspicionDeadline(1) - beat, 15 * kSecond);
}

TEST(FailureDetectorTest, ConfirmGraceSeparatesSuspectedFromLost) {
  FailureDetectorConfig cfg = DetectorConfig();
  cfg.confirm_grace = 10 * kSecond;
  FailureDetector fd(cfg);
  fd.Register(1, /*now=*/0);
  SimTime deadline = fd.SuspicionDeadline(1);
  ASSERT_EQ(fd.Scan(deadline + 1).size(), 1u);
  // Suspected immediately, but not *lost* until the grace has aged out —
  // the window a mid-reboot incumbent has to return before the repair
  // controller recruits around it.
  EXPECT_TRUE(fd.IsSuspected(1));
  EXPECT_FALSE(fd.IsConfirmedLost(1, deadline + 1));
  EXPECT_FALSE(fd.IsConfirmedLost(1, deadline + 10 * kSecond));
  EXPECT_TRUE(fd.IsConfirmedLost(1, deadline + 10 * kSecond + 2));
  // A returning heartbeat inside the grace clears both states.
  FailureDetector fd2(cfg);
  fd2.Register(1, /*now=*/0);
  SimTime d2 = fd2.SuspicionDeadline(1);
  ASSERT_EQ(fd2.Scan(d2 + 1).size(), 1u);
  fd2.Heartbeat(1, d2 + 5 * kSecond);
  EXPECT_FALSE(fd2.IsSuspected(1));
  EXPECT_FALSE(fd2.IsConfirmedLost(1, d2 + 20 * kSecond));
}

}  // namespace
}  // namespace edgelet::resilience
