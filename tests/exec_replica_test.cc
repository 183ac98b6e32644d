#include "exec/replica.h"

#include <gtest/gtest.h>

#include "device/fleet.h"

namespace edgelet::exec {
namespace {

// The query the replica groups under test serve; pings carry its tag.
constexpr uint64_t kQuery = 1;

// Harness: a replica group of `size` devices with rank order = creation
// order; each device routes kLeaderPing to its ReplicaRole.
class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest()
      : sim_(1),
        network_(&sim_, {}),
        transport_(&sim_, &network_),
        authority_(1) {}

  void BuildGroup(size_t size, SimTime stop_at = kSimTimeNever) {
    std::vector<net::NodeId> members;
    for (size_t i = 0; i < size; ++i) {
      auto profile = device::DeviceProfile::Pc();
      profile.churn = net::ChurnModel::AlwaysOn();
      devices_.push_back(std::make_unique<device::Device>(
          &network_, &authority_, profile, "code"));
      members.push_back(devices_.back()->id());
    }
    for (size_t i = 0; i < size; ++i) {
      ReplicaRole::Config cfg;
      cfg.group_id = 7;
      cfg.members = members;
      cfg.ping_period = 2 * kSecond;
      cfg.failover_timeout = 5 * kSecond;
      cfg.stop_at = stop_at;
      roles_.push_back(std::make_unique<ReplicaRole>(
          &transport_, devices_[i].get(), kQuery, cfg));
      device::Device* dev = devices_[i].get();
      ReplicaRole* role = roles_.back().get();
      dev->BindQueryHandler(kQuery, role, [role](const net::Message& msg) {
        if (msg.type != kLeaderPing) return;
        auto ping = LeaderPingMsg::Decode(msg.payload);
        if (ping.ok()) role->HandlePing(*ping);
      });
    }
    for (auto& r : roles_) r->Start();
  }

  net::Simulator sim_;
  net::Network network_;
  net::Transport transport_;
  tee::TrustAuthority authority_;
  std::vector<std::unique_ptr<device::Device>> devices_;
  std::vector<std::unique_ptr<ReplicaRole>> roles_;
};

TEST_F(ReplicaTest, RanksFollowMemberOrder) {
  BuildGroup(3, /*stop_at=*/kMinute);
  EXPECT_FALSE(roles_[0]->misconfigured());
  EXPECT_EQ(roles_[0]->rank(), 0u);
  EXPECT_EQ(roles_[1]->rank(), 1u);
  EXPECT_EQ(roles_[2]->rank(), 2u);
  EXPECT_TRUE(roles_[0]->is_leader());
  EXPECT_FALSE(roles_[1]->is_leader());
  EXPECT_FALSE(roles_[2]->is_leader());
}

TEST_F(ReplicaTest, SingletonGroupIsSilentLeader) {
  BuildGroup(1);
  EXPECT_TRUE(roles_[0]->is_leader());
  sim_.Run();  // no pings scheduled: queue drains immediately
  EXPECT_EQ(network_.stats().messages_sent, 0u);
}

TEST_F(ReplicaTest, StableLeaderPreventsPromotion) {
  BuildGroup(3, /*stop_at=*/2 * kMinute);
  sim_.RunUntil(2 * kMinute);
  EXPECT_TRUE(roles_[0]->is_leader());
  EXPECT_FALSE(roles_[1]->is_leader());
  EXPECT_FALSE(roles_[2]->is_leader());
  EXPECT_GT(network_.stats().messages_sent, 0u);  // pings flowed
}

TEST_F(ReplicaTest, Rank1PromotesWhenLeaderDies) {
  BuildGroup(3, /*stop_at=*/2 * kMinute);
  bool promoted = false;
  roles_[1]->set_on_promote([&] { promoted = true; });
  sim_.ScheduleAt(10 * kSecond,
                  [this] { network_.Kill(devices_[0]->id()); });
  sim_.RunUntil(2 * kMinute);
  EXPECT_TRUE(promoted);
  EXPECT_TRUE(roles_[1]->is_leader());
}

TEST_F(ReplicaTest, PromotionCascadesInRankOrder) {
  BuildGroup(3, /*stop_at=*/5 * kMinute);
  SimTime t1 = 0, t2 = 0;
  roles_[1]->set_on_promote([&] { t1 = sim_.now(); });
  roles_[2]->set_on_promote([&] { t2 = sim_.now(); });
  // Kill ranks 0 and 1: rank 2 must take over, after rank 1 would have.
  sim_.ScheduleAt(10 * kSecond, [this] {
    network_.Kill(devices_[0]->id());
    network_.Kill(devices_[1]->id());
  });
  sim_.RunUntil(5 * kMinute);
  EXPECT_EQ(t1, 0u);  // dead rank 1 never promoted
  EXPECT_GT(t2, 10 * kSecond);
  EXPECT_TRUE(roles_[2]->is_leader());
}

TEST_F(ReplicaTest, Rank2WaitsLongerThanRank1) {
  BuildGroup(3, /*stop_at=*/5 * kMinute);
  SimTime promote1 = 0, promote2 = 0;
  roles_[1]->set_on_promote([&] { promote1 = sim_.now(); });
  roles_[2]->set_on_promote([&] { promote2 = sim_.now(); });
  sim_.ScheduleAt(kSecond, [this] { network_.Kill(devices_[0]->id()); });
  sim_.RunUntil(5 * kMinute);
  // Rank 1 promotes; its pings keep rank 2 from promoting.
  EXPECT_GT(promote1, 0u);
  EXPECT_EQ(promote2, 0u);
}

TEST_F(ReplicaTest, ReturningLeaderReclaimsLeadership) {
  BuildGroup(2, /*stop_at=*/10 * kMinute);
  // Leader goes offline (not dead) long enough for rank 1 to promote,
  // then returns; pings resume and rank 1 yields.
  sim_.ScheduleAt(5 * kSecond,
                  [this] { network_.SetOnline(devices_[0]->id(), false); });
  sim_.ScheduleAt(60 * kSecond,
                  [this] { network_.SetOnline(devices_[0]->id(), true); });
  sim_.RunUntil(2 * kMinute);
  EXPECT_TRUE(roles_[0]->is_leader());
  EXPECT_FALSE(roles_[1]->is_leader());
}

TEST_F(ReplicaTest, StopsAtConfiguredTime) {
  BuildGroup(2, /*stop_at=*/30 * kSecond);
  sim_.RunUntil(kMinute);
  uint64_t sent_at_stop = network_.stats().messages_sent;
  sim_.RunUntil(10 * kMinute);
  // No further pings after stop_at.
  EXPECT_EQ(network_.stats().messages_sent, sent_at_stop);
}

TEST_F(ReplicaTest, IgnoresPingsFromOtherGroups) {
  BuildGroup(2, /*stop_at=*/kMinute);
  LeaderPingMsg foreign{999, 0};
  roles_[1]->HandlePing(foreign);  // must not count as lower-rank ping
  // Kill the real leader; rank 1 should still promote on schedule.
  network_.Kill(devices_[0]->id());
  sim_.RunUntil(kMinute);
  EXPECT_TRUE(roles_[1]->is_leader());
}

TEST_F(ReplicaTest, DeviceAbsentFromMembersIsFlaggedMisconfigured) {
  // Before the fix this device silently got rank == members.size(): it
  // never pinged, never counted as a lower rank for anyone, and never
  // promoted — a dead replica that looked alive.
  auto profile = device::DeviceProfile::Pc();
  profile.churn = net::ChurnModel::AlwaysOn();
  device::Device outsider(&network_, &authority_, profile, "code");
  ReplicaRole::Config cfg;
  cfg.group_id = 7;
  cfg.members = {outsider.id() + 100, outsider.id() + 101};
  ReplicaRole role(&transport_, &outsider, kQuery, cfg);
  EXPECT_TRUE(role.misconfigured());
  EXPECT_FALSE(role.is_leader());
  EXPECT_EQ(role.rank(), cfg.members.size());
}

TEST_F(ReplicaTest, MisconfiguredRoleAbortsOnStart) {
  auto profile = device::DeviceProfile::Pc();
  profile.churn = net::ChurnModel::AlwaysOn();
  device::Device outsider(&network_, &authority_, profile, "code");
  ReplicaRole::Config cfg;
  cfg.group_id = 7;
  cfg.members = {outsider.id() + 100};
  ReplicaRole role(&transport_, &outsider, kQuery, cfg);
  ASSERT_TRUE(role.misconfigured());
  EXPECT_DEATH(role.Start(), "not a member");
}

}  // namespace
}  // namespace edgelet::exec
