#include "device/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/generator.h"

namespace edgelet::device {
namespace {


// Direct-device tests drive the simulator to drain; churn would reschedule
// transitions forever, so pin the profiles to always-on.
DeviceProfile NoChurn(DeviceProfile p) {
  p.churn = net::ChurnModel::AlwaysOn();
  return p;
}

// Query tag the single-query tests bind and send under.
constexpr uint64_t kTag = 1;

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest()
      : sim_(1),
        network_(&sim_, net::NetworkConfig{}),
        authority_(42) {}

  net::Simulator sim_;
  net::Network network_;
  tee::TrustAuthority authority_;
};

TEST_F(DeviceTest, ProfilesAreCalibrated) {
  EXPECT_EQ(DeviceProfile::Pc().cls, DeviceClass::kPcSgx);
  EXPECT_EQ(DeviceProfile::Smartphone().cls,
            DeviceClass::kSmartphoneTrustZone);
  EXPECT_EQ(DeviceProfile::HomeBox().cls, DeviceClass::kHomeBoxTpm);
  // The home box (STM32) is much slower than the PC.
  EXPECT_GT(DeviceProfile::HomeBox().compute_factor,
            10 * DeviceProfile::Pc().compute_factor);
  EXPECT_EQ(DeviceClassName(DeviceClass::kHomeBoxTpm), "HomeBox/TPM");
}

TEST_F(DeviceTest, ComputeCostScalesWithProfile) {
  Device pc(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  Device box(&network_, &authority_, NoChurn(DeviceProfile::HomeBox()), "code");
  EXPECT_GT(box.ComputeCost(1000), pc.ComputeCost(1000));
  EXPECT_EQ(pc.ComputeCost(0), 0u);
  EXPECT_EQ(pc.ComputeCost(2000), 2 * pc.ComputeCost(1000));
}

TEST_F(DeviceTest, SealedMessagingEndToEnd) {
  Device a(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  Device b(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  ASSERT_TRUE(a.enclave().Provision().ok());
  ASSERT_TRUE(b.enclave().Provision().ok());

  Bytes received;
  b.BindQueryHandler(kTag, this, [&](const net::Message& msg) {
    auto opened = b.OpenPayload(msg);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    received = *opened;
  });
  ASSERT_TRUE(
      a.SendSealed(b.id(), 7, BytesFromString("hello box"), kTag).ok());
  sim_.Run();
  EXPECT_EQ(StringFromBytes(received), "hello box");
}

TEST_F(DeviceTest, OpenPayloadIntoReusesScratch) {
  Device a(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  Device b(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  ASSERT_TRUE(a.enclave().Provision().ok());
  ASSERT_TRUE(b.enclave().Provision().ok());

  Bytes scratch;  // one buffer across all deliveries
  std::vector<std::string> received;
  b.BindQueryHandler(kTag, this, [&](const net::Message& msg) {
    Status s = b.OpenPayloadInto(msg, &scratch);
    ASSERT_TRUE(s.ok()) << s.ToString();
    received.push_back(StringFromBytes(scratch));
  });
  ASSERT_TRUE(
      a.SendSealed(b.id(), 7, BytesFromString("first message"), kTag).ok());
  ASSERT_TRUE(a.SendSealed(b.id(), 7, BytesFromString("2nd"), kTag).ok());
  sim_.Run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "first message");
  EXPECT_EQ(received[1], "2nd");
}

TEST_F(DeviceTest, SealedPayloadIsCiphertextOnTheWire) {
  Device a(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  Device b(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  ASSERT_TRUE(a.enclave().Provision().ok());
  ASSERT_TRUE(b.enclave().Provision().ok());
  Bytes wire;
  b.BindQueryHandler(kTag, this,
                     [&](const net::Message& msg) { wire = msg.payload; });
  Bytes secret = BytesFromString("raw medical record");
  ASSERT_TRUE(a.SendSealed(b.id(), 1, secret, kTag).ok());
  sim_.Run();
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire.size(), secret.size() + 16);  // AEAD tag
  EXPECT_NE(Bytes(wire.begin(), wire.end() - 16), secret);
}

TEST_F(DeviceTest, UnprovisionedSendFails) {
  Device a(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  EXPECT_FALSE(a.SendSealed(99, 1, BytesFromString("x"), kTag).ok());
}

TEST_F(DeviceTest, SequenceNumbersAdvancePerMessage) {
  Device a(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  Device b(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  ASSERT_TRUE(a.enclave().Provision().ok());
  ASSERT_TRUE(b.enclave().Provision().ok());
  std::vector<uint64_t> seqs;
  int opened_count = 0;
  b.BindQueryHandler(kTag, this, [&](const net::Message& msg) {
    seqs.push_back(msg.seq);
    if (b.OpenPayload(msg).ok()) ++opened_count;
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(a.SendSealed(b.id(), 1, BytesFromString("m"), kTag).ok());
  }
  sim_.Run();
  ASSERT_EQ(seqs.size(), 5u);
  std::sort(seqs.begin(), seqs.end());
  for (int i = 1; i < 5; ++i) EXPECT_NE(seqs[i - 1], seqs[i]);
  EXPECT_EQ(opened_count, 5);
}

// A device routes by query tag only: each query's traffic reaches its own
// handler, and a message whose tag has no binding (tag 0 included) is
// dropped. Unbinding is owner-checked, so a stale owner cannot remove the
// binding that replaced it.
TEST_F(DeviceTest, QueryTagsIsolateHandlers) {
  Device a(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  Device b(&network_, &authority_, NoChurn(DeviceProfile::Pc()), "code");
  ASSERT_TRUE(a.enclave().Provision().ok());
  ASSERT_TRUE(b.enclave().Provision().ok());
  std::vector<uint32_t> got_a, got_b, got_stale;
  int owner_a = 0, owner_b = 0, stale = 0;
  b.BindQueryHandler(1, &owner_a, [&](const net::Message& msg) {
    got_a.push_back(msg.type);
  });
  b.BindQueryHandler(2, &stale, [&](const net::Message& msg) {
    got_stale.push_back(msg.type);
  });
  // Rebinding tag 2 replaces the stale owner; its unbind is then a no-op.
  b.BindQueryHandler(2, &owner_b, [&](const net::Message& msg) {
    got_b.push_back(msg.type);
  });
  b.UnbindQueryHandler(2, &stale);
  EXPECT_EQ(b.query_bindings(), 2u);

  a.SendControl(b.id(), 10, {}, /*query_tag=*/1);
  a.SendControl(b.id(), 20, {}, /*query_tag=*/2);
  a.SendControl(b.id(), 30, {}, /*query_tag=*/0);
  a.SendControl(b.id(), 40, {}, /*query_tag=*/3);
  ASSERT_TRUE(a.SendSealed(b.id(), 50, BytesFromString("x"), 2).ok());
  sim_.Run();
  std::sort(got_b.begin(), got_b.end());  // latencies may reorder them
  EXPECT_EQ(got_a, std::vector<uint32_t>{10});
  EXPECT_EQ(got_b, (std::vector<uint32_t>{20, 50}));
  EXPECT_TRUE(got_stale.empty());

  // Once the owner unbinds, its tag is dropped like any unknown one.
  b.UnbindQueryHandler(1, &owner_a);
  EXPECT_EQ(b.query_bindings(), 1u);
  a.SendControl(b.id(), 60, {}, /*query_tag=*/1);
  sim_.Run();
  EXPECT_EQ(got_a, std::vector<uint32_t>{10});
  EXPECT_EQ(got_b, (std::vector<uint32_t>{20, 50}));
}

TEST_F(DeviceTest, FleetConstruction) {
  FleetConfig cfg;
  cfg.num_contributors = 50;
  cfg.num_processors = 10;
  Fleet fleet(&network_, &authority_, cfg, 7);
  EXPECT_EQ(fleet.contributors().size(), 50u);
  EXPECT_EQ(fleet.processors().size(), 10u);
  EXPECT_EQ(fleet.size(), 60u);
  net::NodeId some = fleet.processors()[3]->id();
  EXPECT_EQ(fleet.by_node(some), fleet.processors()[3]);
  EXPECT_EQ(fleet.by_node(999999), nullptr);
}

TEST_F(DeviceTest, FleetMixRoughlyRespected) {
  FleetConfig cfg;
  cfg.num_contributors = 1000;
  cfg.num_processors = 0;
  cfg.contributor_mix = {0.5, 0.5, 0.0};
  Fleet fleet(&network_, &authority_, cfg, 11);
  int pc = 0, phone = 0, box = 0;
  for (Device* d : fleet.contributors()) {
    switch (d->profile().cls) {
      case DeviceClass::kPcSgx:
        ++pc;
        break;
      case DeviceClass::kSmartphoneTrustZone:
        ++phone;
        break;
      case DeviceClass::kHomeBoxTpm:
        ++box;
        break;
    }
  }
  EXPECT_EQ(box, 0);
  EXPECT_NEAR(pc, 500, 60);
  EXPECT_NEAR(phone, 500, 60);
}

TEST_F(DeviceTest, FleetDataDistribution) {
  FleetConfig cfg;
  cfg.num_contributors = 20;
  cfg.num_processors = 2;
  Fleet fleet(&network_, &authority_, cfg, 3);
  data::HealthDataParams params;
  params.num_individuals = 20;
  data::TableView population(std::make_shared<const data::ColumnTable>(
      data::GenerateHealthColumns(params, 5)));
  ASSERT_TRUE(fleet.DistributeData(population).ok());
  const data::Table table = population.ToTable();
  for (size_t i = 0; i < 20; ++i) {
    const data::Table local = fleet.contributors()[i]->local_view().ToTable();
    ASSERT_EQ(local.num_rows(), 1u);
    EXPECT_EQ(local.row(0), table.row(i));
  }
  // Wrong cardinality rejected.
  EXPECT_FALSE(fleet.DistributeData(population.Slice(0, 5)).ok());
}

TEST_F(DeviceTest, FleetProvisionAll) {
  FleetConfig cfg;
  cfg.num_contributors = 5;
  cfg.num_processors = 5;
  Fleet fleet(&network_, &authority_, cfg, 3);
  ASSERT_TRUE(fleet.ProvisionAll().ok());
  for (Device* d : fleet.processors()) {
    EXPECT_TRUE(d->enclave().provisioned());
  }
}

TEST_F(DeviceTest, ChurnDisabledMakesDevicesAlwaysOn) {
  FleetConfig cfg;
  cfg.num_contributors = 0;
  cfg.num_processors = 30;
  cfg.enable_churn = false;
  Fleet fleet(&network_, &authority_, cfg, 3);
  sim_.RunUntil(2 * kHour);
  for (Device* d : fleet.processors()) {
    EXPECT_TRUE(network_.IsOnline(d->id()));
  }
}

TEST_F(DeviceTest, FailurePlanProbability) {
  std::vector<net::NodeId> targets;
  for (net::NodeId i = 1; i <= 2000; ++i) targets.push_back(i);
  Rng rng(9);
  FailurePlan plan = PlanFailures(targets, 0.25, 0, 1000, &rng);
  EXPECT_NEAR(plan.kills.size(), 500, 60);
  for (const auto& [id, when] : plan.kills) {
    EXPECT_LT(when, 1000u);
  }
  FailurePlan none = PlanFailures(targets, 0.0, 0, 1000, &rng);
  EXPECT_TRUE(none.kills.empty());
  FailurePlan all = PlanFailures(targets, 1.0, 0, 1000, &rng);
  EXPECT_EQ(all.kills.size(), targets.size());
}

TEST_F(DeviceTest, ScheduledFailuresKill) {
  FleetConfig cfg;
  cfg.num_contributors = 0;
  cfg.num_processors = 4;
  cfg.enable_churn = false;
  Fleet fleet(&network_, &authority_, cfg, 3);
  FailurePlan plan;
  plan.kills.emplace_back(fleet.processors()[0]->id(), 100);
  plan.kills.emplace_back(fleet.processors()[1]->id(), 200);
  ScheduleFailures(&network_, plan);
  sim_.Run();
  EXPECT_TRUE(network_.IsDead(fleet.processors()[0]->id()));
  EXPECT_TRUE(network_.IsDead(fleet.processors()[1]->id()));
  EXPECT_FALSE(network_.IsDead(fleet.processors()[2]->id()));
}

}  // namespace
}  // namespace edgelet::device
