// Actor-level tests: drive snapshot builders, computers, and combiners
// directly with hand-crafted sealed messages to pin down quota handling,
// deduplication, epoch selection, and first-n combination.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "common/hash.h"
#include "data/generator.h"
#include "device/fleet.h"
#include "exec/combiner.h"
#include "exec/computer.h"
#include "exec/execution.h"
#include "exec/recovery.h"
#include "exec/snapshot_builder.h"
#include "table_views.h"

namespace edgelet::exec {
namespace {

using testutil::ViewOf;

// The query every actor under test serves; messages travel under its tag.
constexpr uint64_t kQuery = 1;

data::Schema MiniSchema() {
  return data::Schema({{"region", data::ValueType::kString},
                       {"bmi", data::ValueType::kDouble}});
}

query::GroupingSetsSpec MiniSpec() {
  return query::GroupingSetsSpec{
      {{"region"}},
      {{query::AggregateFunction::kCount, "*"},
       {query::AggregateFunction::kAvg, "bmi"}}};
}

class ActorTest : public ::testing::Test {
 protected:
  ActorTest() : sim_(1), network_(&sim_, NoDropConfig()), authority_(9) {
    authority_.set_expected_measurement(crypto::Sha256::Hash("code"));
  }

  static net::NetworkConfig NoDropConfig() {
    net::NetworkConfig cfg;
    cfg.latency.min_latency = 1 * kMillisecond;
    cfg.latency.mean_extra = 0;
    return cfg;
  }

  device::Device* NewDevice() {
    auto profile = device::DeviceProfile::Pc();
    profile.churn = net::ChurnModel::AlwaysOn();
    devices_.push_back(std::make_unique<device::Device>(
        &network_, &authority_, profile, "code"));
    EXPECT_TRUE(devices_.back()->enclave().Provision().ok());
    return devices_.back().get();
  }

  // Sends one sealed contribution row of query 1 from `from` to `to`,
  // routed under `tag`.
  void SendContribution(device::Device* from, net::NodeId to, uint64_t key,
                        const char* region, double bmi,
                        uint64_t tag = kQuery) {
    ContributionMsg msg;
    msg.query_id = 1;
    msg.contributor_key = key;
    msg.rows = data::Table(MiniSchema());
    msg.rows.AppendUnchecked(
        {data::Value(region), data::Value(bmi)});
    ASSERT_TRUE(from->SendSealed(to, kContribution, msg.Encode(), tag).ok());
  }

  ReplicaRole::Config Singleton(device::Device* dev) {
    ReplicaRole::Config cfg;
    cfg.group_id = 1;
    cfg.members = {dev->id()};
    return cfg;
  }

  net::Simulator sim_;
  net::Network network_;
  net::Transport transport_{&sim_, &network_};
  tee::TrustAuthority authority_;
  std::vector<std::unique_ptr<device::Device>> devices_;
};

// Captures decoded slices a computer would receive.
class SliceSink : public ActorBase {
 public:
  SliceSink(net::Transport* net, device::Device* dev)
      : ActorBase(net, dev, kQuery) {}
  std::vector<SnapshotSliceMsg> slices;

 protected:
  void HandleMessage(const net::Message& msg) override {
    if (msg.type != kSnapshotSlice) return;
    auto payload = dev()->OpenPayload(msg);
    ASSERT_TRUE(payload.ok());
    auto slice = SnapshotSliceMsg::Decode(*payload);
    ASSERT_TRUE(slice.ok());
    slices.push_back(std::move(*slice));
  }
};

TEST(ResendBackoffTest, SaturatesInsteadOfOverflowing) {
  // Canonical ladder: base, 3*base, 7*base, ...
  EXPECT_EQ(ResendBackoffDelay(1, kSecond), kSecond);
  EXPECT_EQ(ResendBackoffDelay(2, kSecond), 3 * kSecond);
  EXPECT_EQ(ResendBackoffDelay(3, kSecond), 7 * kSecond);
  // The shift clamps at 20: deep retries all back off equally.
  EXPECT_EQ(ResendBackoffDelay(25, kSecond), ResendBackoffDelay(20, kSecond));
  // The overflow regression: ((1 << 20) - 1) * base used to wrap for large
  // bases, turning "back off for a long time" into a resend in the past.
  // The multiply now saturates at kSimTimeNever instead.
  EXPECT_EQ(ResendBackoffDelay(20, kSimTimeNever / 2), kSimTimeNever);
  // Saturation preserves monotonicity everywhere: a later resend never
  // fires earlier than the previous one, for small and huge bases alike.
  for (SimDuration base : {kSecond, kSimTimeNever / 3}) {
    for (int i = 2; i <= 24; ++i) {
      EXPECT_GE(ResendBackoffDelay(i, base), ResendBackoffDelay(i - 1, base))
          << "resend " << i << " base " << base;
    }
  }
}

TEST_F(ActorTest, SnapshotBuilderStopsAtQuota) {
  device::Device* sb_dev = NewDevice();
  device::Device* sink_dev = NewDevice();
  SliceSink sink(&transport_, sink_dev);

  SnapshotBuilderActor::Config cfg;
  cfg.query_id = 1;
  cfg.partition = 0;
  cfg.vgroup = 0;
  cfg.quota = 3;
  cfg.computers = {sink_dev->id()};
  cfg.columns = {"region", "bmi"};
  cfg.replica = Singleton(sb_dev);
  SnapshotBuilderActor sb(&transport_, sb_dev, cfg);
  sb.Start();

  for (uint64_t key = 1; key <= 5; ++key) {
    device::Device* contributor = NewDevice();
    SendContribution(contributor, sb_dev->id(), key, "north", 20.0 + key);
  }
  sim_.RunUntil(kMinute);

  EXPECT_TRUE(sb.snapshot_complete());
  EXPECT_EQ(sb.tuples_collected(), 3u);
  EXPECT_EQ(sb.included_contributors().size(), 3u);
  ASSERT_EQ(sink.slices.size(), 1u);
  EXPECT_EQ(sink.slices[0].rows.num_rows(), 3u);
  EXPECT_EQ(sink.slices[0].epoch, 0u);
  // Exposure recorded inside the builder's enclave.
  EXPECT_GE(sb_dev->enclave().cleartext_tuples_observed(), 3u);
}

TEST_F(ActorTest, SnapshotBuilderDeduplicatesContributors) {
  device::Device* sb_dev = NewDevice();
  device::Device* sink_dev = NewDevice();
  SliceSink sink(&transport_, sink_dev);

  SnapshotBuilderActor::Config cfg;
  cfg.query_id = 1;
  cfg.partition = 0;
  cfg.vgroup = 0;
  cfg.quota = 3;
  cfg.computers = {sink_dev->id()};
  cfg.columns = {"region", "bmi"};
  cfg.replica = Singleton(sb_dev);
  SnapshotBuilderActor sb(&transport_, sb_dev, cfg);
  sb.Start();

  device::Device* contributor = NewDevice();
  // Same contributor replays its contribution (store-and-forward echo).
  SendContribution(contributor, sb_dev->id(), 7, "north", 21.0);
  SendContribution(contributor, sb_dev->id(), 7, "north", 21.0);
  SendContribution(contributor, sb_dev->id(), 7, "north", 21.0);
  sim_.RunUntil(kMinute);
  EXPECT_FALSE(sb.snapshot_complete());
  EXPECT_EQ(sb.tuples_collected(), 1u);
}

TEST_F(ActorTest, SnapshotBuilderIgnoresWrongQuery) {
  device::Device* sb_dev = NewDevice();
  device::Device* sink_dev = NewDevice();
  SliceSink sink(&transport_, sink_dev);

  SnapshotBuilderActor::Config cfg;
  cfg.query_id = 42;  // expects query 42, receives query 1
  cfg.partition = 0;
  cfg.vgroup = 0;
  cfg.quota = 1;
  cfg.computers = {sink_dev->id()};
  cfg.columns = {"region", "bmi"};
  cfg.replica = Singleton(sb_dev);
  SnapshotBuilderActor sb(&transport_, sb_dev, cfg);
  sb.Start();

  device::Device* contributor = NewDevice();
  // Routed to the builder under its own tag, so the payload check is what
  // rejects the contribution.
  SendContribution(contributor, sb_dev->id(), 1, "north", 20.0,
                   /*tag=*/42);
  sim_.RunUntil(kMinute);
  EXPECT_FALSE(sb.snapshot_complete());
}

SnapshotBuilderActor::Config CollectingBuilder(device::Device* sb_dev,
                                              device::Device* sink_dev) {
  SnapshotBuilderActor::Config cfg;
  cfg.query_id = 1;
  cfg.quota = 1000;  // never completes: the tests inspect collection state
  cfg.computers = {sink_dev->id()};
  cfg.columns = {"region", "bmi"};
  cfg.replica.group_id = 1;
  cfg.replica.members = {sb_dev->id()};
  return cfg;
}

// Offset of the seen-contributors section in a builder's state: after the
// three flags, the buffer table, and the included-keys list.
size_t SeenSectionOffset(const Bytes& state) {
  Reader r(state);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(r.GetBool().ok());
  EXPECT_TRUE(data::ColumnTable::Deserialize(&r).ok());
  auto n = r.GetVarint();
  EXPECT_TRUE(n.ok());
  for (uint64_t i = 0; i < *n; ++i) EXPECT_TRUE(r.GetU64().ok());
  return state.size() - r.remaining();
}

TEST_F(ActorTest, SnapshotBuilderStateWritesSeenKeysInSortedOrder) {
  device::Device* sb_dev = NewDevice();
  device::Device* sink_dev = NewDevice();
  SnapshotBuilderActor sb(&transport_, sb_dev,
                          CollectingBuilder(sb_dev, sink_dev));
  sb.Start();
  // Keys in scrambled order, incl. 0 and the largest key, some repeated.
  const std::vector<uint64_t> keys = {
      90, 3, UINT64_MAX, 0, 17, 1ull << 40, 3, 255, 256, 90, 5, 12345678901};
  device::Device* contributor = NewDevice();
  for (uint64_t key : keys) {
    SendContribution(contributor, sb_dev->id(), key, "north", 20.0);
  }
  sim_.RunUntil(kMinute);
  const std::set<uint64_t> unique(keys.begin(), keys.end());
  ASSERT_EQ(sb.tuples_collected(), unique.size());

  // The state must equal what the ordered std::set of keys serialized:
  // everything before the section, then the count and keys ascending.
  const Bytes state = sb.SerializeState();
  const size_t offset = SeenSectionOffset(state);
  Writer want;
  want.PutRaw(state.data(), offset);
  want.PutVarint(unique.size());
  for (uint64_t k : unique) want.PutU64(k);
  EXPECT_EQ(state, want.data());
}

TEST_F(ActorTest, SnapshotBuilderResumesDecodingAndDedupAfterRestore) {
  device::Device* sb_dev = NewDevice();
  device::Device* sink_dev = NewDevice();
  device::Device* contributor = NewDevice();
  SnapshotBuilderActor first(&transport_, sb_dev,
                             CollectingBuilder(sb_dev, sink_dev));
  first.Start();
  for (uint64_t key : {4, 8, 15}) {
    SendContribution(contributor, sb_dev->id(), key, "south", 30.0 + key);
  }
  sim_.RunUntil(kMinute);
  ASSERT_EQ(first.tuples_collected(), 3u);
  const Bytes state = first.SerializeState();

  // A rebooted replica resumes from the checkpoint on a fresh device.
  device::Device* resumed_dev = NewDevice();
  auto cfg = CollectingBuilder(resumed_dev, sink_dev);
  cfg.resume_state = state;
  SnapshotBuilderActor resumed(&transport_, resumed_dev, cfg);
  resumed.Start();
  EXPECT_EQ(resumed.SerializeState(), state);

  // A new contributor still decodes against the restored schema, and a
  // key seen before the crash is still a duplicate.
  SendContribution(contributor, resumed_dev->id(), 8, "south", 99.0);
  SendContribution(contributor, resumed_dev->id(), 16, "east", 41.0);
  sim_.RunUntil(2 * kMinute);
  EXPECT_EQ(resumed.tuples_collected(), 4u);
  EXPECT_EQ(resumed.included_contributors(),
            (std::vector<uint64_t>{4, 8, 15, 16}));

  // A contribution whose schema section differs is rejected.
  ContributionMsg other;
  other.query_id = 1;
  other.contributor_key = 23;
  other.rows =
      data::Table(data::Schema({{"region", data::ValueType::kString}}));
  other.rows.AppendUnchecked({data::Value("west")});
  ASSERT_TRUE(contributor
                  ->SendSealed(resumed_dev->id(), kContribution,
                               other.Encode(), kQuery)
                  .ok());
  sim_.RunUntil(3 * kMinute);
  EXPECT_EQ(resumed.tuples_collected(), 4u);
}

TEST_F(ActorTest, SnapshotBuilderRejectsHostileContributionRowCount) {
  device::Device* sb_dev = NewDevice();
  device::Device* sink_dev = NewDevice();
  SnapshotBuilderActor sb(&transport_, sb_dev,
                          CollectingBuilder(sb_dev, sink_dev));
  sb.Start();
  device::Device* contributor = NewDevice();
  // The group's schema, then a row count of 2^40 behind a single row.
  for (bool first : {true, false}) {
    Writer w;
    w.PutU64(1);
    w.PutU64(first ? 100 : 101);
    wire::Put(&w, MiniSchema());
    w.PutVarint(uint64_t{1} << 40);
    data::Value("north").Serialize(&w);
    data::Value(20.0).Serialize(&w);
    ASSERT_TRUE(
        contributor->SendSealed(sb_dev->id(), kContribution, w.Take(), kQuery)
            .ok());
    // The rejected key is not marked seen: its honest contribution lands.
    SendContribution(contributor, sb_dev->id(), first ? 100 : 101, "north",
                     21.0);
  }
  sim_.RunUntil(kMinute);
  EXPECT_EQ(sb.tuples_collected(), 2u);
  EXPECT_EQ(sb.included_contributors(), (std::vector<uint64_t>{100, 101}));
}

TEST_F(ActorTest, SnapshotBuilderRejectsMistypedOrTruncatedRows) {
  device::Device* sb_dev = NewDevice();
  device::Device* sink_dev = NewDevice();
  SnapshotBuilderActor sb(&transport_, sb_dev,
                          CollectingBuilder(sb_dev, sink_dev));
  sb.Start();
  device::Device* contributor = NewDevice();
  SendContribution(contributor, sb_dev->id(), 1, "north", 20.0);
  sim_.RunUntil(kMinute);
  ASSERT_EQ(sb.tuples_collected(), 1u);

  // Key 2: the second row carries a string in the DOUBLE bmi column.
  ContributionMsg mistyped;
  mistyped.query_id = 1;
  mistyped.contributor_key = 2;
  mistyped.rows = data::Table(MiniSchema());
  mistyped.rows.AppendUnchecked({data::Value("south"), data::Value(22.0)});
  mistyped.rows.AppendUnchecked({data::Value("east"), data::Value("heavy")});
  // Key 3: two honest rows, cut off inside the second row's bmi cell.
  ContributionMsg two_rows;
  two_rows.query_id = 1;
  two_rows.contributor_key = 3;
  two_rows.rows = data::Table(MiniSchema());
  two_rows.rows.AppendUnchecked({data::Value("west"), data::Value(23.0)});
  two_rows.rows.AppendUnchecked({data::Value("west"), data::Value(24.0)});
  Bytes truncated = two_rows.Encode();
  truncated.resize(truncated.size() - 4);

  SimTime at = kMinute;
  for (const auto& [key, payload] :
       {std::pair{uint64_t{2}, mistyped.Encode()},
        std::pair{uint64_t{3}, truncated}}) {
    const Bytes state = sb.SerializeState();
    ASSERT_TRUE(contributor
                    ->SendSealed(sb_dev->id(), kContribution, payload, kQuery)
                    .ok());
    sim_.RunUntil(at += kMinute);
    EXPECT_EQ(sb.tuples_collected(), key - 1) << "key " << key;
    EXPECT_EQ(sb.SerializeState(), state) << "key " << key;
    // The key is not marked seen: its honest contribution then lands.
    SendContribution(contributor, sb_dev->id(), key, "north", 20.0 + key);
    sim_.RunUntil(at += kMinute);
    EXPECT_EQ(sb.tuples_collected(), key) << "key " << key;
  }
  EXPECT_EQ(sb.included_contributors(), (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(ActorTest, SnapshotBuilderRejectsHostileResumeCounts) {
  device::Device* sb_dev = NewDevice();
  device::Device* sink_dev = NewDevice();
  // Valid flags and an empty buffer, then 2^40 included keys.
  Writer w;
  w.PutBool(true);
  w.PutBool(false);
  w.PutBool(false);
  data::Table(data::Schema({{"region", data::ValueType::kString}}))
      .Serialize(&w);
  w.PutVarint(uint64_t{1} << 40);
  w.PutU64(1);
  auto cfg = CollectingBuilder(sb_dev, sink_dev);
  cfg.resume_state = w.Take();
  SnapshotBuilderActor sb(&transport_, sb_dev, cfg);
  sb.Start();  // undecodable state: starts fresh instead of throwing
  EXPECT_EQ(sb.tuples_collected(), 0u);
  SendContribution(NewDevice(), sb_dev->id(), 1, "north", 20.0);
  sim_.RunUntil(kMinute);
  EXPECT_EQ(sb.tuples_collected(), 1u);
}

// Captures decoded GS partials a combiner would receive.
class PartialSink : public ActorBase {
 public:
  PartialSink(net::Transport* net, device::Device* dev)
      : ActorBase(net, dev, kQuery) {}
  std::vector<GsPartialMsg> partials;

 protected:
  void HandleMessage(const net::Message& msg) override {
    if (msg.type != kGsPartial) return;
    auto payload = dev()->OpenPayload(msg);
    ASSERT_TRUE(payload.ok());
    auto partial = GsPartialMsg::Decode(*payload);
    ASSERT_TRUE(partial.ok());
    partials.push_back(std::move(*partial));
  }
};

TEST_F(ActorTest, ComputerTakesFirstEpochOnly) {
  device::Device* comp_dev = NewDevice();
  device::Device* comb_dev = NewDevice();
  device::Device* sb_dev = NewDevice();
  PartialSink sink(&transport_, comb_dev);

  ComputerActor::Config cfg;
  cfg.query_id = 1;
  cfg.partition = 0;
  cfg.vgroup = 0;
  cfg.mode = ComputerActor::Mode::kGroupingSets;
  cfg.gs_spec = MiniSpec();
  cfg.set_indices = {0};
  cfg.combiners = {comb_dev->id()};
  cfg.replica = Singleton(comp_dev);
  ComputerActor computer(&transport_, comp_dev, cfg);
  computer.Start();

  auto send_slice = [&](uint32_t epoch, double bmi) {
    SnapshotSliceMsg slice;
    slice.query_id = 1;
    slice.partition = 0;
    slice.vgroup = 0;
    slice.epoch = epoch;
    slice.rows = data::ColumnTable(MiniSchema());
    ASSERT_TRUE(
        slice.rows.AppendTuple({data::Value("north"), data::Value(bmi)}).ok());
    ASSERT_TRUE(
        sb_dev->SendSealed(comp_dev->id(), kSnapshotSlice, slice.Encode(),
                           kQuery)
            .ok());
  };
  send_slice(0, 11.0);
  sim_.RunUntil(10 * kSecond);
  send_slice(1, 99.0);  // late re-emission from a failover replica
  sim_.RunUntil(kMinute);

  ASSERT_FALSE(sink.partials.empty());
  EXPECT_EQ(sink.partials[0].epoch, 0u);
  auto table = sink.partials[0].result.Finalize();
  ASSERT_TRUE(table.ok());
  // AVG(bmi) from the first slice (11.0), not the late one.
  auto avg_idx = table->schema().IndexOf("AVG(bmi)");
  ASSERT_TRUE(avg_idx.ok());
  EXPECT_DOUBLE_EQ(table->row(0)[*avg_idx].AsDouble(), 11.0);
}

// Captures the final result at a querier device.
TEST_F(ActorTest, CombinerMergesExactlyFirstNPartitions) {
  device::Device* comb_dev = NewDevice();
  device::Device* querier_dev = NewDevice();
  device::Device* comp_dev = NewDevice();
  QuerierActor querier(&transport_, querier_dev, 1);

  CombinerActor::Config cfg;
  cfg.query_id = 1;
  cfg.mode = CombinerActor::Mode::kGroupingSets;
  cfg.n_needed = 2;
  cfg.num_vgroups = 1;
  cfg.gs_spec = MiniSpec();
  cfg.querier_targets = {querier_dev->id()};
  cfg.emit_at = kSimTimeNever;
  cfg.active_emit = true;
  cfg.result_resends = 0;
  cfg.replica = Singleton(comb_dev);
  CombinerActor combiner(&transport_, comb_dev, cfg);
  combiner.Start();

  auto send_partial = [&](uint32_t partition, double bmi) {
    data::Table t(MiniSchema());
    t.AppendUnchecked({data::Value("north"), data::Value(bmi)});
    auto result = query::GroupingSetsResult::Compute(ViewOf(t), MiniSpec());
    ASSERT_TRUE(result.ok());
    GsPartialMsg msg;
    msg.query_id = 1;
    msg.partition = partition;
    msg.vgroup = 0;
    msg.epoch = 0;
    msg.result = std::move(*result);
    ASSERT_TRUE(
        comp_dev->SendSealed(comb_dev->id(), kGsPartial, msg.Encode(), kQuery)
            .ok());
  };
  // Partitions arrive in order 2, 0, 1: the combiner must merge the FIRST
  // TWO complete ones (2 and 0), not partition 1.
  send_partial(2, 10.0);
  sim_.RunUntil(5 * kSecond);
  send_partial(0, 20.0);
  sim_.RunUntil(10 * kSecond);
  send_partial(1, 99.0);
  sim_.RunUntil(kMinute);

  ASSERT_TRUE(querier.has_result());
  const FinalResultMsg& result = querier.result();
  EXPECT_EQ(result.partitions, (std::vector<uint32_t>{2, 0}));
  // COUNT(*) = 2 rows; AVG(bmi) = 15 (partitions 2 and 0 only).
  auto count_idx = result.result.schema().IndexOf("COUNT(*)");
  auto avg_idx = result.result.schema().IndexOf("AVG(bmi)");
  ASSERT_TRUE(count_idx.ok() && avg_idx.ok());
  EXPECT_EQ(result.result.row(0)[*count_idx].AsInt64(), 2);
  EXPECT_DOUBLE_EQ(result.result.row(0)[*avg_idx].AsDouble(), 15.0);
}

TEST_F(ActorTest, CombinerIgnoresDuplicateVgroupPartials) {
  device::Device* comb_dev = NewDevice();
  device::Device* querier_dev = NewDevice();
  device::Device* comp_dev = NewDevice();
  QuerierActor querier(&transport_, querier_dev, 1);

  CombinerActor::Config cfg;
  cfg.query_id = 1;
  cfg.mode = CombinerActor::Mode::kGroupingSets;
  cfg.n_needed = 1;
  cfg.num_vgroups = 1;
  cfg.gs_spec = MiniSpec();
  cfg.querier_targets = {querier_dev->id()};
  cfg.emit_at = kSimTimeNever;
  cfg.active_emit = true;
  cfg.result_resends = 0;
  cfg.replica = Singleton(comb_dev);
  CombinerActor combiner(&transport_, comb_dev, cfg);
  combiner.Start();

  data::Table t(MiniSchema());
  t.AppendUnchecked({data::Value("north"), data::Value(30.0)});
  auto partial = query::GroupingSetsResult::Compute(ViewOf(t), MiniSpec());
  ASSERT_TRUE(partial.ok());
  GsPartialMsg msg;
  msg.query_id = 1;
  msg.partition = 0;
  msg.vgroup = 0;
  msg.epoch = 0;
  msg.result = *partial;
  // The same partial re-emitted 3 times (lossy-link redundancy).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        comp_dev->SendSealed(comb_dev->id(), kGsPartial, msg.Encode(), kQuery)
            .ok());
  }
  sim_.RunUntil(kMinute);

  ASSERT_TRUE(querier.has_result());
  auto count_idx = querier.result().result.schema().IndexOf("COUNT(*)");
  ASSERT_TRUE(count_idx.ok());
  // Not triple-counted.
  EXPECT_EQ(querier.result().result.row(0)[*count_idx].AsInt64(), 1);
}

TEST_F(ActorTest, CombinerEvictsPoisonedPartitionAndUsesSpare) {
  device::Device* comb_dev = NewDevice();
  device::Device* querier_dev = NewDevice();
  device::Device* comp_dev = NewDevice();
  QuerierActor querier(&transport_, querier_dev, 1);

  CombinerActor::Config cfg;
  cfg.query_id = 1;
  cfg.mode = CombinerActor::Mode::kGroupingSets;
  cfg.n_needed = 2;
  cfg.num_vgroups = 1;
  cfg.total_partitions = 3;  // n=2 plus one spare
  cfg.gs_spec = MiniSpec();
  cfg.querier_targets = {querier_dev->id()};
  cfg.emit_at = kSimTimeNever;
  cfg.active_emit = true;
  cfg.result_resends = 0;
  cfg.replica = Singleton(comb_dev);
  CombinerActor combiner(&transport_, comb_dev, cfg);
  combiner.Start();

  // Partition 0 completes first with a partial whose spec cannot merge
  // with the deployed one — the forced merge failure that used to wedge
  // the combiner forever (combining_ stayed set, spares unreachable).
  query::GroupingSetsSpec poison_spec{
      {{"region"}}, {{query::AggregateFunction::kCount, "*"}}};
  data::Table pt(MiniSchema());
  pt.AppendUnchecked({data::Value("north"), data::Value(1.0)});
  auto poison = query::GroupingSetsResult::Compute(ViewOf(pt), poison_spec);
  ASSERT_TRUE(poison.ok());
  GsPartialMsg bad;
  bad.query_id = 1;
  bad.partition = 0;
  bad.vgroup = 0;
  bad.epoch = 0;
  bad.result = *poison;
  ASSERT_TRUE(
      comp_dev->SendSealed(comb_dev->id(), kGsPartial, bad.Encode(), kQuery)
          .ok());
  sim_.RunUntil(5 * kSecond);

  auto send_good = [&](uint32_t partition, double bmi) {
    data::Table t(MiniSchema());
    t.AppendUnchecked({data::Value("north"), data::Value(bmi)});
    auto result = query::GroupingSetsResult::Compute(ViewOf(t), MiniSpec());
    ASSERT_TRUE(result.ok());
    GsPartialMsg msg;
    msg.query_id = 1;
    msg.partition = partition;
    msg.vgroup = 0;
    msg.epoch = 0;
    msg.result = std::move(*result);
    ASSERT_TRUE(
        comp_dev->SendSealed(comb_dev->id(), kGsPartial, msg.Encode(), kQuery)
            .ok());
  };
  // Partition 1 completes: n=2 reached with {0, 1}; the combine fails on
  // the poison, evicts partition 0, and waits for a replacement.
  send_good(1, 10.0);
  sim_.RunUntil(10 * kSecond);
  EXPECT_FALSE(querier.has_result());
  EXPECT_EQ(combiner.partitions_complete(), 1u);  // poison evicted

  // The spare (partition 2) arrives and takes the evicted slot.
  send_good(2, 20.0);
  sim_.RunUntil(kMinute);

  ASSERT_TRUE(querier.has_result());
  EXPECT_EQ(querier.result().partitions, (std::vector<uint32_t>{1, 2}));
  auto avg_idx = querier.result().result.schema().IndexOf("AVG(bmi)");
  ASSERT_TRUE(avg_idx.ok());
  EXPECT_DOUBLE_EQ(querier.result().result.row(0)[*avg_idx].AsDouble(), 15.0);
}

TEST_F(ActorTest, CombinerRejectsOutOfRangeWireFields) {
  device::Device* comb_dev = NewDevice();
  device::Device* querier_dev = NewDevice();
  device::Device* comp_dev = NewDevice();
  QuerierActor querier(&transport_, querier_dev, 1);

  CombinerActor::Config cfg;
  cfg.query_id = 1;
  cfg.mode = CombinerActor::Mode::kGroupingSets;
  cfg.n_needed = 1;
  cfg.num_vgroups = 2;
  cfg.total_partitions = 2;
  cfg.gs_spec = MiniSpec();
  cfg.querier_targets = {querier_dev->id()};
  cfg.emit_at = kSimTimeNever;
  cfg.active_emit = true;
  cfg.result_resends = 0;
  cfg.replica = Singleton(comb_dev);
  CombinerActor combiner(&transport_, comb_dev, cfg);
  combiner.Start();

  auto send_partial = [&](uint32_t partition, uint32_t vgroup) {
    data::Table t(MiniSchema());
    t.AppendUnchecked({data::Value("north"), data::Value(10.0)});
    auto result = query::GroupingSetsResult::Compute(ViewOf(t), MiniSpec());
    ASSERT_TRUE(result.ok());
    GsPartialMsg msg;
    msg.query_id = 1;
    msg.partition = partition;
    msg.vgroup = vgroup;
    msg.epoch = 0;
    msg.result = std::move(*result);
    ASSERT_TRUE(
        comp_dev->SendSealed(comb_dev->id(), kGsPartial, msg.Encode(), kQuery)
            .ok());
  };
  // Two out-of-range vgroups for partition 0: before validation these two
  // distinct keys satisfied by_vgroup.size() == num_vgroups (completing
  // the partition with garbage) and then wrote epochs[5] out of bounds.
  send_partial(0, 5);
  send_partial(0, 7);
  // And a partial naming a partition the plan never deployed.
  send_partial(9, 0);
  sim_.RunUntil(30 * kSecond);
  EXPECT_FALSE(querier.has_result());
  EXPECT_EQ(combiner.partitions_complete(), 0u);

  // Honest partials still complete the partition and emit.
  send_partial(0, 0);
  send_partial(0, 1);
  sim_.RunUntil(kMinute);
  EXPECT_TRUE(querier.has_result());
}

TEST_F(ActorTest, StandbyCombinerStopsResendsAfterYieldingLeadership) {
  device::Device* leader_dev = NewDevice();
  device::Device* standby_dev = NewDevice();
  device::Device* querier_dev = NewDevice();
  device::Device* comp_dev = NewDevice();
  QuerierActor querier(&transport_, querier_dev, 1);

  // leader_dev carries a bare ReplicaRole (rank 0); the combiner under
  // test is the rank-1 standby in Backup mode (only the leader emits).
  ReplicaRole::Config group;
  group.group_id = 1;
  group.members = {leader_dev->id(), standby_dev->id()};
  group.ping_period = 2 * kSecond;
  group.failover_timeout = 5 * kSecond;
  group.stop_at = 10 * kMinute;
  ReplicaRole leader_role(&transport_, leader_dev, kQuery, group);
  leader_dev->BindQueryHandler(
      kQuery, &leader_role, [&leader_role](const net::Message& msg) {
        if (msg.type != kLeaderPing) return;
        auto ping = LeaderPingMsg::Decode(msg.payload);
        if (ping.ok()) leader_role.HandlePing(*ping);
      });
  leader_role.Start();

  CombinerActor::Config cfg;
  cfg.query_id = 1;
  cfg.mode = CombinerActor::Mode::kGroupingSets;
  cfg.n_needed = 1;
  cfg.num_vgroups = 1;
  cfg.gs_spec = MiniSpec();
  cfg.querier_targets = {querier_dev->id()};
  cfg.emit_at = kSimTimeNever;
  cfg.active_emit = false;  // Backup mode: leader-only emission
  cfg.result_resends = 3;
  cfg.resend_interval = 10 * kSecond;
  cfg.replica = group;
  CombinerActor standby(&transport_, standby_dev, cfg);
  standby.Start();

  // Leader goes dark; the standby promotes (~7 s), emits, and schedules
  // backoff resends at +10 s / +30 s / +70 s.
  sim_.ScheduleAt(kSecond,
                  [&]() { network_.SetOnline(leader_dev->id(), false); });
  data::Table t(MiniSchema());
  t.AppendUnchecked({data::Value("north"), data::Value(10.0)});
  auto partial = query::GroupingSetsResult::Compute(ViewOf(t), MiniSpec());
  ASSERT_TRUE(partial.ok());
  GsPartialMsg msg;
  msg.query_id = 1;
  msg.partition = 0;
  msg.vgroup = 0;
  msg.epoch = 0;
  msg.result = *partial;
  ASSERT_TRUE(
      comp_dev->SendSealed(standby_dev->id(), kGsPartial, msg.Encode(), kQuery)
          .ok());

  // The leader returns before the second resend: its pings make the
  // standby yield, and every still-scheduled resend must go quiet — the
  // old code kept firing them for as long as result_ready_ held.
  sim_.ScheduleAt(20 * kSecond,
                  [&]() { network_.SetOnline(leader_dev->id(), true); });
  sim_.RunUntil(5 * kMinute);

  ASSERT_TRUE(querier.has_result());
  EXPECT_FALSE(standby.replica_is_leader());
  // First emission (~7 s) plus the one resend (~17 s) that fired while
  // still leader; the +30 s / +70 s resends were suppressed.
  EXPECT_EQ(querier.duplicates(), 1u);
}

// An operator whose state is one counter; it counts how often the sink
// serialized it.
class CountingOperator : public OperatorActor {
 public:
  CountingOperator(net::Transport* net, device::Device* dev,
                   CheckpointFn checkpoint)
      : OperatorActor(net, dev, kQuery, std::move(checkpoint)) {}
  void Start() override {}
  Bytes SerializeState() const override {
    ++serializations;
    return Bytes{static_cast<uint8_t>(serializations)};
  }
  void Offer(bool critical) { MaybeCheckpoint(critical); }
  mutable int serializations = 0;

 protected:
  void HandleMessage(const net::Message&) override {}
};

// The recovery host's cadence throttle is asked before the state is
// serialized: a routine delta it drops costs no SerializeState call, and
// every write serializes exactly once.
TEST_F(ActorTest, ThrottledCheckpointsAreNotSerialized) {
  device::Device* dev = NewDevice();
  RecoveryHost::Config host_cfg;
  host_cfg.query_id = kQuery;
  RecoveryHost host(&transport_, dev, host_cfg,
                    std::make_unique<store::MemoryMedium>());
  CountingOperator op(&transport_, dev, host.MakeCheckpointFn());

  op.Offer(/*critical=*/false);  // the first record is always written
  EXPECT_EQ(op.serializations, 1);
  for (int i = 0; i < 5; ++i) op.Offer(/*critical=*/false);
  EXPECT_EQ(op.serializations, 1);
  EXPECT_EQ(host.store().stats().checkpoints, 1u);
  op.Offer(/*critical=*/true);  // bypasses the throttle
  EXPECT_EQ(op.serializations, 2);
  EXPECT_EQ(host.store().stats().checkpoints, 2u);

  // Routine deltas are coalesced until a full interval has passed.
  sim_.ScheduleAt(dev->id(), kCheckpointInterval - 1,
                  [&op]() { op.Offer(/*critical=*/false); });
  sim_.ScheduleAt(dev->id(), kCheckpointInterval,
                  [&op]() { op.Offer(/*critical=*/false); });
  sim_.RunUntil(kCheckpointInterval - 1);
  EXPECT_EQ(op.serializations, 2);
  sim_.RunUntil(kCheckpointInterval);
  EXPECT_EQ(op.serializations, 3);
  EXPECT_EQ(host.store().stats().checkpoints, 3u);
}

// --- Operator checkpoints ----------------------------------------------------
//
// Each case pins the length and FNV-1a 64 of one operator's SerializeState()
// and checks that the state resumes: a resumed actor serializes the same
// bytes, and every strict prefix fails to restore, leaving the actor as a
// fresh one.

void ExpectPinned(const Bytes& state, size_t length, uint64_t fnv,
                  const char* what) {
  EXPECT_EQ(state.size(), length) << what;
  EXPECT_EQ(Fnv1a64(state.data(), state.size()), fnv) << what;
}

// `resume(bytes)` builds an actor with resume_state = bytes on a spare
// device and starts it. Scheduled events of the resumed actors are never
// run: call this after the test's last sim_.RunUntil.
template <typename Resume>
void ExpectResumes(const Bytes& state, const Resume& resume,
                   const char* what) {
  EXPECT_EQ(resume(state)->SerializeState(), state) << what;
  const Bytes fresh = resume(Bytes{})->SerializeState();
  for (size_t cut = 1; cut < state.size(); ++cut) {
    EXPECT_EQ(
        resume(Bytes(state.begin(), state.begin() + cut))->SerializeState(),
        fresh)
        << what << ": prefix of " << cut << " bytes";
  }
}

TEST_F(ActorTest, SnapshotBuilderCheckpointBytesArePinned) {
  device::Device* sink_dev = NewDevice();
  device::Device* contributor = NewDevice();
  device::Device* spare = NewDevice();
  auto resumer = [&](SnapshotBuilderActor::Config cfg) {
    cfg.replica.members = {spare->id()};
    return [this, spare, cfg](const Bytes& bytes) {
      auto resumed = cfg;
      resumed.resume_state = bytes;
      auto sb =
          std::make_unique<SnapshotBuilderActor>(&transport_, spare, resumed);
      sb->Start();
      return sb;
    };
  };

  // Mid-collection: three keys of a quota of 1000.
  device::Device* collecting_dev = NewDevice();
  const auto collecting_cfg = CollectingBuilder(collecting_dev, sink_dev);
  SnapshotBuilderActor collecting(&transport_, collecting_dev, collecting_cfg);
  collecting.Start();
  for (uint64_t key : {15, 4, 8}) {
    SendContribution(contributor, collecting_dev->id(), key, "south",
                     30.0 + key);
  }
  // Complete: the quota of 3 reached and the slice emitted.
  device::Device* complete_dev = NewDevice();
  auto complete_cfg = CollectingBuilder(complete_dev, sink_dev);
  complete_cfg.quota = 3;
  SnapshotBuilderActor complete(&transport_, complete_dev, complete_cfg);
  complete.Start();
  for (uint64_t key : {uint64_t{7}, uint64_t{1} << 40, uint64_t{2}}) {
    SendContribution(contributor, complete_dev->id(), key, "north",
                     20.0 + (key & 0xFF));
  }
  sim_.RunUntil(kMinute);
  ASSERT_EQ(collecting.tuples_collected(), 3u);
  ASSERT_TRUE(complete.snapshot_complete());

  const Bytes mid = collecting.SerializeState();
  ExpectPinned(mid, 116, 0xD946172A3DE3943CULL, "mid-collection");
  ExpectResumes(mid, resumer(collecting_cfg), "mid-collection");
  const Bytes done = complete.SerializeState();
  ExpectPinned(done, 116, 0x349727636F8FA387ULL, "complete");
  ExpectResumes(done, resumer(complete_cfg), "complete");
}

ComputerActor::Config MiniComputer(device::Device* comp_dev,
                                   device::Device* comb_dev) {
  ComputerActor::Config cfg;
  cfg.query_id = 1;
  cfg.partition = 0;
  cfg.vgroup = 0;
  cfg.gs_spec = MiniSpec();
  cfg.set_indices = {0};
  cfg.combiners = {comb_dev->id()};
  cfg.replica.group_id = 1;
  cfg.replica.members = {comp_dev->id()};
  return cfg;
}

// Two clusters over bmi with one per-cluster aggregate, the K-Means
// spec the computers and combiners below deploy.
query::KMeansQuerySpec MiniKmSpec() {
  query::KMeansQuerySpec spec;
  spec.k = 2;
  spec.features = {"bmi"};
  spec.cluster_aggregates = {{query::AggregateFunction::kAvg, "bmi"}};
  return spec;
}

TEST_F(ActorTest, ComputerCheckpointBytesArePinned) {
  device::Device* comb_dev = NewDevice();
  device::Device* sb_dev = NewDevice();
  device::Device* peer_dev = NewDevice();
  device::Device* spare = NewDevice();
  PartialSink sink(&transport_, comb_dev);
  auto resumer = [&](ComputerActor::Config cfg) {
    cfg.replica.members = {spare->id()};
    return [this, spare, cfg](const Bytes& bytes) {
      auto resumed = cfg;
      resumed.resume_state = bytes;
      auto c = std::make_unique<ComputerActor>(&transport_, spare, resumed);
      c->Start();
      return c;
    };
  };
  auto send_slice = [&](device::Device* to, uint32_t epoch) {
    SnapshotSliceMsg slice;
    slice.query_id = 1;
    slice.epoch = epoch;
    slice.rows = data::ColumnTable(MiniSchema());
    for (double bmi : {18.5, 19.0, 31.0, 33.5, 32.0}) {
      ASSERT_TRUE(slice.rows
                      .AppendTuple({data::Value(bmi < 25 ? "north" : "south"),
                                    data::Value(bmi)})
                      .ok());
    }
    ASSERT_TRUE(
        sb_dev->SendSealed(to->id(), kSnapshotSlice, slice.Encode(), kQuery)
            .ok());
  };

  // Grouping Sets: before a slice arrives, and after the partial went out.
  device::Device* idle_dev = NewDevice();
  const auto idle_cfg = MiniComputer(idle_dev, comb_dev);
  ComputerActor idle(&transport_, idle_dev, idle_cfg);
  idle.Start();
  device::Device* gs_dev = NewDevice();
  const auto gs_cfg = MiniComputer(gs_dev, comb_dev);
  ComputerActor gs(&transport_, gs_dev, gs_cfg);
  gs.Start();
  send_slice(gs_dev, 2);

  // K-Means: knowledge after round 0, and a peer's knowledge integrated
  // in round 1.
  device::Device* km_dev = NewDevice();
  auto km_cfg = MiniComputer(km_dev, comb_dev);
  km_cfg.mode = ComputerActor::Mode::kKMeans;
  km_cfg.km_spec.k = 2;
  km_cfg.km_spec.features = {"bmi"};
  km_cfg.km_spec.local_iterations = 1;
  km_cfg.peers = {{peer_dev->id()}};
  km_cfg.first_heartbeat = 10 * kSecond;
  km_cfg.heartbeat_period = 10 * kSecond;
  km_cfg.num_heartbeats = 3;
  ComputerActor km(&transport_, km_dev, km_cfg);
  km.Start();
  send_slice(km_dev, 0);
  sim_.RunUntil(15 * kSecond);
  KmKnowledgeMsg peer;
  peer.query_id = 1;
  peer.partition = 1;
  peer.round = 0;
  peer.knowledge.centroids = {{20.0}, {30.0}};
  peer.knowledge.counts = {4, 6};
  ASSERT_TRUE(
      peer_dev->SendSealed(km_dev->id(), kKmKnowledge, peer.Encode(), kQuery)
          .ok());
  sim_.RunUntil(25 * kSecond);
  ASSERT_TRUE(gs.output_sent());
  ASSERT_FALSE(idle.has_slice());
  ASSERT_EQ(km.rounds_with_peer_input(), 1);

  const Bytes before = idle.SerializeState();
  ExpectPinned(before, 10, 0x69D307CC20F6EF8DULL, "before a slice");
  ExpectResumes(before, resumer(idle_cfg), "before a slice");
  const Bytes sent = gs.SerializeState();
  ExpectPinned(sent, 103, 0xFB78CD5ED3A6B81BULL, "slice and output sent");
  ExpectResumes(sent, resumer(gs_cfg), "slice and output sent");
  const Bytes knowledge = km.SerializeState();
  ExpectPinned(knowledge, 123, 0x95757C6619AA255CULL, "k-means knowledge");
  ExpectResumes(knowledge, resumer(km_cfg), "k-means knowledge");
}

// A cluster aggregate that fails on a row (a quantile over a string)
// fails the whole K-Means report: the computer sends none rather than
// stats with an empty sketch, as its Grouping Sets path sends no partial.
TEST_F(ActorTest, ComputerSendsNoKMeansReportWhenAnAggregateFails) {
  device::Device* comb_dev = NewDevice();
  device::Device* sb_dev = NewDevice();
  std::vector<std::unique_ptr<ComputerActor>> computers;
  auto run = [&](const std::string& column) -> const ComputerActor& {
    device::Device* dev = NewDevice();
    auto cfg = MiniComputer(dev, comb_dev);
    cfg.mode = ComputerActor::Mode::kKMeans;
    cfg.km_spec = MiniKmSpec();
    cfg.km_spec.cluster_aggregates = {
        {query::AggregateFunction::kQuantile, column, 0.5}};
    cfg.first_heartbeat = sim_.now() + 10 * kSecond;
    auto& c = *computers.emplace_back(
        std::make_unique<ComputerActor>(&transport_, dev, cfg));
    c.Start();
    SnapshotSliceMsg slice;
    slice.query_id = 1;
    slice.rows = data::ColumnTable(MiniSchema());
    for (double bmi : {18.5, 31.0, 33.5}) {
      EXPECT_TRUE(
          slice.rows.AppendTuple({data::Value("north"), data::Value(bmi)})
              .ok());
    }
    EXPECT_TRUE(
        sb_dev->SendSealed(dev->id(), kSnapshotSlice, slice.Encode(), kQuery)
            .ok());
    sim_.RunUntil(sim_.now() + kMinute);
    return c;
  };
  EXPECT_TRUE(run("bmi").output_sent());
  EXPECT_FALSE(run("region").output_sent());
}

TEST_F(ActorTest, ComputerDropsLaterSlices) {
  device::Device* comp_dev = NewDevice();
  device::Device* comb_dev = NewDevice();
  device::Device* sb_dev = NewDevice();
  PartialSink sink(&transport_, comb_dev);
  ComputerActor computer(&transport_, comp_dev,
                         MiniComputer(comp_dev, comb_dev));
  computer.Start();

  auto slice_bytes = [](uint32_t epoch, double bmi) {
    SnapshotSliceMsg slice;
    slice.query_id = 1;
    slice.epoch = epoch;
    slice.rows = data::ColumnTable(MiniSchema());
    EXPECT_TRUE(
        slice.rows.AppendTuple({data::Value("north"), data::Value(bmi)}).ok());
    return slice.Encode();
  };
  auto send = [&](const Bytes& payload) {
    ASSERT_TRUE(
        sb_dev->SendSealed(comp_dev->id(), kSnapshotSlice, payload, kQuery)
            .ok());
  };
  const Bytes first = slice_bytes(3, 11.0);
  send(first);
  sim_.RunUntil(kMinute);
  ASSERT_TRUE(computer.has_slice());
  const Bytes taken = computer.SerializeState();

  send(first);                 // a resend of the same slice
  send(slice_bytes(4, 99.0));  // a failover builder's later epoch
  sim_.RunUntil(2 * kMinute);
  EXPECT_EQ(computer.SerializeState(), taken);
}

CombinerActor::Config MiniCombiner(device::Device* comb_dev,
                                   device::Device* querier_dev) {
  CombinerActor::Config cfg;
  cfg.query_id = 1;
  cfg.mode = CombinerActor::Mode::kGroupingSets;
  cfg.n_needed = 1;
  cfg.num_vgroups = 2;
  cfg.total_partitions = 3;
  cfg.gs_spec = MiniSpec();
  cfg.querier_targets = {querier_dev->id()};
  cfg.result_resends = 0;
  cfg.replica.group_id = 1;
  cfg.replica.members = {comb_dev->id()};
  return cfg;
}

TEST_F(ActorTest, CombinerCheckpointBytesArePinned) {
  device::Device* querier_dev = NewDevice();
  device::Device* comp_dev = NewDevice();
  device::Device* spare = NewDevice();
  QuerierActor querier(&transport_, querier_dev, 1);
  auto resumer = [&](CombinerActor::Config cfg) {
    cfg.replica.members = {spare->id()};
    return [this, spare, cfg](const Bytes& bytes) {
      auto resumed = cfg;
      resumed.resume_state = bytes;
      auto c = std::make_unique<CombinerActor>(&transport_, spare, resumed);
      c->Start();
      return c;
    };
  };
  auto send_partial = [&](device::Device* to, uint32_t partition,
                          uint32_t vgroup, uint32_t epoch, double bmi) {
    data::Table t(MiniSchema());
    t.AppendUnchecked({data::Value("north"), data::Value(bmi)});
    t.AppendUnchecked({data::Value("south"), data::Value(bmi + 7)});
    auto result = query::GroupingSetsResult::Compute(ViewOf(t), MiniSpec());
    ASSERT_TRUE(result.ok());
    GsPartialMsg msg;
    msg.query_id = 1;
    msg.partition = partition;
    msg.vgroup = vgroup;
    msg.epoch = epoch;
    msg.result = std::move(*result);
    ASSERT_TRUE(
        comp_dev->SendSealed(to->id(), kGsPartial, msg.Encode(), kQuery).ok());
  };
  auto send_final = [&](device::Device* to, uint32_t partition,
                        ml::Matrix centroids, double bmi) {
    KmFinalMsg msg;
    msg.query_id = 1;
    msg.partition = partition;
    msg.knowledge.centroids = std::move(centroids);
    msg.knowledge.counts = {3, 5};
    msg.stats.per_cluster.assign(2, std::vector<query::AggregateState>(1));
    ASSERT_TRUE(msg.stats.per_cluster[0][0].Add(data::Value(bmi)).ok());
    ASSERT_TRUE(msg.stats.per_cluster[1][0].Add(data::Value(bmi + 9)).ok());
    ASSERT_TRUE(
        comp_dev->SendSealed(to->id(), kKmFinal, msg.Encode(), kQuery).ok());
  };

  // Grouping Sets over 2 vgroups, n = 2: partition 1 complete (epochs 0
  // and 1), partition 0 holding vgroup 1 only.
  device::Device* gs_dev = NewDevice();
  auto gs_cfg = MiniCombiner(gs_dev, querier_dev);
  gs_cfg.n_needed = 2;
  CombinerActor gs(&transport_, gs_dev, gs_cfg);
  gs.Start();
  send_partial(gs_dev, 1, 0, 0, 20.0);
  send_partial(gs_dev, 1, 1, 1, 21.0);
  send_partial(gs_dev, 0, 1, 0, 22.0);

  // K-Means: two aligned knowledges, merged stats, partitions 2 and 0
  // seen; no emit time, so no result.
  device::Device* km_dev = NewDevice();
  auto km_cfg = MiniCombiner(km_dev, querier_dev);
  km_cfg.mode = CombinerActor::Mode::kKMeans;
  km_cfg.num_vgroups = 1;
  km_cfg.km_spec = MiniKmSpec();
  CombinerActor km(&transport_, km_dev, km_cfg);
  km.Start();
  send_final(km_dev, 2, {{20.0}, {31.0}}, 19.0);
  sim_.RunUntil(5 * kSecond);
  send_final(km_dev, 0, {{32.0}, {21.0}}, 23.0);

  // Result ready: partition 2 complete over epochs 0 and 1, combined and
  // emitted, with a partial of partition 1 left over.
  device::Device* done_dev = NewDevice();
  const auto done_cfg = MiniCombiner(done_dev, querier_dev);
  CombinerActor done(&transport_, done_dev, done_cfg);
  done.Start();
  send_partial(done_dev, 1, 1, 0, 24.0);
  send_partial(done_dev, 2, 0, 0, 25.0);
  send_partial(done_dev, 2, 1, 1, 26.0);
  sim_.RunUntil(kMinute);
  ASSERT_EQ(gs.partitions_complete(), 1u);
  ASSERT_FALSE(gs.emitted());
  ASSERT_FALSE(km.emitted());
  ASSERT_TRUE(done.emitted());
  ASSERT_TRUE(querier.has_result());
  EXPECT_EQ(querier.result().partitions, (std::vector<uint32_t>{2}));
  EXPECT_EQ(querier.result().epochs, (std::vector<uint32_t>{0, 1}));

  const Bytes partial = gs.SerializeState();
  ExpectPinned(partial, 744, 0xCBAFEF4D90CD896BULL,
               "grouping sets partitions");
  ExpectResumes(partial, resumer(gs_cfg), "grouping sets partitions");
  const Bytes aligned = km.SerializeState();
  ExpectPinned(aligned, 148, 0x5D11EE1079B463F4ULL, "k-means aligned");
  ExpectResumes(aligned, resumer(km_cfg), "k-means aligned");
  const Bytes ready = done.SerializeState();
  ExpectPinned(ready, 841, 0x359ADFA099BA3FD1ULL, "result ready");
  ExpectResumes(ready, resumer(done_cfg), "result ready");
}

// A K-Means report is merged whole or not at all. Before it touches any
// state, the combiner drops a report of a partition the plan did not
// deploy, one whose shape differs from the deployed spec (the first report
// included) and one whose stats fail to merge; the result and its
// partition list are then exactly the good report's alone.
TEST_F(ActorTest, CombinerDropsKMeansReportsItCannotMergeWhole) {
  device::Device* comp_dev = NewDevice();
  // Partition `partition`'s report: two centroids near 20 and 31, each
  // cluster holding `states[c]` AVG(bmi) states.
  auto report = [](uint32_t partition, ml::Matrix centroids,
                    std::vector<size_t> states, double bmi) {
    KmFinalMsg msg;
    msg.query_id = 1;
    msg.partition = partition;
    msg.knowledge.centroids = std::move(centroids);
    msg.knowledge.counts.assign(msg.knowledge.centroids.size(), 4);
    for (size_t n : states) {
      msg.stats.per_cluster.emplace_back(n);
      for (auto& state : msg.stats.per_cluster.back()) {
        EXPECT_TRUE(state.Add(data::Value(bmi)).ok());
        bmi += 10;
      }
    }
    return msg.Encode();
  };
  const Bytes good = report(0, {{20.0}, {31.0}}, {1, 1}, 19.0);
  // Cluster 1 carries two aggregate states: cluster 0 would merge before
  // the mismatch shows.
  const Bytes unmergeable = report(1, {{21.0}, {30.0}}, {1, 2}, 23.0);
  // Three centroids where the spec deploys two.
  const Bytes misshaped =
      report(1, {{21.0}, {30.0}, {40.0}}, {1, 1, 1}, 23.0);
  // A partition the plan never deployed (MiniCombiner deploys 3).
  const Bytes undeployed = report(7, {{21.0}, {30.0}}, {1, 1}, 23.0);

  struct Run {
    std::unique_ptr<QuerierActor> querier;
    std::unique_ptr<CombinerActor> combiner;
  };
  std::vector<Run> runs;
  auto run = [&](const std::vector<Bytes>& reports) -> const QuerierActor& {
    device::Device* querier_dev = NewDevice();
    device::Device* comb_dev = NewDevice();
    auto cfg = MiniCombiner(comb_dev, querier_dev);
    cfg.mode = CombinerActor::Mode::kKMeans;
    cfg.num_vgroups = 1;
    cfg.km_spec = MiniKmSpec();
    cfg.emit_at = sim_.now() + 10 * kSecond;
    Run& r = runs.emplace_back();
    r.querier = std::make_unique<QuerierActor>(&transport_, querier_dev, 1);
    r.combiner = std::make_unique<CombinerActor>(&transport_, comb_dev, cfg);
    r.combiner->Start();
    for (const Bytes& payload : reports) {
      EXPECT_TRUE(
          comp_dev->SendSealed(comb_dev->id(), kKmFinal, payload, kQuery)
              .ok());
      sim_.RunUntil(sim_.now() + kSecond);
    }
    sim_.RunUntil(sim_.now() + kMinute);
    return *r.querier;
  };

  const QuerierActor& alone = run({good});
  ASSERT_TRUE(alone.has_result());
  EXPECT_EQ(alone.result().partitions, (std::vector<uint32_t>{0}));
  for (const auto& [what, reports] :
       std::vector<std::pair<const char*, std::vector<Bytes>>>{
           {"unmergeable second", {good, unmergeable}},
           {"misshaped first", {misshaped, good}},
           {"undeployed partition", {good, undeployed}}}) {
    const QuerierActor& q = run(reports);
    ASSERT_TRUE(q.has_result()) << what;
    EXPECT_EQ(q.result().partitions, (std::vector<uint32_t>{0})) << what;
    EXPECT_EQ(q.result().result, alone.result().result) << what;
  }
}

// A builder checkpoint with `rows` buffered MiniSchema rows and the keys
// 1..`keys` included and seen.
Bytes BuilderState(bool have_schema, int rows, uint64_t keys) {
  Writer w;
  w.PutBool(have_schema);
  w.PutBool(false);  // complete
  w.PutBool(false);  // emitted
  data::ColumnTable buffer(MiniSchema());
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        buffer.AppendTuple({data::Value("north"), data::Value(20.0 + i)})
            .ok());
  }
  buffer.Serialize(&w);
  for (int section = 0; section < 2; ++section) {  // included, then seen
    w.PutVarint(keys);
    for (uint64_t k = 1; k <= keys; ++k) w.PutU64(k);
  }
  return w.Take();
}

TEST_F(ActorTest, SnapshotBuilderRejectsInconsistentResumeState) {
  device::Device* sink_dev = NewDevice();
  auto resume = [&](const Bytes& state) {
    device::Device* dev = NewDevice();
    auto cfg = CollectingBuilder(dev, sink_dev);
    cfg.quota = 3;
    cfg.resume_state = state;
    auto sb = std::make_unique<SnapshotBuilderActor>(&transport_, dev, cfg);
    sb->Start();
    return sb;
  };
  const Bytes fresh = resume(Bytes{})->SerializeState();
  EXPECT_EQ(resume(BuilderState(true, 2, 2))->tuples_collected(), 2u);
  // One key per row, no more rows than the quota of 3, and rows only
  // under a fixed schema: anything else starts fresh.
  for (const Bytes& state :
       {BuilderState(true, 2, 3), BuilderState(true, 4, 4),
        BuilderState(false, 2, 2)}) {
    auto sb = resume(state);
    EXPECT_EQ(sb->tuples_collected(), 0u);
    EXPECT_EQ(sb->SerializeState(), fresh);
  }
}

// A Grouping Sets combiner checkpoint: per partition its complete flag
// and the vgroups holding a one-row partial (epoch 0), then the
// completion order; no K-Means state and no result.
Bytes CombinerState(
    const std::map<uint32_t, std::pair<bool, std::vector<uint32_t>>>&
        partitions,
    const std::vector<uint32_t>& complete_order) {
  data::Table t(MiniSchema());
  t.AppendUnchecked({data::Value("north"), data::Value(10.0)});
  auto partial = query::GroupingSetsResult::Compute(ViewOf(t), MiniSpec());
  EXPECT_TRUE(partial.ok());
  Writer w;
  w.PutVarint(partitions.size());
  for (const auto& [p, entry] : partitions) {
    w.PutU32(p);
    w.PutBool(entry.first);
    w.PutVarint(entry.second.size());
    for (uint32_t vg : entry.second) {
      w.PutU32(vg);
      w.PutU32(0);
      wire::Put(&w, *partial);
    }
  }
  w.PutVarint(complete_order.size());
  for (uint32_t p : complete_order) w.PutU32(p);
  w.PutVarint(0);  // K-Means knowledges
  ClusterStats().Serialize(&w);
  w.PutVarint(0);    // K-Means partitions seen
  w.PutVarint(0);    // merged partitions
  w.PutBool(false);  // result ready
  w.PutBool(false);  // emitted
  return w.Take();
}

TEST_F(ActorTest, CombinerRejectsResumeStateItsHandlersCannotReach) {
  struct Case {
    const char* what;
    uint32_t num_vgroups;
    int n_needed;
    Bytes state;
  };
  const std::vector<Case> cases = {
      {"vgroup 5 of 1", 1, 1, CombinerState({{0, {true, {5}}}}, {0})},
      {"partition 9 of 3", 1, 1, CombinerState({{9, {true, {0}}}}, {9})},
      {"complete without vgroup 1", 2, 1,
       CombinerState({{0, {true, {0}}}}, {0})},
      {"partition 0 ordered twice", 1, 2,
       CombinerState({{0, {true, {0}}}}, {0, 0})},
      {"incomplete partition ordered", 2, 1,
       CombinerState({{0, {false, {0}}}}, {0})},
  };
  // Every actor stays alive to the end: the sim runs on between cases.
  std::vector<std::unique_ptr<ActorBase>> actors;
  SimTime at = 0;
  auto resume = [&](uint32_t num_vgroups, int n_needed, const Bytes& state) {
    device::Device* querier_dev = NewDevice();
    device::Device* comb_dev = NewDevice();
    auto* querier = new QuerierActor(&transport_, querier_dev, 1);
    actors.emplace_back(querier);
    auto cfg = MiniCombiner(comb_dev, querier_dev);
    cfg.num_vgroups = num_vgroups;
    cfg.n_needed = n_needed;
    cfg.resume_state = state;
    auto* combiner = new CombinerActor(&transport_, comb_dev, cfg);
    actors.emplace_back(combiner);
    combiner->Start();
    sim_.RunUntil(at += kMinute);
    return std::make_pair(querier, combiner);
  };

  // The same layout with a complete partition 0 restores and emits.
  auto [control_querier, control] =
      resume(1, 1, CombinerState({{0, {true, {0}}}}, {0}));
  ASSERT_TRUE(control_querier->has_result());
  EXPECT_EQ(control_querier->result().partitions,
            (std::vector<uint32_t>{0}));

  const Bytes fresh = resume(1, 1, Bytes{}).second->SerializeState();
  for (const Case& c : cases) {
    auto [querier, combiner] = resume(c.num_vgroups, c.n_needed, c.state);
    EXPECT_FALSE(querier->has_result()) << c.what;
    EXPECT_EQ(combiner->partitions_complete(), 0u) << c.what;
    EXPECT_EQ(combiner->SerializeState(), fresh) << c.what;
  }
}

// A member's contributor key is its record's contributor_id; there is no
// device-derived fallback. A population without the column, or with a
// NULL id, is rejected at Start() before any event is scheduled, while
// the same population with every id present starts.
TEST_F(ActorTest, ContributorsNeedAContributorIdPerMember) {
  const data::Schema with_id({{data::kContributorIdColumn,
                               data::ValueType::kInt64},
                              {"region", data::ValueType::kString}});
  const data::Schema without_id({{"region", data::ValueType::kString}});
  auto start = [&](const data::Schema& schema, bool null_id) {
    auto store = std::make_shared<data::ColumnTable>(schema);
    for (int64_t i = 0; i < 4; ++i) {
      data::Tuple row;
      if (schema.num_columns() == 2) {
        row.push_back(null_id && i == 2 ? data::Value() : data::Value(i + 1));
      }
      row.push_back(data::Value("north"));
      EXPECT_TRUE(store->AppendTuple(row).ok());
    }
    device::FleetConfig fc;
    fc.num_contributors = 4;
    fc.num_processors = 4;
    fc.contributor_cohort_size = 2;
    fc.enable_churn = false;
    device::Fleet fleet(&network_, &authority_, fc, /*seed=*/3);
    EXPECT_TRUE(fleet.DistributeData(data::TableView(store)).ok());
    auto node = [&](size_t i) { return fleet.processors()[i]->id(); };
    Deployment d;
    d.query.query_id = 1;
    d.query.kind = query::QueryKind::kGroupingSets;
    d.query.grouping_sets = MiniSpec();
    d.quota = 1;
    d.vgroup_columns = {{"region"}};
    d.vgroup_set_indices = {{0}};
    d.sb_groups = {{{node(0)}}};
    d.computer_groups = {{{node(1)}}};
    d.combiner_group = {node(2)};
    d.querier = node(3);
    QueryExecution execution(&transport_, &fleet, d, ExecutionConfig{});
    const size_t pending = sim_.pending_events();
    Status started = execution.Start();
    if (!started.ok()) {
      EXPECT_EQ(sim_.pending_events(), pending) << "rejected Start scheduled";
    }
    return started;
  };
  EXPECT_EQ(start(without_id, false).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(start(with_id, /*null_id=*/true).code(),
            StatusCode::kInvalidArgument);
  Status valid = start(with_id, /*null_id=*/false);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

}  // namespace
}  // namespace edgelet::exec
