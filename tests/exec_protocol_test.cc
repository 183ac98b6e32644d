#include "exec/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "data/column_table.h"
#include "data/generator.h"
#include "exec/execution.h"
#include "exec/recovery.h"
#include "query/quantile.h"
#include "query/scan.h"
#include "table_views.h"

namespace edgelet::exec {
namespace {

data::Table SmallTable() {
  data::HealthDataParams params;
  params.num_individuals = 5;
  return data::GenerateHealthData(params, 3);
}

TEST(ProtocolTest, ContributionRoundTrip) {
  ContributionMsg msg;
  msg.query_id = 42;
  msg.contributor_key = 1337;
  msg.rows = SmallTable();
  auto back = ContributionMsg::Decode(msg.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->query_id, 42u);
  EXPECT_EQ(back->contributor_key, 1337u);
  EXPECT_EQ(back->rows, msg.rows);
}

TEST(ProtocolTest, SnapshotSliceRoundTrip) {
  SnapshotSliceMsg msg;
  msg.query_id = 1;
  msg.partition = 3;
  msg.vgroup = 2;
  msg.epoch = 1;
  msg.rows = *data::ColumnTable::FromTable(SmallTable());
  auto back = SnapshotSliceMsg::Decode(msg.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->partition, 3u);
  EXPECT_EQ(back->vgroup, 2u);
  EXPECT_EQ(back->epoch, 1u);
  EXPECT_EQ(back->rows.ToTable(), SmallTable());
}

TEST(ProtocolTest, GsPartialRoundTrip) {
  query::GroupingSetsSpec spec{
      {{"region"}},
      {{query::AggregateFunction::kCount, "*"}}};
  auto result =
      query::GroupingSetsResult::Compute(testutil::ViewOf(SmallTable()), spec);
  ASSERT_TRUE(result.ok());
  GsPartialMsg msg;
  msg.query_id = 9;
  msg.partition = 1;
  msg.vgroup = 0;
  msg.epoch = 2;
  msg.result = *result;
  auto back = GsPartialMsg::Decode(msg.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->partition, 1u);
  auto t1 = back->result.Finalize();
  auto t2 = result->Finalize();
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(*t1, *t2);
}

TEST(ProtocolTest, KmMessagesRoundTrip) {
  KmKnowledgeMsg k;
  k.query_id = 5;
  k.partition = 2;
  k.round = 7;
  k.knowledge = {{{1.0, 2.0}, {3.0, 4.0}}, {10, 20}};
  auto kb = KmKnowledgeMsg::Decode(k.Encode());
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->round, 7u);
  EXPECT_EQ(kb->knowledge, k.knowledge);

  KmFinalMsg f;
  f.query_id = 5;
  f.partition = 2;
  f.knowledge = k.knowledge;
  query::AggregateState s;
  ASSERT_TRUE(s.Add(data::Value(3.5)).ok());
  f.stats.per_cluster = {{s}, {s}};
  auto fb = KmFinalMsg::Decode(f.Encode());
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(fb->knowledge, f.knowledge);
  ASSERT_EQ(fb->stats.per_cluster.size(), 2u);
  EXPECT_EQ(fb->stats.per_cluster[0][0], s);
}

TEST(ProtocolTest, FinalResultRoundTrip) {
  FinalResultMsg msg;
  msg.query_id = 11;
  msg.partitions = {0, 2, 5};
  msg.epochs = {0, 1, 0, 0, 2, 0};  // 2 vgroups per partition
  msg.result = SmallTable();
  auto back = FinalResultMsg::Decode(msg.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->partitions, msg.partitions);
  EXPECT_EQ(back->epochs, msg.epochs);
  EXPECT_EQ(back->result, msg.result);
}

TEST(ProtocolTest, LeaderPingRoundTrip) {
  LeaderPingMsg ping{0xDEADBEEF12345678ULL, 3};
  auto back = LeaderPingMsg::Decode(ping.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->group_id, ping.group_id);
  EXPECT_EQ(back->rank, 3u);
}

// --- Golden bytes ----------------------------------------------------------

// A fixed table exercising every cell kind, built by hand so the pins
// below do not move with the data generator.
data::Table GoldenTable() {
  data::Table t(data::Schema({{"id", data::ValueType::kInt64},
                              {"region", data::ValueType::kString},
                              {"score", data::ValueType::kDouble}}));
  EXPECT_TRUE(t.Append({data::Value(int64_t{7}), data::Value("north"),
                        data::Value(1.5)})
                  .ok());
  EXPECT_TRUE(t.Append({data::Value(int64_t{-300}), data::Value("south"),
                        data::Value()})
                  .ok());
  EXPECT_TRUE(t.Append({data::Value(), data::Value("north"),
                        data::Value(-0.25)})
                  .ok());
  return t;
}

ml::KMeansKnowledge GoldenKnowledge() { return {{{1.0, -2.0}, {0.5, 4.0}}, {3, 9}}; }

ClusterStats GoldenClusterStats() {
  query::AggregateState a, b;
  EXPECT_TRUE(a.Add(data::Value(2.5)).ok());
  EXPECT_TRUE(b.Add(data::Value(int64_t{4})).ok());
  EXPECT_TRUE(b.Add(data::Value(int64_t{-1})).ok());
  ClusterStats stats;
  stats.per_cluster = {{a}, {a, b}};
  return stats;
}

// One fixed instance of a wire or disk record: its encoding and a decoder
// for it. A record that carries a table is pinned by the Fnv1a64 of its
// bytes, any other by the bytes themselves.
struct GoldenRecord {
  std::string name;
  Bytes bytes;
  std::function<Status(const Bytes&)> decode;
};

template <typename Msg>
GoldenRecord Golden(std::string name, const Msg& msg) {
  return {std::move(name), msg.Encode(),
          [](const Bytes& b) { return Msg::Decode(b).status(); }};
}

std::vector<GoldenRecord> GoldenRecords() {
  const data::Table table = GoldenTable();
  query::GroupingSetsSpec spec{{{"region"}, {}},
                               {{query::AggregateFunction::kCount, "*"},
                                {query::AggregateFunction::kAvg, "score"}}};
  auto partial =
      query::GroupingSetsResult::Compute(testutil::ViewOf(table), spec);
  EXPECT_TRUE(partial.ok());
  Writer stats;
  GoldenClusterStats().Serialize(&stats);

  std::vector<GoldenRecord> out;
  out.push_back(Golden("Contribution",
                       ContributionMsg{42, 0x1122334455667788ULL, table}));
  out.push_back(Golden("SnapshotSlice",
                       SnapshotSliceMsg{42, 3, 1, 2,
                                        *data::ColumnTable::FromTable(table)}));
  out.push_back(Golden("GsPartial", GsPartialMsg{42, 3, 1, 2, *partial}));
  out.push_back(
      Golden("KmKnowledge", KmKnowledgeMsg{42, 5, 6, GoldenKnowledge()}));
  out.push_back(Golden("KmFinal", KmFinalMsg{42, 5, GoldenKnowledge(),
                                             GoldenClusterStats()}));
  out.push_back(Golden("FinalResult",
                       FinalResultMsg{42, {0, 2, 5}, {0, 1, 257}, table}));
  out.push_back(Golden("Recruit", RecruitMsg{42, RecruitRole::kComputer, 3,
                                             1, 258, 0x0102, 0xABCDEF}));
  out.push_back(Golden("RecruitAck",
                       RecruitAckMsg{42, RecruitRole::kComputer, 3, 1, 258}));
  out.push_back(Golden("Resolicit", ResolicitMsg{42, 3, 1, 0x0A0B}));
  out.push_back(Golden("OperatorHeartbeat",
                       OperatorHeartbeatMsg{42, 0xFEDCBA9876543210ULL, 7}));
  out.push_back(Golden("RecoveryHello", RecoveryHelloMsg{
                                            42, RecruitRole::kComputer, 3, 1,
                                            2, 9}));
  out.push_back(Golden("RecoveryAck", RecoveryAckMsg{
                                          42, RecruitRole::kComputer, 3, 1,
                                          true, 9}));
  out.push_back(Golden("LeaderPing", LeaderPingMsg{0xDEADBEEF12345678ULL, 3}));
  out.push_back({"ClusterStats", stats.data(), [](const Bytes& b) {
                   Reader r(b);
                   return ClusterStats::Deserialize(&r).status();
                 }});
  out.push_back(Golden("Checkpoint",
                       CheckpointRecord{OperatorKind::kCombiner, 3, 1, 2, 9,
                                        {0xC0, 0xFF, 0xEE}}));
  return out;
}

TEST(ProtocolTest, GoldenBytes) {
  struct Pin {
    const char* name;
    const char* hex;  // the bytes, or nullptr when pinned by hash
    uint64_t fnv;
  };
  const Pin kPins[] = {
      {"Contribution", nullptr, 0x8d0eb9a84e11dce7ULL},
      {"SnapshotSlice", nullptr, 0x6fb7ea4ea26f37ffULL},
      {"GsPartial", nullptr, 0x69948cc43c6b59b8ULL},
      {"KmKnowledge",
       "2a0000000000000005000000060000000202000000000000f03f00000000000000c0"
       "000000000000e03f00000000000010400309",
       0},
      {"KmFinal", nullptr, 0xf62394c2aa9eefa4ULL},
      {"FinalResult", nullptr, 0x26a4261b4da45383ULL},
      {"Recruit",
       "2a0000000000000001030000000100000002010000020100000000000"
       "0efcdab0000000000",
       0},
      {"RecruitAck", "2a0000000000000001030000000100000002010000", 0},
      {"Resolicit", "2a0000000000000003000000010000000b0a000000000000", 0},
      {"OperatorHeartbeat",
       "2a000000000000001032547698badcfe0700000000000000", 0},
      {"RecoveryHello",
       "2a00000000000000010300000001000000020000000900000000000000", 0},
      {"RecoveryAck", "2a00000000000000010300000001000000010900000000000000",
       0},
      {"LeaderPing", "78563412efbeadde03000000", 0},
      {"ClusterStats", nullptr, 0xb7279b1452f519a9ULL},
      {"Checkpoint", "02030000000100000002000000090000000000000003c0ffee", 0},
  };
  const auto records = GoldenRecords();
  ASSERT_EQ(records.size(), std::size(kPins));
  for (size_t i = 0; i < records.size(); ++i) {
    const GoldenRecord& rec = records[i];
    ASSERT_EQ(rec.name, kPins[i].name);
    if (kPins[i].hex != nullptr) {
      EXPECT_EQ(ToHex(rec.bytes), kPins[i].hex) << rec.name;
    } else {
      EXPECT_EQ(Fnv1a64(rec.bytes.data(), rec.bytes.size()), kPins[i].fnv)
          << rec.name << " (" << rec.bytes.size() << " bytes)";
    }
    EXPECT_TRUE(rec.decode(rec.bytes).ok()) << rec.name;
  }
}

// The records nested inside the messages, each encoded on its own with
// wire::Put: one fixed instance per layout case.
template <typename T>
GoldenRecord Leaf(std::string name, const T& value) {
  Writer w;
  wire::Put(&w, value);
  return {std::move(name), w.Take(), [](const Bytes& b) {
            Reader r(b);
            auto back = wire::Read<T>(&r);
            if (!back.ok()) return back.status();
            Writer again;
            wire::Put(&again, *back);
            return again.data() == b
                       ? Status::OK()
                       : Status::Internal("re-encoding differs");
          }};
}

std::vector<GoldenRecord> LeafRecords() {
  using query::AggregateFunction;
  std::vector<query::AggregateSpec> specs;
  for (int fn = 0; fn <= static_cast<int>(AggregateFunction::kQuantile);
       ++fn) {
    specs.push_back({static_cast<AggregateFunction>(fn), "score",
                     fn == static_cast<int>(AggregateFunction::kQuantile)
                         ? 0.9
                         : 0.5});
  }

  query::AggregateState plain, hll, sketch, both;
  EXPECT_TRUE(plain.Add(data::Value(2.5)).ok());
  EXPECT_TRUE(plain.Add(data::Value(int64_t{-4})).ok());
  EXPECT_TRUE(plain.Add(data::Value(), /*count_star=*/true).ok());
  for (int i = 0; i < 5; ++i) {
    hll.AddDistinct(data::Value("r" + std::to_string(i % 3)));
    EXPECT_TRUE(sketch.AddQuantile(data::Value(0.5 * i)).ok());
    both.AddDistinct(data::Value(int64_t{i}));
    EXPECT_TRUE(both.AddQuantile(data::Value(int64_t{10 - i})).ok());
  }

  // GoldenTable's third row has a NULL id.
  const data::Table table = GoldenTable();
  auto grouped = query::GroupedAggregation::Compute(
      testutil::ViewOf(table),
      {{"id"},
       {{AggregateFunction::kCount, "*"},
        {AggregateFunction::kAvg, "score"},
        {AggregateFunction::kCountDistinct, "region"},
        {AggregateFunction::kQuantile, "score", 0.25}}});
  EXPECT_TRUE(grouped.ok());
  auto one_set = query::GroupingSetsResult::ComputeSets(
      testutil::ViewOf(table),
      {{{"region"}, {"id"}}, {{AggregateFunction::kSum, "score"}}}, {0});
  EXPECT_TRUE(one_set.ok());

  query::QuantileSketch levels(8);
  for (int i = 0; i < 40; ++i) levels.Add((i * 7) % 40 - 3.5);

  std::vector<GoldenRecord> out;
  out.push_back(Leaf("AggregateSpecs", specs));
  out.push_back(Leaf("AggregateState", plain));
  out.push_back(Leaf("AggregateStateHll", hll));
  out.push_back(Leaf("AggregateStateSketch", sketch));
  out.push_back(Leaf("AggregateStateHllSketch", both));
  out.push_back(Leaf("GroupedAggregationNullKey", *grouped));
  out.push_back(Leaf("GroupingSetsResultOneAbsent", *one_set));
  out.push_back(Leaf("QuantileSketchLevels", levels));
  out.push_back(Leaf("Schema", data::Schema({{"n", data::ValueType::kNull},
                                             {"i", data::ValueType::kInt64},
                                             {"d", data::ValueType::kDouble},
                                             {"s", data::ValueType::kString}})));
  return out;
}

TEST(ProtocolTest, LeafRecordBytesArePinned) {
  struct Pin {
    const char* name;
    size_t size;
    uint64_t fnv;
  };
  const Pin kPins[] = {
      {"AggregateSpecs", 136, 0x5cf6cbd75a3cd87bULL},
      {"AggregateState", 36, 0x6e333f82e31c7f10ULL},
      {"AggregateStateHll", 44, 0x1ab0116a5283bf6cULL},
      {"AggregateStateSketch", 81, 0x9cbb864c4d904520ULL},
      {"AggregateStateHllSketch", 106, 0x29ac158cdbb61bb8ULL},
      {"GroupedAggregationNullKey", 558, 0x9b49e8d92b7a9790ULL},
      {"GroupingSetsResultOneAbsent", 147, 0x65e8ec723e2e7578ULL},
      {"QuantileSketchLevels", 71, 0x5150481223c727cfULL},
      {"Schema", 13, 0xf37b9d6bd1ff2f9bULL},
  };
  const auto records = LeafRecords();
  ASSERT_EQ(records.size(), std::size(kPins));
  for (size_t i = 0; i < records.size(); ++i) {
    const GoldenRecord& rec = records[i];
    ASSERT_EQ(rec.name, kPins[i].name);
    EXPECT_EQ(rec.bytes.size(), kPins[i].size) << rec.name;
    EXPECT_EQ(Fnv1a64(rec.bytes.data(), rec.bytes.size()), kPins[i].fnv)
        << rec.name << std::hex << " 0x"
        << Fnv1a64(rec.bytes.data(), rec.bytes.size());
    EXPECT_TRUE(rec.decode(rec.bytes).ok()) << rec.name;
    for (size_t cut = 0; cut < rec.bytes.size(); ++cut) {
      const Bytes prefix(rec.bytes.begin(), rec.bytes.begin() + cut);
      EXPECT_FALSE(rec.decode(prefix).ok())
          << rec.name << " cut at " << cut << " of " << rec.bytes.size();
    }
  }
}

TEST(ProtocolTest, TruncatedMessagesFail) {
  for (const GoldenRecord& rec : GoldenRecords()) {
    for (size_t cut = 0; cut < rec.bytes.size(); ++cut) {
      const Bytes prefix(rec.bytes.begin(), rec.bytes.begin() + cut);
      EXPECT_FALSE(rec.decode(prefix).ok())
          << rec.name << " cut at " << cut << " of " << rec.bytes.size();
    }
  }
}

TEST(ProtocolTest, RecruitAndRepairRoundTrips) {
  RecruitMsg recruit{7, RecruitRole::kSnapshotBuilder, 4, 2, 300, 11, 12};
  auto r = RecruitMsg::Decode(recruit.Encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->query_id, 7u);
  EXPECT_EQ(r->role, RecruitRole::kSnapshotBuilder);
  EXPECT_EQ(r->partition, 4u);
  EXPECT_EQ(r->vgroup, 2u);
  EXPECT_EQ(r->epoch, 300u);
  EXPECT_EQ(r->peer, 11u);
  EXPECT_EQ(r->controller, 12u);

  RecruitAckMsg ack{7, RecruitRole::kComputer, 4, 2, 300};
  auto a = RecruitAckMsg::Decode(ack.Encode());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->query_id, 7u);
  EXPECT_EQ(a->role, RecruitRole::kComputer);
  EXPECT_EQ(a->partition, 4u);
  EXPECT_EQ(a->vgroup, 2u);
  EXPECT_EQ(a->epoch, 300u);

  ResolicitMsg resolicit{7, 4, 2, 99};
  auto s = ResolicitMsg::Decode(resolicit.Encode());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->query_id, 7u);
  EXPECT_EQ(s->partition, 4u);
  EXPECT_EQ(s->vgroup, 2u);
  EXPECT_EQ(s->builder, 99u);

  OperatorHeartbeatMsg beat{7, 1234, 5};
  auto h = OperatorHeartbeatMsg::Decode(beat.Encode());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->query_id, 7u);
  EXPECT_EQ(h->op_id, 1234u);
  EXPECT_EQ(h->incarnation, 5u);
}

TEST(ProtocolTest, RecoveryRoundTrips) {
  RecoveryHelloMsg hello{7, RecruitRole::kComputer, 4, 2, 3, 6};
  auto h = RecoveryHelloMsg::Decode(hello.Encode());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->query_id, 7u);
  EXPECT_EQ(h->role, RecruitRole::kComputer);
  EXPECT_EQ(h->partition, 4u);
  EXPECT_EQ(h->vgroup, 2u);
  EXPECT_EQ(h->epoch, 3u);
  EXPECT_EQ(h->incarnation, 6u);

  for (bool resume : {false, true}) {
    RecoveryAckMsg ack{7, RecruitRole::kSnapshotBuilder, 4, 2, resume, 6};
    auto a = RecoveryAckMsg::Decode(ack.Encode());
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->query_id, 7u);
    EXPECT_EQ(a->role, RecruitRole::kSnapshotBuilder);
    EXPECT_EQ(a->partition, 4u);
    EXPECT_EQ(a->vgroup, 2u);
    EXPECT_EQ(a->resume, resume);
    EXPECT_EQ(a->incarnation, 6u);
  }

  CheckpointRecord rec{OperatorKind::kComputer, 4, 2, 3, 6, {1, 2, 3, 4}};
  auto c = CheckpointRecord::Decode(rec.Encode());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->kind, OperatorKind::kComputer);
  EXPECT_EQ(c->partition, 4u);
  EXPECT_EQ(c->vgroup, 2u);
  EXPECT_EQ(c->epoch, 3u);
  EXPECT_EQ(c->incarnation, 6u);
  EXPECT_EQ(c->state, rec.state);
}

TEST(ProtocolTest, OutOfRangeTagsRejected) {
  // The role tag sits right after the 8-byte query id; tag 2 names no role.
  auto bad_role = [](Bytes b) {
    b[8] = 2;
    return b;
  };
  EXPECT_FALSE(RecruitMsg::Decode(bad_role(RecruitMsg{}.Encode())).ok());
  EXPECT_FALSE(RecruitAckMsg::Decode(bad_role(RecruitAckMsg{}.Encode())).ok());
  EXPECT_FALSE(
      RecoveryHelloMsg::Decode(bad_role(RecoveryHelloMsg{}.Encode())).ok());
  EXPECT_FALSE(
      RecoveryAckMsg::Decode(bad_role(RecoveryAckMsg{}.Encode())).ok());

  // The checkpoint kind is the first byte; 3 names no operator.
  Bytes checkpoint = CheckpointRecord{}.Encode();
  checkpoint[0] = 3;
  EXPECT_FALSE(CheckpointRecord::Decode(checkpoint).ok());

  // RecoveryAck's resume flag follows query id, role, partition and vgroup.
  Bytes ack = RecoveryAckMsg{}.Encode();
  ack[8 + 1 + 4 + 4] = 2;
  EXPECT_FALSE(RecoveryAckMsg::Decode(ack).ok());
}

TEST(ProtocolTest, EveryDecodeFailureIsCorruption) {
  for (const GoldenRecord& rec : GoldenRecords()) {
    for (size_t cut = 0; cut < rec.bytes.size(); ++cut) {
      const Bytes prefix(rec.bytes.begin(), rec.bytes.begin() + cut);
      EXPECT_EQ(rec.decode(prefix).code(), StatusCode::kCorruption)
          << rec.name << " cut at " << cut;
    }
  }
  Bytes recruit = RecruitMsg{}.Encode();
  recruit[8] = 2;
  EXPECT_EQ(RecruitMsg::Decode(recruit).status().code(),
            StatusCode::kCorruption);
  Bytes checkpoint = CheckpointRecord{}.Encode();
  checkpoint[0] = 3;
  EXPECT_EQ(CheckpointRecord::Decode(checkpoint).status().code(),
            StatusCode::kCorruption);
}

// --- Hostile element counts --------------------------------------------------

// A wire count the input cannot back must fail the decode cleanly instead
// of sizing a container from it (std::bad_alloc would abort the actor).
constexpr uint64_t kHostileCount = uint64_t{1} << 40;

TEST(ProtocolTest, HostileContributionRowCountRejected) {
  // The 30-byte message: header, a one-column schema, a row count of
  // 2^40, then a single real cell and two bytes of slack.
  Writer w;
  w.PutU64(1);
  w.PutU64(2);
  wire::Put(&w, data::Schema({{"a", data::ValueType::kInt64}}));
  w.PutVarint(kHostileCount);
  data::Value(int64_t{5}).Serialize(&w);
  w.PutU8(0);
  w.PutU8(0);
  ASSERT_EQ(w.size(), 30u);
  auto decoded = ContributionMsg::Decode(w.data());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, HostileSchemaAndSliceCountsRejected) {
  Writer schema_count;
  schema_count.PutU64(1);
  schema_count.PutU64(2);
  schema_count.PutVarint(kHostileCount);  // columns
  schema_count.PutString("a");
  schema_count.PutU8(1);
  EXPECT_FALSE(ContributionMsg::Decode(schema_count.data()).ok());

  Writer slice;
  slice.PutU64(1);
  slice.PutU32(0);
  slice.PutU32(0);
  slice.PutU32(0);
  wire::Put(&slice, data::Schema({{"a", data::ValueType::kDouble}}));
  slice.PutVarint(kHostileCount);
  auto hostile_rows = SnapshotSliceMsg::Decode(slice.data());
  ASSERT_FALSE(hostile_rows.ok());
  EXPECT_EQ(hostile_rows.status().code(), StatusCode::kCorruption);

  // With no columns there are no cells to run out of: each row is charged
  // one byte.
  Writer zero_columns;
  zero_columns.PutU64(1);
  zero_columns.PutU32(0);
  zero_columns.PutU32(0);
  zero_columns.PutU32(0);
  wire::Put(&zero_columns, data::Schema());
  zero_columns.PutVarint(kHostileCount);
  auto hostile_empty_rows = SnapshotSliceMsg::Decode(zero_columns.data());
  ASSERT_FALSE(hostile_empty_rows.ok());
  EXPECT_EQ(hostile_empty_rows.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, HostileClusterAndCentroidCountsRejected) {
  // KmFinalMsg: an empty knowledge block, then 2^40 clusters.
  Writer clusters;
  clusters.PutU64(1);
  clusters.PutU32(0);
  clusters.PutVarint(0);  // k
  clusters.PutVarint(0);  // d
  clusters.PutVarint(kHostileCount);
  EXPECT_FALSE(KmFinalMsg::Decode(clusters.data()).ok());

  // One cluster claiming 2^40 aggregate states.
  Writer states;
  states.PutU64(1);
  states.PutU32(0);
  states.PutVarint(0);
  states.PutVarint(0);
  states.PutVarint(1);
  states.PutVarint(kHostileCount);
  EXPECT_FALSE(KmFinalMsg::Decode(states.data()).ok());

  // KmKnowledgeMsg with 2^40 centroids, then with 2^40 dimensions.
  for (bool hostile_k : {true, false}) {
    Writer w;
    w.PutU64(1);
    w.PutU32(0);
    w.PutU32(0);
    w.PutVarint(hostile_k ? kHostileCount : 2);
    w.PutVarint(hostile_k ? 2 : kHostileCount);
    w.PutDouble(1.0);
    EXPECT_FALSE(KmKnowledgeMsg::Decode(w.data()).ok()) << hostile_k;
  }
}

TEST(ProtocolTest, HostileFinalResultPartitionCountRejected) {
  Writer w;
  w.PutU64(1);
  w.PutVarint(kHostileCount);  // partitions
  w.PutU32(0);
  auto decoded = FinalResultMsg::Decode(w.data());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// A GsPartialMsg with one grouping set of keys `set_keys` and aggregates
// COUNT(*) and AVG(score), whose per-set aggregation declares the keys
// `inner_keys` and holds one group of `key_values` keys and `states`
// aggregate states.
Bytes GsPartialWithShape(const std::vector<std::string>& set_keys,
                         const std::vector<std::string>& inner_keys,
                         size_t key_values, size_t states) {
  const std::vector<query::AggregateSpec> aggregates = {
      {query::AggregateFunction::kCount, "*"},
      {query::AggregateFunction::kAvg, "score"}};
  query::AggregateState state;
  EXPECT_TRUE(state.Add(data::Value(1.5)).ok());
  Writer w;
  w.PutU64(1);
  w.PutU32(0);
  w.PutU32(0);
  w.PutU32(0);
  wire::Put(&w, query::GroupingSetsSpec{{set_keys}, aggregates});
  w.PutVarint(1);   // per-set entries
  w.PutBool(true);  // present
  wire::Put(&w, query::GroupBySpec{inner_keys, aggregates});
  w.PutVarint(1);  // groups
  w.PutVarint(key_values);
  for (size_t i = 0; i < key_values; ++i) data::Value("north").Serialize(&w);
  w.PutVarint(states);
  for (size_t i = 0; i < states; ++i) wire::Put(&w, state);
  return w.Take();
}

TEST(ProtocolTest, HostileGsPartialShapesRejected) {
  ASSERT_TRUE(
      GsPartialMsg::Decode(GsPartialWithShape({"region"}, {"region"}, 1, 2))
          .ok());
  struct Case {
    const char* what;
    Bytes bytes;
  };
  const Case kCases[] = {
      // Finalize would read the missing second state.
      {"fewer states than aggregates",
       GsPartialWithShape({"region"}, {"region"}, 1, 1)},
      // Finalize would place the set's two keys over a one-key row.
      {"per-set spec differs from the set",
       GsPartialWithShape({"region", "sex"}, {"region"}, 1, 2)},
      {"more key values than keys",
       GsPartialWithShape({"region"}, {"region"}, 2, 2)},
  };
  for (const Case& c : kCases) {
    auto decoded = GsPartialMsg::Decode(c.bytes);
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << c.what;
  }
}

TEST(ProtocolTest, HostileQuantileLevelCountRejected) {
  Writer w;
  w.PutVarint(128);  // k
  w.PutVarint(1);    // count
  w.PutVarint(1);    // levels
  w.PutVarint(kHostileCount);
  w.PutDouble(1.0);
  Reader r(w.data());
  EXPECT_FALSE(wire::Read<query::QuantileSketch>(&r).ok());
}

// --- ContributionEncoder: wire identity -------------------------------------

// A population exercising every cell encoding: NULLs in every column,
// negative and extreme int64s (multi-byte zigzag varints), doubles incl.
// -0.0 and infinities, strings incl. empty and >127-byte ones (two-byte
// length prefix), plus an all-NULL column.
std::shared_ptr<const data::ColumnTable> WireTestStore(size_t rows,
                                                       uint64_t seed) {
  data::ColumnTable store(data::Schema({{"id", data::ValueType::kInt64},
                                        {"name", data::ValueType::kString},
                                        {"score", data::ValueType::kDouble},
                                        {"big", data::ValueType::kInt64},
                                        {"tag", data::ValueType::kString},
                                        {"void", data::ValueType::kNull}}));
  const int64_t kInts[] = {0,
                           -1,
                           63,
                           -64,
                           1 << 20,
                           -(int64_t{1} << 40),
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  const double kDoubles[] = {0.0, -0.0, 1.5, -2.25e300,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min()};
  const std::string kStrings[] = {"", "north", std::string(200, 'x'),
                                  "caf\xc3\xa9"};
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    auto null = [&]() { return rng.NextBelow(5) == 0; };
    if (null()) store.AppendNull(0);
    else store.AppendInt64(0, static_cast<int64_t>(r) - 100);
    if (null()) store.AppendNull(1);
    else store.AppendString(1, kStrings[rng.NextBelow(4)]);
    if (null()) store.AppendNull(2);
    else store.AppendDouble(2, kDoubles[rng.NextBelow(7)]);
    if (null()) store.AppendNull(3);
    else store.AppendInt64(3, kInts[rng.NextBelow(8)]);
    if (null()) store.AppendNull(4);
    else store.AppendString(4, "t" + std::to_string(rng.NextBelow(300)));
    store.AppendNull(5);
    store.FinishRow();
  }
  return std::make_shared<const data::ColumnTable>(std::move(store));
}

Bytes ReferenceContribution(uint64_t query_id, uint64_t key,
                            const data::TableView& rows,
                            const std::vector<std::string>& columns) {
  auto projected = rows.ProjectToTable(columns);
  EXPECT_TRUE(projected.ok());
  ContributionMsg msg;
  msg.query_id = query_id;
  msg.contributor_key = key;
  msg.rows = std::move(*projected);
  return msg.Encode();
}

TEST(ContributionEncoderTest, BytesEqualProjectThenEncode) {
  auto store = WireTestStore(400, 11);
  const data::TableView all(store);
  const std::vector<std::vector<std::string>> vgroups = {
      {"id", "name", "score", "big", "tag", "void"},
      {"score"},
      {"tag", "id"},
      {"void", "big", "name"},
      {}};
  auto encoder = ContributionEncoder::Resolve(77, store->schema(), vgroups);
  ASSERT_TRUE(encoder.ok()) << encoder.status().ToString();

  // Multi-row views as a ContributorActor holds them: contiguous slices,
  // a predicate-qualified selection, and an empty view.
  auto qualified = query::ApplyPredicates(
      all, {{"score", query::CompareOp::kGt, data::Value(0.0)}});
  ASSERT_TRUE(qualified.ok());
  ASSERT_FALSE(qualified->contiguous());
  const std::vector<data::TableView> views = {
      all, all.Slice(17, 40), all.Slice(399, 5), *qualified,
      qualified->Slice(3, 9), all.Slice(0, 0)};

  Writer w;
  for (size_t vg = 0; vg < vgroups.size(); ++vg) {
    // One-row cohort members, straight from the store row.
    for (size_t row = 0; row < store->num_rows(); ++row) {
      const uint64_t key = 0x9E3779B97F4A7C15ULL * (row + 1);
      ASSERT_EQ(encoder->EncodeRow(vg, key, *store, row, &w),
                ReferenceContribution(77, key, all.Slice(row, 1), vgroups[vg]))
          << "vgroup " << vg << " row " << row;
    }
    for (size_t v = 0; v < views.size(); ++v) {
      ASSERT_EQ(encoder->Encode(vg, v, views[v], &w),
                ReferenceContribution(77, v, views[v], vgroups[vg]))
          << "vgroup " << vg << " view " << v;
    }
  }
}

TEST(ContributionEncoderTest, DecodesToTheProjectedRows) {
  auto store = WireTestStore(50, 3);
  const data::TableView all(store);
  const std::vector<std::string> columns = {"tag", "big", "score"};
  auto encoder = ContributionEncoder::Resolve(5, store->schema(), {columns});
  ASSERT_TRUE(encoder.ok());
  Writer w;
  auto back = ContributionMsg::Decode(encoder->Encode(0, 9, all, &w));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->query_id, 5u);
  EXPECT_EQ(back->contributor_key, 9u);
  EXPECT_EQ(back->rows, *all.ProjectToTable(columns));
}

TEST(ContributionEncoderTest, UnknownColumnFailsToResolve) {
  auto store = WireTestStore(1, 1);
  EXPECT_FALSE(
      ContributionEncoder::Resolve(1, store->schema(), {{"id"}, {"nope"}})
          .ok());
}

TEST(ClusterStatsTest, PermuteReorders) {
  query::AggregateState a, b;
  ASSERT_TRUE(a.Add(data::Value(1.0)).ok());
  ASSERT_TRUE(b.Add(data::Value(2.0)).ok());
  ClusterStats stats;
  stats.per_cluster = {{a}, {b}};
  stats.Permute({1, 0});  // cluster 0 -> index 1, cluster 1 -> index 0
  EXPECT_EQ(stats.per_cluster[1][0], a);
  EXPECT_EQ(stats.per_cluster[0][0], b);
}

TEST(ClusterStatsTest, PermuteWithBadIndicesKeepsInPlace) {
  query::AggregateState a;
  ASSERT_TRUE(a.Add(data::Value(1.0)).ok());
  ClusterStats stats;
  stats.per_cluster = {{a}};
  stats.Permute({7});  // out of range: identity fallback
  EXPECT_EQ(stats.per_cluster[0][0], a);
}

TEST(ClusterStatsTest, MergeAccumulates) {
  query::AggregateState a, b;
  ASSERT_TRUE(a.Add(data::Value(1.0)).ok());
  ASSERT_TRUE(b.Add(data::Value(3.0)).ok());
  ClusterStats s1, s2;
  s1.per_cluster = {{a}};
  s2.per_cluster = {{b}};
  ASSERT_TRUE(s1.MergeFrom(s2).ok());
  EXPECT_DOUBLE_EQ(
      s1.per_cluster[0][0].Finalize(query::AggregateFunction::kAvg)
          .AsDouble(),
      2.0);
}

TEST(ClusterStatsTest, MergeIntoEmptyAdopts) {
  query::AggregateState a;
  ASSERT_TRUE(a.Add(data::Value(5.0)).ok());
  ClusterStats empty, other;
  other.per_cluster = {{a}};
  ASSERT_TRUE(empty.MergeFrom(other).ok());
  EXPECT_EQ(empty.per_cluster.size(), 1u);
}

TEST(ClusterStatsTest, MergeShapeMismatchFails) {
  ClusterStats s1, s2;
  s1.per_cluster = {{query::AggregateState{}}};
  s2.per_cluster = {{query::AggregateState{}}, {query::AggregateState{}}};
  EXPECT_FALSE(s1.MergeFrom(s2).ok());
}

TEST(ProtocolTest, StrategyNames) {
  EXPECT_EQ(StrategyName(Strategy::kOvercollection), "Overcollection");
  EXPECT_EQ(StrategyName(Strategy::kBackup), "Backup");
}

}  // namespace
}  // namespace edgelet::exec
