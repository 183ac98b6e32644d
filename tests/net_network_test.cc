#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace edgelet::net {
namespace {

// Records everything it receives.
class RecordingNode : public Node {
 public:
  void OnMessage(const Message& msg) override { received.push_back(msg); }
  void OnOnline() override { ++online_events; }
  void OnOffline() override { ++offline_events; }

  std::vector<Message> received;
  int online_events = 0;
  int offline_events = 0;
};

Message Make(NodeId from, NodeId to, uint32_t type = 1) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = type;
  m.payload = BytesFromString("payload");
  return m;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(1) {}

  Network MakeNetwork(NetworkConfig cfg = {}) { return Network(&sim_, cfg); }

  Simulator sim_;
};

TEST_F(NetworkTest, DeliversBetweenOnlineNodes) {
  Network net = MakeNetwork();
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  net.Send(Make(ida, idb));
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, ida);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
  EXPECT_GT(sim_.now(), 0u);  // latency elapsed
}

TEST_F(NetworkTest, LatencyRespectsFloor) {
  NetworkConfig cfg;
  cfg.latency.min_latency = 50 * kMillisecond;
  cfg.latency.mean_extra = 10 * kMillisecond;
  Network net(&sim_, cfg);
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  net.Send(Make(ida, idb));
  sim_.Run();
  EXPECT_GE(sim_.now(), 50 * kMillisecond);
}

TEST_F(NetworkTest, DropProbabilityLosesMessages) {
  NetworkConfig cfg;
  cfg.drop_probability = 0.5;
  Network net(&sim_, cfg);
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  const int n = 2000;
  for (int i = 0; i < n; ++i) net.Send(Make(ida, idb));
  sim_.Run();
  EXPECT_GT(net.stats().dropped_random, 800u);
  EXPECT_LT(net.stats().dropped_random, 1200u);
  EXPECT_EQ(b.received.size() + net.stats().dropped_random,
            static_cast<size_t>(n));
}

TEST_F(NetworkTest, SenderOfflineDrops) {
  Network net = MakeNetwork();
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  net.SetOnline(ida, false);
  net.Send(Make(ida, idb));
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().dropped_sender_offline, 1u);
}

TEST_F(NetworkTest, StoreAndForwardDeliversOnReconnect) {
  Network net = MakeNetwork();  // store_and_forward defaults to true
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  net.SetOnline(idb, false);
  net.Send(Make(ida, idb));
  sim_.Run();
  EXPECT_TRUE(b.received.empty());  // parked in mailbox
  net.SetOnline(idb, true);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST_F(NetworkTest, WithoutStoreAndForwardOfflineReceiverDrops) {
  NetworkConfig cfg;
  cfg.store_and_forward = false;
  Network net(&sim_, cfg);
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  net.SetOnline(idb, false);
  net.Send(Make(ida, idb));
  sim_.Run();
  net.SetOnline(idb, true);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().dropped_receiver_offline, 1u);
}

TEST_F(NetworkTest, MailboxTtlExpiresOldMessages) {
  NetworkConfig cfg;
  cfg.mailbox_ttl = 1 * kSecond;
  Network net(&sim_, cfg);
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  net.SetOnline(idb, false);
  net.Send(Make(ida, idb));
  sim_.Run();
  // Reconnect long after the TTL.
  sim_.ScheduleAt(sim_.now() + 10 * kSecond,
                  [&] { net.SetOnline(idb, true); });
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().expired_in_mailbox, 1u);
}

TEST_F(NetworkTest, KilledNodeNeverReceives) {
  Network net = MakeNetwork();
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  net.Send(Make(ida, idb));
  net.Kill(idb);
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(net.IsDead(idb));
  EXPECT_FALSE(net.IsOnline(idb));
  EXPECT_EQ(net.stats().dropped_dead, 1u);
}

TEST_F(NetworkTest, KilledNodeCannotSend) {
  Network net = MakeNetwork();
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  net.Kill(ida);
  net.Send(Make(ida, idb));
  sim_.Run();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetworkTest, ReviveAfterKillIsIgnored) {
  Network net = MakeNetwork();
  RecordingNode a;
  NodeId ida = net.Register(&a);
  net.Kill(ida);
  net.SetOnline(ida, true);
  EXPECT_FALSE(net.IsOnline(ida));
}

TEST_F(NetworkTest, OnlineOfflineCallbacks) {
  Network net = MakeNetwork();
  RecordingNode a;
  NodeId ida = net.Register(&a);
  net.SetOnline(ida, false);
  net.SetOnline(ida, false);  // idempotent
  net.SetOnline(ida, true);
  EXPECT_EQ(a.offline_events, 1);
  EXPECT_EQ(a.online_events, 1);
}

TEST_F(NetworkTest, ChurnGeneratesTransitions) {
  Network net = MakeNetwork();
  RecordingNode a;
  net.Register(&a, ChurnModel::Intermittent(10 * kSecond, 5 * kSecond));
  sim_.RunUntil(10 * kMinute);
  EXPECT_GT(a.online_events + a.offline_events, 10);
}

TEST_F(NetworkTest, ChurnWithStoreAndForwardEventuallyDelivers) {
  Network net = MakeNetwork();
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb =
      net.Register(&b, ChurnModel::Intermittent(5 * kSecond, 20 * kSecond));
  // Fire messages periodically for a while.
  for (int i = 0; i < 50; ++i) {
    sim_.ScheduleAt(i * kSecond, [&net, ida, idb] {
      net.Send(Make(ida, idb));
    });
  }
  sim_.RunUntil(10 * kMinute);
  // Everything sent is eventually delivered (no TTL, no random drop).
  EXPECT_EQ(b.received.size(), 50u);
}

TEST_F(NetworkTest, StatsCountBytes) {
  Network net = MakeNetwork();
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  Message m = Make(ida, idb);
  size_t wire = m.WireSize();
  net.Send(m);
  sim_.Run();
  EXPECT_EQ(net.stats().bytes_sent, wire);
  EXPECT_EQ(net.stats().bytes_delivered, wire);
}

TEST_F(NetworkTest, BandwidthAddsSerializationDelay) {
  NetworkConfig cfg;
  cfg.latency.min_latency = 0;
  cfg.latency.mean_extra = 0;
  cfg.bytes_per_second = 1000;  // 1 KB/s
  Network net(&sim_, cfg);
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  Message m = Make(ida, idb);
  m.payload = Bytes(972, 0x00);  // 1000 wire bytes => 1 s
  net.Send(m);
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(sim_.now(), 1 * kSecond);
}

TEST_F(NetworkTest, ZeroBandwidthMeansNoSerializationDelay) {
  NetworkConfig cfg;
  cfg.latency.min_latency = 5 * kMillisecond;
  cfg.latency.mean_extra = 0;
  cfg.bytes_per_second = 0;
  Network net(&sim_, cfg);
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);
  Message m = Make(ida, idb);
  m.payload = Bytes(100000, 0x00);
  net.Send(m);
  sim_.Run();
  EXPECT_EQ(sim_.now(), 5 * kMillisecond);
}

TEST_F(NetworkTest, MessageAadFixedMatchesMessageAad) {
  Message m = Make(0x1122334455667788ull, 2, 0xdeadbeef);
  m.seq = 0x99aabbccddeeff00ull;
  Bytes heap = MessageAad(m);
  MessageAadBuf fixed = MessageAadFixed(m);
  ASSERT_EQ(heap.size(), fixed.size());
  EXPECT_TRUE(std::equal(fixed.begin(), fixed.end(), heap.begin()));
}

TEST_F(NetworkTest, PayloadBuffersRecycleThroughThePool) {
  Network net = MakeNetwork();
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);

  // First message: pool is cold, payload is a fresh allocation.
  Message m = Make(ida, idb);
  m.payload = net.AcquirePayloadBuffer();
  m.payload.assign(64, 0x42);
  net.Send(std::move(m));
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(net.stats().payload_buffers_reused, 0u);

  // The delivered payload was recycled; the next acquisition reuses it.
  Bytes buf = net.AcquirePayloadBuffer();
  EXPECT_EQ(net.stats().payload_buffers_reused, 1u);
  EXPECT_GE(buf.capacity(), 64u);
  EXPECT_TRUE(buf.empty());
  net.RecyclePayloadBuffer(std::move(buf));

  // Dropped messages recycle too (receiver dead).
  net.Kill(idb);
  Message m2 = Make(ida, idb);
  m2.payload = net.AcquirePayloadBuffer();
  EXPECT_EQ(net.stats().payload_buffers_reused, 2u);
  m2.payload.assign(64, 0x43);
  net.Send(std::move(m2));
  sim_.Run();
  Bytes again = net.AcquirePayloadBuffer();
  EXPECT_EQ(net.stats().payload_buffers_reused, 3u);
  EXPECT_GE(again.capacity(), 64u);
}

// A bulk payload (a snapshot slice) is freed on delivery: the pool hands
// out only buffers at or below the bound, so it never pins a slice's size.
TEST_F(NetworkTest, BulkPayloadBuffersAreNotPooled) {
  Network net = MakeNetwork();
  RecordingNode a, b;
  NodeId ida = net.Register(&a);
  NodeId idb = net.Register(&b);

  Message bulk = Make(ida, idb);
  bulk.payload = net.AcquirePayloadBuffer();
  bulk.payload.assign(Network::kMaxPooledPayloadBytes + 1, 0x42);
  net.Send(std::move(bulk));
  sim_.Run();
  ASSERT_EQ(b.received.size(), 1u);
  Bytes after_bulk = net.AcquirePayloadBuffer();
  EXPECT_EQ(after_bulk.capacity(), 0u);
  EXPECT_EQ(net.stats().payload_buffers_reused, 0u);

  // A payload at the bound is still pooled and handed out again.
  Message small = Make(ida, idb);
  small.payload.reserve(Network::kMaxPooledPayloadBytes);
  small.payload.assign(Network::kMaxPooledPayloadBytes, 0x43);
  ASSERT_LE(small.payload.capacity(), Network::kMaxPooledPayloadBytes);
  net.Send(std::move(small));
  sim_.Run();
  ASSERT_EQ(b.received.size(), 2u);
  Bytes reused = net.AcquirePayloadBuffer();
  EXPECT_EQ(net.stats().payload_buffers_reused, 1u);
  EXPECT_EQ(reused.capacity(), Network::kMaxPooledPayloadBytes);

  // Recycling an oversized buffer directly does not pool it either.
  net.RecyclePayloadBuffer(Bytes(2 * Network::kMaxPooledPayloadBytes));
  EXPECT_EQ(net.AcquirePayloadBuffer().capacity(), 0u);
  EXPECT_EQ(net.stats().payload_buffers_reused, 1u);
}

TEST_F(NetworkTest, MessageAadBindsHeader) {
  Message m1 = Make(1, 2, 7);
  m1.seq = 9;
  Message m2 = m1;
  m2.seq = 10;
  EXPECT_NE(MessageAad(m1), MessageAad(m2));
  Message m3 = m1;
  m3.to = 3;
  EXPECT_NE(MessageAad(m1), MessageAad(m3));
}

}  // namespace
}  // namespace edgelet::net
