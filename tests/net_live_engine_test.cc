// The wall-clock engine beneath the live transport: horizon gating (no
// callback outside RunUntil), timer ordering within a shard, cancel
// semantics matching the DES engines, idle fast-forward, and the frozen
// clock between runs.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "net/live/live_engine.h"
#include "net/network.h"
#include "net/transport.h"

namespace edgelet::net::live {
namespace {

LiveEngine::Options FastOptions(size_t workers = 2) {
  LiveEngine::Options o;
  o.num_workers = workers;
  o.time_scale = 1000 * 1000;  // one simulated second per wall microsecond
  return o;
}

TEST(LiveEngineTest, RunsNothingOutsideRunUntil) {
  LiveEngine engine(1, FastOptions());
  std::atomic<int> fired{0};
  engine.ScheduleAt(1, 10, [&] { fired.fetch_add(1); });
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_EQ(fired.load(), 0) << "callbacks must wait for RunUntil";
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.RunUntil(5);  // horizon below the due time: still gated
  EXPECT_EQ(fired.load(), 0);
  engine.RunUntil(10);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_executed(), 1u);
}

TEST(LiveEngineTest, SameOwnerTimersFireInTimeThenFifoOrder) {
  LiveEngine engine(1, FastOptions());
  std::vector<int> order;  // same owner => same worker => no data race
  engine.ScheduleAt(3, 20, [&] { order.push_back(2); });
  engine.ScheduleAt(3, 10, [&] { order.push_back(1); });
  engine.ScheduleAt(3, 20, [&] { order.push_back(3); });  // ties: FIFO
  engine.RunUntil(kMinute);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LiveEngineTest, CancelMatchesDesSemantics) {
  LiveEngine engine(1, FastOptions());
  std::atomic<int> fired{0};
  uint64_t victim = engine.ScheduleAt(1, 10, [&] { fired.fetch_add(1); });
  uint64_t keeper = engine.ScheduleAt(1, 10, [&] { fired.fetch_add(1); });
  EXPECT_TRUE(engine.Cancel(victim));
  EXPECT_FALSE(engine.Cancel(victim));  // double cancel
  EXPECT_FALSE(engine.Cancel(kInvalidEventId));
  engine.RunUntil(kMinute);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_FALSE(engine.Cancel(keeper));  // already executed
}

TEST(LiveEngineTest, IdleFastForwardCrossesLongSimulatedGaps) {
  // A 10-simulated-minute gap with a modest time_scale would take real
  // minutes without fast-forward; with it the run finishes immediately.
  LiveEngine::Options o;
  o.num_workers = 2;
  o.time_scale = 1;  // real time: only fast-forward can cross the gap
  LiveEngine engine(1, o);
  std::atomic<int> fired{0};
  engine.ScheduleAt(1, 10 * kMinute, [&] { fired.fetch_add(1); });
  engine.RunUntil(10 * kMinute);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(engine.now(), 10 * kMinute);
}

TEST(LiveEngineTest, CallbacksCanChainAcrossWorkers) {
  LiveEngine engine(1, FastOptions(4));
  std::atomic<int> hops{0};
  // Each hop schedules the next on a different owner (different shard) at
  // a fixed absolute time; a due time already in the past fires
  // immediately, so the chain cannot lose a race against the scaled clock.
  std::function<void(NodeId)> hop = [&](NodeId owner) {
    const int done = hops.fetch_add(1) + 1;
    if (done >= 64) return;
    engine.ScheduleAt(owner + 1, static_cast<SimTime>(done + 1),
                      [&hop, owner] { hop(owner + 1); });
  };
  engine.ScheduleAt(1, 1, [&] { hop(1); });
  engine.RunUntil(kMinute);
  EXPECT_EQ(hops.load(), 64);
}

TEST(LiveEngineTest, NowFreezesBetweenRuns) {
  LiveEngine engine(1, FastOptions());
  engine.ScheduleAt(1, 5, [] {});
  engine.RunUntil(5);
  const SimTime frozen = engine.now();
  EXPECT_GE(frozen, 5u);
  EXPECT_LE(frozen, 5u);  // queue drained at the last executed event
  EXPECT_EQ(engine.now(), frozen) << "clock must not advance between runs";
}

// The live backend's wiring, as the framework builds it: a Network over
// the engine and a Transport handle over the two.
TEST(LiveTransportTest, SchedulesSendsAndReportsLive) {
  LiveEngine engine(1, FastOptions());
  Network network(&engine, NetworkConfig{});
  Transport transport(&engine, &network);
  EXPECT_TRUE(transport.engine()->is_live());
  EXPECT_NE(transport.network(), nullptr);
  EXPECT_EQ(transport.engine()->num_shards(), 2u);
  std::atomic<int> fired{0};
  transport.ScheduleAfter(1, 10, [&] { fired.fetch_add(1); });
  transport.RunUntil(kMinute);
  EXPECT_EQ(fired.load(), 1);
}

}  // namespace
}  // namespace edgelet::net::live
