#include "net/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "net/transport.h"

namespace edgelet::net {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterAdvancesClock) {
  Simulator sim;
  SimTime seen = 0;
  sim.ScheduleAfter(100, [&] {
    seen = sim.now();
    sim.ScheduleAfter(50, [&] { seen = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 150u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(30, [&] { ++fired; });
  size_t executed = sim.RunUntil(20);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  uint64_t id = sim.ScheduleAt(10, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double-cancel
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  uint64_t id = sim.ScheduleAt(1, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, CancelUnknownIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(12345));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) sim.ScheduleAfter(1, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99u);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] { ++fired; });
  sim.ScheduleAt(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, DeterministicRngAttached) {
  Simulator a(77), b(77);
  EXPECT_EQ(a.rng().NextU64(), b.rng().NextU64());
}

TEST(SimulatorTest, CancelOtherEventFromInsideExecutingEvent) {
  Simulator sim;
  int fired = 0;
  uint64_t victim = sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(5, [&] { EXPECT_TRUE(sim.Cancel(victim)); });
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelOwnIdInsideExecutingEventIsNoOp) {
  Simulator sim;
  uint64_t id = 0;
  bool cancel_result = true;
  id = sim.ScheduleAt(5, [&] { cancel_result = sim.Cancel(id); });
  sim.Run();
  // The event is already executing: it is no longer pending.
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, StaleHandleAfterSlotReuseDoesNotCancelNewEvent) {
  Simulator sim;
  int fired = 0;
  uint64_t a = sim.ScheduleAt(10, [&] { fired += 1; });
  EXPECT_TRUE(sim.Cancel(a));
  // Reuses a's internal storage; the stale handle must not reach it.
  uint64_t b = sim.ScheduleAt(20, [&] { fired += 10; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.Cancel(a));
  sim.Run();
  EXPECT_EQ(fired, 10);
}

TEST(SimulatorTest, PendingCountTracksCancellation) {
  Simulator sim;
  uint64_t a = sim.ScheduleAt(10, [] {});
  sim.ScheduleAt(20, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.Cancel(a));  // double-cancel: count unchanged
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilSkipsCancelledHeadEvents) {
  Simulator sim;
  int fired = 0;
  uint64_t a = sim.ScheduleAt(5, [&] { ++fired; });
  uint64_t b = sim.ScheduleAt(6, [&] { ++fired; });
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(100, [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_TRUE(sim.Cancel(b));
  EXPECT_EQ(sim.RunUntil(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, CancelledEventsDoNotAdvanceClock) {
  Simulator sim;
  uint64_t a = sim.ScheduleAt(5, [] {});
  sim.ScheduleAt(10, [] {});
  sim.Cancel(a);
  sim.Step();
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, RescheduleChurnRecyclesSlots) {
  // Cancel/schedule cycles (timeout patterns) must neither leak pending
  // count nor confuse later handles.
  Simulator sim(9);
  int fired = 0;
  uint64_t pending = sim.ScheduleAt(1000000, [&] { ++fired; });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(sim.Cancel(pending));
    pending = sim.ScheduleAt(1000000 + i, [&] { ++fired; });
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, ReserveEventsDoesNotDisturbState) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(3, [&] { ++fired; });
  sim.ReserveEvents(4096);
  sim.ScheduleAt(1, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim(3);
  SimTime last = 0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    SimTime t = sim.rng().NextBelow(100000);
    sim.ScheduleAt(t, [&, t] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.Run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_executed(), 10000u);
}

// The execution-scope guard of net::Transport: once the token reads false,
// a scoped handle's pending callbacks return without running, while an
// unscoped handle's still run. Both return engine event ids, so the
// engine's Cancel works on either.
TEST(TransportTest, ScopeTokenSilencesOnlyScopedCallbacks) {
  Simulator sim;
  Network network(&sim, NetworkConfig{});
  auto scope = std::make_shared<bool>(true);
  Transport scoped(&sim, &network, scope);
  Transport plain(&sim, &network);
  EXPECT_FALSE(scoped.engine()->is_live());
  EXPECT_EQ(scoped.network(), &network);
  std::vector<int> fired;
  scoped.ScheduleAt(1, 10, [&] { fired.push_back(1); });
  plain.ScheduleAt(1, 10, [&] { fired.push_back(2); });
  sim.RunUntil(10);
  EXPECT_EQ(fired, (std::vector<int>{1, 2})) << "a live scope runs";

  scoped.ScheduleAfter(1, 10, [&] { fired.push_back(3); });
  plain.ScheduleAfter(1, 10, [&] { fired.push_back(4); });
  const uint64_t scoped_victim =
      scoped.ScheduleAt(1, 30, [&] { fired.push_back(5); });
  const uint64_t plain_victim =
      plain.ScheduleAt(1, 30, [&] { fired.push_back(6); });
  EXPECT_TRUE(scoped.engine()->Cancel(scoped_victim));
  EXPECT_TRUE(plain.engine()->Cancel(plain_victim));
  EXPECT_EQ(sim.pending_events(), 2u);
  *scope = false;  // the scope's owner is gone
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(sim.now(), 20u);
  // The silenced event still executes, as a no-op.
  EXPECT_EQ(sim.events_executed(), 4u);
}

}  // namespace
}  // namespace edgelet::net
