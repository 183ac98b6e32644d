#ifndef EDGELET_NET_LIVE_LIVE_ENGINE_H_
#define EDGELET_NET_LIVE_LIVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/parsim/engine.h"

namespace edgelet::net::live {

// A wall-clock SimEngine: the timer/delivery substrate of the live
// backend. Instead of replaying a deterministic event order, it runs W
// worker threads, each owning the per-node MPSC timer mailbox of the
// nodes hashed onto it (node % W — the same ShardOf contract as parsim),
// and fires a timer once the *scaled wall clock* passes its simulated due
// time. net::Network runs unchanged on top: its shard-ownership
// discipline (every node-state mutation inside that node's own callbacks,
// per-shard stats/pools, per-node RNG streams) is exactly a thread-safety
// argument here, with shard == worker thread.
//
// Phase separation: workers only execute callbacks inside RunUntil(t).
// Between runs every worker is parked, so the orchestration thread can
// construct actors, read reports and mutate devices without locks — the
// same phases the DES backends have, enforced with one mutex whose
// acquire/release chains also give TSan the happens-before edges.
//
// Time: now() = virtual_anchor + (wall - wall_anchor) * time_scale,
// clamped to the run horizon, frozen between runs. When every worker is
// idle and the earliest pending timer is still in the simulated future,
// RunUntil fast-forwards the anchor instead of sleeping through the gap,
// so a 10-simulated-minute deadline drains in milliseconds of wall time
// while due timers still race real threads.
class LiveEngine : public SimEngine {
 public:
  struct Options {
    // Worker threads (and timer-mailbox shards). Node n runs on n % W.
    size_t num_workers = 4;
    // Simulated microseconds that pass per wall-clock microsecond while
    // the engine is waiting for a due timer. 1 = real time; the default
    // runs one simulated second per wall millisecond.
    uint64_t time_scale = 1000;
  };

  LiveEngine(uint64_t seed, Options options);
  ~LiveEngine() override;

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  SimTime now() const override;
  bool is_live() const override { return true; }
  uint64_t ScheduleAt(NodeId owner, SimTime t,
                      std::function<void()> fn) override;
  bool Cancel(uint64_t event_id) override;
  size_t RunUntil(SimTime until) override;
  void ReserveEvents(size_t n) override { (void)n; }
  size_t events_executed() const override {
    return executed_.load(std::memory_order_relaxed);
  }
  size_t pending_events() const override;
  uint64_t seed() const override { return seed_; }
  size_t num_shards() const override { return num_workers_; }
  size_t current_shard() const override;
  size_t ShardOf(NodeId node) const override { return node % num_workers_; }

  const Options& options() const { return options_; }

 protected:
  NodeId CurrentContextNode() const override;

 private:
  using WallClock = std::chrono::steady_clock;

  struct Timer {
    SimTime at = 0;
    NodeId owner = 0;
    std::function<void()> fn;
  };
  // Heap entry; (at, seq) orders same-shard timers, seq for stability.
  struct Entry {
    SimTime at;
    uint64_t seq;
    uint64_t id;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  using Heap = std::priority_queue<Entry, std::vector<Entry>, EntryLater>;

  void WorkerLoop(size_t shard);
  // All *Locked helpers require mu_ held.
  SimTime MappedNowLocked() const;
  WallClock::time_point WallForLocked(SimTime t) const;
  SimTime EarliestPendingLocked();
  void PruneLocked(Heap& heap);

  const uint64_t seed_;
  const Options options_;
  const size_t num_workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Heap> heaps_;                       // one per worker
  std::unordered_map<uint64_t, Timer> timers_;    // live (uncancelled) ids
  uint64_t next_id_ = 1;
  uint64_t next_seq_ = 0;
  bool stopping_ = false;
  bool run_active_ = false;
  SimTime horizon_ = 0;       // only grows
  SimTime frozen_now_ = 0;    // now() between runs
  size_t running_callbacks_ = 0;
  // Wall <-> simulated mapping, re-anchored at each RunUntil entry and on
  // every idle fast-forward.
  SimTime virtual_anchor_ = 0;
  WallClock::time_point wall_anchor_;

  std::atomic<size_t> executed_{0};
  std::vector<std::thread> workers_;
};

}  // namespace edgelet::net::live

#endif  // EDGELET_NET_LIVE_LIVE_ENGINE_H_
