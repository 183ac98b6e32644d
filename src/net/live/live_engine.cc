#include "net/live/live_engine.h"

#include <algorithm>

namespace edgelet::net::live {

namespace {

// Thread-local execution context: which engine/shard/node the calling
// thread is currently running a callback for. The orchestration thread
// (never inside a callback) reads shard 0 / node 0, matching the DES
// engines' "0 outside a run" contract.
thread_local const LiveEngine* tl_engine = nullptr;
thread_local size_t tl_shard = 0;
thread_local NodeId tl_node = 0;

constexpr auto kMaxIdleWait = std::chrono::milliseconds(20);

}  // namespace

LiveEngine::LiveEngine(uint64_t seed, Options options)
    : seed_(seed),
      options_([&] {
        Options o = options;
        o.num_workers = std::max<size_t>(1, o.num_workers);
        o.time_scale = std::max<uint64_t>(1, o.time_scale);
        return o;
      }()),
      num_workers_(options_.num_workers),
      heaps_(num_workers_),
      wall_anchor_(WallClock::now()) {
  workers_.reserve(num_workers_);
  for (size_t shard = 0; shard < num_workers_; ++shard) {
    workers_.emplace_back([this, shard] { WorkerLoop(shard); });
  }
}

LiveEngine::~LiveEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

SimTime LiveEngine::MappedNowLocked() const {
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           WallClock::now() - wall_anchor_)
                           .count();
  const SimDuration advance =
      SatMul(static_cast<SimDuration>(elapsed), options_.time_scale);
  return SatAdd(virtual_anchor_, advance);
}

LiveEngine::WallClock::time_point LiveEngine::WallForLocked(SimTime t) const {
  if (t <= virtual_anchor_) return wall_anchor_;
  const SimDuration gap_us = (t - virtual_anchor_) / options_.time_scale;
  // Cap far-future due times (kSimTimeNever, overflowing deadlines) well
  // inside chrono's representable range; waiters re-check periodically
  // anyway.
  const auto capped = std::chrono::microseconds(
      std::min<SimDuration>(gap_us, SimDuration{1} << 40));
  return wall_anchor_ + capped;
}

SimTime LiveEngine::now() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!run_active_) return frozen_now_;
  return std::min(horizon_, std::max(frozen_now_, MappedNowLocked()));
}

size_t LiveEngine::current_shard() const {
  return tl_engine == this ? tl_shard : 0;
}

NodeId LiveEngine::CurrentContextNode() const {
  return tl_engine == this ? tl_node : 0;
}

uint64_t LiveEngine::ScheduleAt(NodeId owner, SimTime t,
                                std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  timers_.emplace(id, Timer{t, owner, std::move(fn)});
  heaps_[ShardOf(owner)].push(Entry{t, next_seq_++, id});
  cv_.notify_all();
  return id;
}

bool LiveEngine::Cancel(uint64_t event_id) {
  if (event_id == kInvalidEventId) return false;
  std::lock_guard<std::mutex> lock(mu_);
  // Heap entries of erased ids are skipped lazily on pop.
  return timers_.erase(event_id) > 0;
}

size_t LiveEngine::pending_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timers_.size();
}

void LiveEngine::PruneLocked(Heap& heap) {
  while (!heap.empty() && timers_.find(heap.top().id) == timers_.end()) {
    heap.pop();
  }
}

SimTime LiveEngine::EarliestPendingLocked() {
  SimTime earliest = kSimTimeNever;
  for (Heap& heap : heaps_) {
    PruneLocked(heap);
    if (!heap.empty()) earliest = std::min(earliest, heap.top().at);
  }
  return earliest;
}

void LiveEngine::WorkerLoop(size_t shard) {
  tl_engine = this;
  tl_shard = shard;
  std::unique_lock<std::mutex> lock(mu_);
  Heap& heap = heaps_[shard];
  while (!stopping_) {
    PruneLocked(heap);
    if (!run_active_ || heap.empty() || heap.top().at > horizon_) {
      cv_.wait(lock);
      continue;
    }
    const Entry top = heap.top();
    if (top.at > MappedNowLocked()) {
      // Not due on the wall clock yet: sleep toward the due point, capped
      // so fast-forwards and newly scheduled earlier timers are noticed.
      const auto due = WallForLocked(top.at);
      cv_.wait_until(lock, std::min(due, WallClock::now() + kMaxIdleWait));
      continue;
    }
    heap.pop();
    auto it = timers_.find(top.id);
    if (it == timers_.end()) continue;  // cancelled after the due check
    Timer timer = std::move(it->second);
    timers_.erase(it);
    ++running_callbacks_;
    lock.unlock();
    tl_node = timer.owner;
    timer.fn();
    tl_node = 0;
    executed_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    --running_callbacks_;
    // Wake the orchestrator (run-completion / fast-forward re-check) and
    // any sibling the callback scheduled work for.
    cv_.notify_all();
  }
}

size_t LiveEngine::RunUntil(SimTime until) {
  const size_t before = executed_.load(std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(mu_);
  horizon_ = std::max(horizon_, until);
  // Wall time kept passing while the engine was frozen; re-anchor so the
  // run resumes from the frozen simulated time instead of leaping ahead.
  virtual_anchor_ = frozen_now_;
  wall_anchor_ = WallClock::now();
  run_active_ = true;
  cv_.notify_all();
  while (true) {
    const SimTime earliest = EarliestPendingLocked();
    const bool drained =
        running_callbacks_ == 0 &&
        (earliest == kSimTimeNever || earliest > horizon_);
    if (drained) break;
    if (running_callbacks_ == 0 && earliest <= horizon_) {
      const SimTime mapped = MappedNowLocked();
      if (mapped < earliest) {
        // Every worker idle, nothing due: jump the clock to the next
        // timer instead of sleeping out the simulated gap.
        virtual_anchor_ = earliest;
        wall_anchor_ = WallClock::now();
        cv_.notify_all();
      }
    }
    cv_.wait_for(lock, kMaxIdleWait);
  }
  run_active_ = false;
  // Freeze time for the construction/report phase. The run semantically
  // reached min(horizon, wall-now): like the DES engines, now() may sit
  // below `until` when the queue drained early.
  frozen_now_ = std::min(horizon_, std::max(frozen_now_, MappedNowLocked()));
  return executed_.load(std::memory_order_relaxed) - before;
}

}  // namespace edgelet::net::live
