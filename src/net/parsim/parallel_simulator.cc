#include "net/parsim/parallel_simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace edgelet::net::parsim {

namespace {

// Worker-thread context. A worker belongs to exactly one engine for its
// lifetime; the coordinator (and any other thread) leaves these unset, so
// `t_engine == this` is the "inside one of my event callbacks" test.
thread_local ParallelSimulator* t_engine = nullptr;
thread_local size_t t_shard = 0;

constexpr uint64_t kRemoteBit = uint64_t{1} << 63;
constexpr size_t kMaxShards = 128;  // 7 shard bits in every handle

size_t ClampShards(size_t n) { return std::max<size_t>(1, std::min(n, kMaxShards)); }

SimTime SatAdd(SimTime t, SimDuration d) {
  return (d > kSimTimeNever - t) ? kSimTimeNever : t + d;
}

// Local handle: [63]=0 [62:56]=shard [55:32]=slot [31:0]=generation.
uint64_t LocalHandle(size_t shard, ShardQueue::Ticket t) {
  assert(t.slot < (uint32_t{1} << 24));
  return (static_cast<uint64_t>(shard) << 56) |
         (static_cast<uint64_t>(t.slot) << 32) | t.gen;
}

// Remote handle: [63]=1 [62:56]=dest shard [55:48]=source shard
// [47:0]=per-(source,dest) sequence. The handle doubles as the key in the
// destination shard's remote map, so the uniqueness argument is the bit
// layout itself — and bit 63 keeps every remote key apart from the 0 that
// marks a queue entry without one.
uint64_t RemoteHandle(size_t dest, size_t src, uint64_t rseq) {
  return kRemoteBit | (static_cast<uint64_t>(dest) << 56) |
         (static_cast<uint64_t>(src) << 48) |
         (rseq & ((uint64_t{1} << 48) - 1));
}

uint64_t PackTicket(ShardQueue::Ticket t) {
  return (static_cast<uint64_t>(t.slot) << 32) | t.gen;
}

ShardQueue::Ticket UnpackTicket(uint64_t packed) {
  return {static_cast<uint32_t>(packed >> 32), static_cast<uint32_t>(packed)};
}

}  // namespace

ParallelSimulator::ParallelSimulator(uint64_t seed, Options options)
    : seed_(seed),
      lookahead_(options.lookahead == 0 ? 1 : options.lookahead),
      sync_(static_cast<std::ptrdiff_t>(ClampShards(options.num_shards) + 1)) {
  const size_t n = ClampShards(options.num_shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->outbox.resize(n);
    shard->cancel_outbox.resize(n);
    shard->rseq_out.resize(n);
    shards_.push_back(std::move(shard));
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back(&ParallelSimulator::WorkerLoop, this, i);
  }
}

ParallelSimulator::~ParallelSimulator() {
  command_ = Command::kShutdown;
  sync_.arrive_and_wait();
  for (auto& worker : workers_) worker.join();
}

SimTime ParallelSimulator::now() const {
  return t_engine == this ? shards_[t_shard]->now : global_now_;
}

size_t ParallelSimulator::current_shard() const {
  return t_engine == this ? t_shard : 0;
}

NodeId ParallelSimulator::CurrentContextNode() const {
  return t_engine == this ? shards_[t_shard]->current_node : kInvalidNode;
}

uint64_t ParallelSimulator::NextOseq(Shard& shard, NodeId origin) {
  // Shards store counters only for the origins they own, densely. Growth
  // is geometric: dense node registration hits a new high index on every
  // call, and resize(index + 1) would make each one an O(n) copy.
  size_t index = static_cast<size_t>(origin / shards_.size());
  if (index >= shard.oseq.size()) {
    shard.oseq.resize(std::max(index + 1, shard.oseq.size() * 2), 0);
  }
  return shard.oseq[index]++;
}

void ParallelSimulator::MarkInbound(Shard& from, size_t dest) {
  // Empty -> nonempty transition for the (from, dest) outbox pair: flag
  // `from` in dest's source mask so dest's merge visits it this round.
  shards_[dest]->inbound_mask[from.index >> 6].fetch_or(
      uint64_t{1} << (from.index & 63), std::memory_order_relaxed);
}

uint64_t ParallelSimulator::ScheduleAt(NodeId owner, SimTime t,
                                       std::function<void()> fn) {
  const size_t dest = ShardOf(owner);
  if (t_engine != this) {
    // Coordinator context (engine idle between windows): direct insert as
    // origin 0. The origin-0 sequence is shard 0's counter for node 0 so
    // that owner-0 callbacks and coordinator schedules share one stream,
    // exactly like the serial engine's oseq_[0].
    assert(t >= global_now_);
    if (t < global_now_) t = global_now_;
    uint64_t tiebreak = MakeTiebreak(0, NextOseq(*shards_[0], 0));
    return LocalHandle(
        dest, shards_[dest]->queue.Insert(t, tiebreak, owner, std::move(fn)));
  }
  Shard& cur = *shards_[t_shard];
  const NodeId origin = cur.current_node;
  uint64_t tiebreak = MakeTiebreak(origin, NextOseq(cur, origin));
  if (t < cur.now) t = cur.now;
  if (dest == cur.index) {
    // Same-shard (in particular: self) schedules are unrestricted — a
    // zero-latency self-send executes inside the current window.
    return LocalHandle(dest,
                       cur.queue.Insert(t, tiebreak, owner, std::move(fn)));
  }
  // Cross-shard: buffer in the outbox, merged by the destination at the
  // next barrier. A target within lookahead of the scheduling event breaks
  // the cross-node contract and arrives causally late; count it — the
  // setup's lookahead was too large.
  if (t < SatAdd(cur.now, lookahead_)) {
    lookahead_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  // Solo-batch soundness clamp: another shard wakes no later than this
  // transfer's landing time, so its causality can reach back into this
  // shard from t + lookahead on — nothing at or past that may run in the
  // current round. (Outside a solo round the static window limit is
  // already tighter, making this a no-op.)
  SimTime cap = SatAdd(t, lookahead_) - 1;
  if (cap < cur.exec_limit) cur.exec_limit = cap;
  if (cur.outbox[dest].empty() && cur.cancel_outbox[dest].empty()) {
    MarkInbound(cur, dest);
  }
  uint64_t handle = RemoteHandle(dest, cur.index, cur.rseq_out[dest]++);
  cur.outbox[dest].push_back(
      Transfer{t, tiebreak, handle, owner, std::move(fn)});
  return handle;
}

bool ParallelSimulator::ApplyLocalCancel(size_t dest, uint64_t event_id) {
  Shard& shard = *shards_[dest];
  if (event_id & kRemoteBit) {
    uint64_t packed = 0;
    if (!shard.remote_map.Erase(event_id, &packed)) {
      return false;  // ran or cancelled
    }
    return shard.queue.CancelTicket(UnpackTicket(packed));
  }
  ShardQueue::Ticket ticket = UnpackTicket(event_id & ~(uint64_t{0x7F} << 56));
  uint64_t remote_key = 0;
  bool cancelled = shard.queue.CancelTicket(ticket, &remote_key);
  if (cancelled && remote_key != 0) shard.remote_map.Erase(remote_key);
  return cancelled;
}

bool ParallelSimulator::Cancel(uint64_t event_id) {
  if (event_id == kInvalidEventId) return false;
  const size_t dest = (event_id >> 56) & 0x7F;
  if (dest >= shards_.size()) return false;
  if (t_engine != this) return ApplyLocalCancel(dest, event_id);
  Shard& cur = *shards_[t_shard];
  if (dest == cur.index) return ApplyLocalCancel(dest, event_id);
  // Cross-shard: deferred to the barrier. Deterministic iff the target is
  // at least one lookahead away (the cross-node scheduling bound).
  if (cur.outbox[dest].empty() && cur.cancel_outbox[dest].empty()) {
    MarkInbound(cur, dest);
  }
  cur.cancel_outbox[dest].push_back(event_id);
  return true;
}

ParallelSimulator::WindowPlan ParallelSimulator::PlanWindow() const {
  // Lowest-index argmin: ties broken identically by every participant.
  SimTime next = kSimTimeNever;
  SimTime second = kSimTimeNever;
  size_t argmin = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    SimTime head = shards_[i]->head_published.load(std::memory_order_relaxed);
    if (head < next) {
      second = next;
      next = head;
      argmin = i;
    } else if (head < second) {
      second = head;
    }
  }
  WindowPlan plan;
  if (next == kSimTimeNever || next > until_) return plan;  // run = false
  plan.run = true;
  const SimTime horizon = SatAdd(next, lookahead_);
  if (second >= horizon) {
    // No other shard has work inside the base window: the argmin shard
    // runs alone, batched up to the instant the second shard's causality
    // (plus lookahead) could first matter. Its own transfers clamp the
    // limit further at emission time. With one shard `second` is always
    // kSimTimeNever, so the whole horizon is one window.
    plan.solo = true;
    plan.solo_shard = argmin;
    plan.limit = std::min(until_, SatAdd(second, lookahead_) - 1);
  } else {
    plan.limit = std::min(until_, horizon - 1);
  }
  return plan;
}

void ParallelSimulator::ExecuteWindow(Shard& shard, SimTime limit) {
  shard.exec_limit = limit;
  ShardQueue::Ready ready;
  uint64_t remote_key = 0;
  // exec_limit re-read every pop: emitted transfers may pull it down.
  while (shard.queue.PopRunnable(shard.exec_limit, &ready, &remote_key)) {
    if (remote_key != 0) shard.remote_map.Erase(remote_key);
    if (ready.time > shard.now) shard.now = ready.time;
    ++shard.executed;
    shard.current_node = ready.owner;
    ready.fn();
  }
  shard.current_node = kInvalidNode;
}

void ParallelSimulator::MergeInbound(Shard& shard) {
  // Drain exactly the sources that flagged traffic for us, in index order;
  // each outbox preserves its source's (deterministic) emission order, so
  // the merge is deterministic too. Self never flags: same-shard schedules
  // insert directly.
  size_t merged = 0;
  for (size_t word = 0; word < 2; ++word) {
    uint64_t mask =
        shard.inbound_mask[word].exchange(0, std::memory_order_relaxed);
    while (mask != 0) {
      const size_t src =
          word * 64 + static_cast<size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      Shard& from = *shards_[src];
      auto& inbox = from.outbox[shard.index];
      for (Transfer& tr : inbox) {
        ShardQueue::Ticket ticket = shard.queue.Insert(
            tr.time, tr.tiebreak, tr.owner, std::move(tr.fn), tr.remote_key);
        bool inserted;
        shard.remote_map.FindOrInsert(tr.remote_key, &inserted) =
            PackTicket(ticket);
      }
      merged += inbox.size();
      inbox.clear();
      auto& cancels = from.cancel_outbox[shard.index];
      for (uint64_t id : cancels) ApplyLocalCancel(shard.index, id);
      cancels.clear();
    }
  }
  shard.transfers_in += merged;
  shard.inbox_hwm = std::max(shard.inbox_hwm, merged);
  shard.remote_map_hwm =
      std::max(shard.remote_map_hwm, shard.remote_map.size());
}

void ParallelSimulator::WorkerLoop(size_t index) {
  t_engine = this;
  t_shard = index;
  Shard& shard = *shards_[index];
  for (;;) {
    sync_.arrive_and_wait();  // run start: until_/command_ published
    if (command_ == Command::kShutdown) return;
    for (;;) {
      // Identical inputs, identical plan: every worker and the coordinator
      // leave this loop on the same round without any extra rendezvous.
      WindowPlan plan = PlanWindow();
      if (!plan.run) break;
      if (!plan.solo || plan.solo_shard == index) {
        ExecuteWindow(shard, plan.limit);
      }
      sync_.arrive_and_wait();  // execute done: outboxes stable
      MergeInbound(shard);
      shard.head_published.store(shard.queue.HeadTime(),
                                 std::memory_order_relaxed);
      sync_.arrive_and_wait();  // merge done: heads visible to planners
    }
    // Run end: the coordinator must not return — and later mutate heads,
    // until_, or queues — while any worker could still be computing its
    // final (agreeing) plan from the old inputs.
    sync_.arrive_and_wait();
  }
}

size_t ParallelSimulator::RunUntil(SimTime until) {
  assert(t_engine != this && "RunUntil must not be called from a callback");
  size_t before = 0;
  for (auto& shard : shards_) before += shard->executed;
  // Publish every head once up front: coordinator-context schedules since
  // the last run are not yet reflected in the workers' published values.
  for (auto& shard : shards_) {
    shard->head_published.store(shard->queue.HeadTime(),
                                std::memory_order_relaxed);
  }
  until_ = until;
  command_ = Command::kRun;
  sync_.arrive_and_wait();  // run start
  for (;;) {
    WindowPlan plan = PlanWindow();
    if (!plan.run) break;
    ++windows_;
    if (plan.solo) ++solo_windows_;
    sync_.arrive_and_wait();  // execute done
    sync_.arrive_and_wait();  // merge done
  }
  sync_.arrive_and_wait();  // run end: workers parked at run start again
  size_t after = 0;
  for (auto& shard : shards_) {
    after += shard->executed;
    global_now_ = std::max(global_now_, shard->now);
  }
  return after - before;
}

void ParallelSimulator::ReserveEvents(size_t n) {
  assert(t_engine != this);
  const size_t per_shard = n / shards_.size() + 1;
  for (auto& shard : shards_) shard->queue.Reserve(per_shard);
}

size_t ParallelSimulator::events_executed() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->executed;
  return total;
}

size_t ParallelSimulator::pending_events() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->queue.live();
    for (const auto& box : shard->outbox) total += box.size();
  }
  return total;
}

ParallelSimulator::BatchStats ParallelSimulator::batch_stats() const {
  BatchStats stats;
  stats.windows = windows_;
  stats.solo_windows = solo_windows_;
  for (const auto& shard : shards_) {
    stats.transfers += shard->transfers_in;
    stats.inbox_hwm = std::max(stats.inbox_hwm, shard->inbox_hwm);
    stats.remote_map_hwm =
        std::max(stats.remote_map_hwm, shard->remote_map_hwm);
  }
  return stats;
}

}  // namespace edgelet::net::parsim
