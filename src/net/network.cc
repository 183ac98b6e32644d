#include "net/network.h"

#include <cassert>

namespace edgelet::net {

SimDuration LatencyModel::Sample(NodeRng& rng) const {
  SimDuration extra = 0;
  if (mean_extra > 0) {
    double rate = 1.0 / static_cast<double>(mean_extra);
    extra = static_cast<SimDuration>(rng.NextExponential(rate));
  }
  return min_latency + extra;
}

Network::Network(SimEngine* engine, NetworkConfig config)
    : engine_(engine), config_(config), shard_(engine->num_shards()) {}

NodeId Network::Register(Node* node, ChurnModel churn) {
  const NodeId id = nodes_.size() + 1;
  NodeState state;
  state.node = node;
  state.churn = churn;
  state.online = churn.starts_online;
  // The node's stream is a pure function of (engine seed, node id), so a
  // node draws the same sequence no matter which shard runs it — or
  // whether any sharding exists at all.
  state.rng = NodeRng(engine_->seed(), id);
  nodes_.push_back(std::move(state));
  if (churn.mean_online > 0 && churn.mean_offline > 0) {
    ScheduleChurnTransition(id);
  }
  return id;
}

void Network::ScheduleChurnTransition(NodeId id) {
  NodeState* state = Find(id);
  if (state == nullptr || state->dead) return;
  const ChurnModel& churn = state->churn;
  SimDuration mean = state->online ? churn.mean_online : churn.mean_offline;
  if (mean == 0) return;
  double rate = 1.0 / static_cast<double>(mean);
  SimDuration dwell =
      static_cast<SimDuration>(state->rng.NextExponential(rate));
  // Churn is a self-transition: the event belongs to the churning node, so
  // it is exempt from the lookahead bound and runs on the node's shard.
  engine_->ScheduleAfter(id, dwell, [this, id]() {
    const NodeState* now_state = Find(id);
    if (now_state == nullptr || now_state->dead) return;
    SetOnline(id, !now_state->online);
    ScheduleChurnTransition(id);
  });
}

void Network::Send(Message msg) {
  NetworkStats& stats = stats_here();
  ++stats.messages_sent;
  stats.bytes_sent += msg.WireSize();
  if (msg.query_tag != 0) {
    QueryNetStats& qs =
        shard_[engine_->current_shard()].query_stats[msg.query_tag];
    ++qs.messages_sent;
    qs.bytes_sent += msg.WireSize();
  }

  NodeState* from = Find(msg.from);
  if (from == nullptr || from->dead || !from->online) {
    ++stats.dropped_sender_offline;
    Recycle(std::move(msg));
    return;
  }
  NodeRng& rng = from->rng;

  // Chaos layer first: the injector sees the message as the sender emits
  // it, in the sender's event context (per-sender streams keep the verdict
  // independent of shard count). Its extra copies then pass through the
  // same loss/latency model as the original, each with its own draws.
  SimDuration extra_latency = 0;
  if (injector_ != nullptr) {
    FaultVerdict verdict = injector_->OnSend(msg, engine_->now());
    if (verdict.corrupted) ++stats.chaos_corrupted;
    if (verdict.extra_latency > 0) ++stats.chaos_delayed;
    if (verdict.drop) {
      ++stats.chaos_dropped;
      Recycle(std::move(msg));
      return;
    }
    extra_latency = verdict.extra_latency;
    for (uint32_t i = 0; i < verdict.duplicates; ++i) {
      ++stats.chaos_duplicates;
      Message copy;
      copy.from = msg.from;
      copy.to = msg.to;
      copy.type = msg.type;
      copy.seq = msg.seq;  // an exact wire replay, like a mailbox echo
      copy.query_tag = msg.query_tag;
      copy.payload = AcquirePayloadBuffer();
      copy.payload.assign(msg.payload.begin(), msg.payload.end());
      SampleAndDispatch(std::move(copy), rng, extra_latency, stats);
    }
  }
  SampleAndDispatch(std::move(msg), rng, extra_latency, stats);
}

void Network::SampleAndDispatch(Message msg, NodeRng& rng,
                                SimDuration extra_latency,
                                NetworkStats& stats) {
  // Loss and latency are the sender's draws: this runs in the sender's
  // event context, so only the sender's shard touches this stream. The
  // receiver's liveness is checked at delivery time, on its own shard.
  if (config_.drop_probability > 0 &&
      rng.NextBernoulli(config_.drop_probability)) {
    ++stats.dropped_random;
    Recycle(std::move(msg));
    return;
  }
  SimDuration latency = config_.latency.Sample(rng) + extra_latency;
  if (config_.bytes_per_second > 0) {
    // Serialization delay: payload bytes over the link throughput.
    double seconds = static_cast<double>(msg.WireSize()) /
                     static_cast<double>(config_.bytes_per_second);
    latency += FromSeconds(seconds);
  }
  // Delivery executes on the receiver's timeline; latency >= min_latency
  // keeps it outside the current lookahead window.
  NodeId to = msg.to;
  engine_->ScheduleAfter(to, latency,
                         [this, msg = std::move(msg)]() mutable {
                           Deliver(std::move(msg));
                         });
}

void Network::Deliver(Message msg) {
  NodeState* found = Find(msg.to);
  if (found == nullptr || found->dead) {
    ++stats_here().dropped_dead;
    Recycle(std::move(msg));
    return;
  }
  NodeState& state = *found;
  if (!state.online) {
    if (config_.store_and_forward) {
      state.mailbox.emplace_back(engine_->now(), std::move(msg));
    } else {
      ++stats_here().dropped_receiver_offline;
      Recycle(std::move(msg));
    }
    return;
  }
  NetworkStats& stats = stats_here();
  ++stats.messages_delivered;
  stats.bytes_delivered += msg.WireSize();
  if (msg.query_tag != 0) {
    QueryNetStats& qs =
        shard_[engine_->current_shard()].query_stats[msg.query_tag];
    ++qs.messages_delivered;
    qs.bytes_delivered += msg.WireSize();
  }
  state.node->OnMessage(msg);
  // OnMessage receives the message by const reference; once it returns the
  // message is consumed and its payload buffer can cycle back to the pool.
  Recycle(std::move(msg));
}

void Network::Kill(NodeId id) {
  NodeState* state = Find(id);
  if (state == nullptr) return;
  state->dead = true;
  state->online = false;
  for (auto& [enqueued, msg] : state->mailbox) Recycle(std::move(msg));
  state->mailbox.clear();
}

void Network::Restart(NodeId id) {
  NodeState* state = Find(id);
  if (state == nullptr || !state->dead) return;
  state->dead = false;
  // A rebooted device powers up connected; the churn model takes over from
  // there. Coming online before OnRestart lets recovery hooks send their
  // RecoveryHello from inside the callback.
  state->online = true;
  state->node->OnRestart();
  if (state->churn.mean_online > 0 && state->churn.mean_offline > 0) {
    ScheduleChurnTransition(id);
  }
}

bool Network::IsDead(NodeId id) const {
  const NodeState* state = Find(id);
  return state == nullptr || state->dead;
}

void Network::SetOnline(NodeId id, bool online) {
  NodeState* state = Find(id);
  if (state == nullptr || state->dead) return;
  if (state->online == online) return;
  state->online = online;
  if (online) {
    state->node->OnOnline();
    FlushMailbox(id);
  } else {
    state->node->OnOffline();
  }
}

void Network::FlushMailbox(NodeId id) {
  NodeState* found = Find(id);
  if (found == nullptr) return;
  NodeState& state = *found;
  std::vector<std::pair<SimTime, Message>> pending;
  pending.swap(state.mailbox);
  for (auto& [enqueued, msg] : pending) {
    if (config_.mailbox_ttl > 0 &&
        engine_->now() - enqueued > config_.mailbox_ttl) {
      ++stats_here().expired_in_mailbox;
      Recycle(std::move(msg));
      continue;
    }
    // Re-check liveness: a delivery callback may have killed the node or
    // pushed it offline again.
    if (state.dead) {
      ++stats_here().dropped_dead;
      Recycle(std::move(msg));
      continue;
    }
    if (!state.online) {
      state.mailbox.emplace_back(enqueued, std::move(msg));
      continue;
    }
    NetworkStats& stats = stats_here();
    ++stats.messages_delivered;
    stats.bytes_delivered += msg.WireSize();
    if (msg.query_tag != 0) {
      QueryNetStats& qs =
          shard_[engine_->current_shard()].query_stats[msg.query_tag];
      ++qs.messages_delivered;
      qs.bytes_delivered += msg.WireSize();
    }
    state.node->OnMessage(msg);
    Recycle(std::move(msg));
  }
}

NetworkStats Network::stats() const {
  NetworkStats total;
  for (const ShardState& s : shard_) {
    total.messages_sent += s.stats.messages_sent;
    total.messages_delivered += s.stats.messages_delivered;
    total.dropped_random += s.stats.dropped_random;
    total.dropped_sender_offline += s.stats.dropped_sender_offline;
    total.dropped_receiver_offline += s.stats.dropped_receiver_offline;
    total.dropped_dead += s.stats.dropped_dead;
    total.expired_in_mailbox += s.stats.expired_in_mailbox;
    total.bytes_sent += s.stats.bytes_sent;
    total.bytes_delivered += s.stats.bytes_delivered;
    total.payload_buffers_reused += s.stats.payload_buffers_reused;
    total.chaos_dropped += s.stats.chaos_dropped;
    total.chaos_duplicates += s.stats.chaos_duplicates;
    total.chaos_corrupted += s.stats.chaos_corrupted;
    total.chaos_delayed += s.stats.chaos_delayed;
  }
  return total;
}

QueryNetStats Network::query_stats(uint64_t query_tag) const {
  QueryNetStats total;
  for (const ShardState& s : shard_) {
    auto it = s.query_stats.find(query_tag);
    if (it == s.query_stats.end()) continue;
    total.messages_sent += it->second.messages_sent;
    total.bytes_sent += it->second.bytes_sent;
    total.messages_delivered += it->second.messages_delivered;
    total.bytes_delivered += it->second.bytes_delivered;
  }
  return total;
}

void Network::ResetNodeStreams() {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].rng = NodeRng(engine_->seed(), i + 1);
  }
}

Bytes Network::AcquirePayloadBuffer() {
  ShardState& here = shard_[engine_->current_shard()];
  if (here.payload_pool.empty()) return Bytes();
  Bytes buf = std::move(here.payload_pool.back());
  here.payload_pool.pop_back();
  buf.clear();  // keeps capacity
  ++here.stats.payload_buffers_reused;
  return buf;
}

void Network::RecyclePayloadBuffer(Bytes&& buf) {
  if (buf.capacity() == 0 || buf.capacity() > kMaxPooledPayloadBytes) return;
  ShardState& here = shard_[engine_->current_shard()];
  if (here.payload_pool.size() >= kMaxPooledBuffers) return;
  here.payload_pool.push_back(std::move(buf));
}

bool Network::IsOnline(NodeId id) const {
  const NodeState* state = Find(id);
  return state != nullptr && !state->dead && state->online;
}

}  // namespace edgelet::net
