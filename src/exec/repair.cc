#include "exec/repair.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/roles.h"

namespace edgelet::exec {

uint64_t RepairOpId(RecruitRole role, uint32_t partition, uint32_t vgroup,
                    uint32_t generation) {
  // generation | role | partition | vgroup, packed so ids sort by
  // generation first — detector scans report originals before recruits.
  return (static_cast<uint64_t>(generation) << 40) |
         (static_cast<uint64_t>(static_cast<uint8_t>(role) + 1) << 32) |
         (static_cast<uint64_t>(partition & 0xFFFF) << 16) |
         static_cast<uint64_t>(vgroup & 0xFFFF);
}

bool RepairBudgetFits(SimTime now, SimTime collection_end, SimTime deadline,
                      SimDuration compute_margin, SimDuration emission_margin,
                      SimDuration combiner_margin) {
  // A late detection collects promptly via re-solicitation: remainder 0.
  const SimDuration remainder = collection_end > now ? collection_end - now : 0;
  const SimTime ready_by =
      SatAdd(SatAdd(SatAdd(now, remainder), compute_margin), emission_margin);
  return SatAdd(ready_by, combiner_margin) <= deadline;
}

// --- RepairController --------------------------------------------------------

RepairController::RepairController(net::Transport* net, device::Device* dev,
                                   Config config)
    : net_(net),
      dev_(dev),
      config_(std::move(config)),
      birth_epoch_(dev->boot_epoch()),
      detector_(config_.detector),
      done_([]() { return false; }) {
  chains_.resize(config_.total_partitions);
  for (uint32_t p = 0; p < config_.total_partitions; ++p) {
    chains_[p].resize(config_.num_vgroups);
    for (uint32_t vg = 0; vg < config_.num_vgroups; ++vg) {
      Chain& c = chains_[p][vg];
      c.builder_op = RepairOpId(RecruitRole::kSnapshotBuilder, p, vg, 0);
      c.computer_op = RepairOpId(RecruitRole::kComputer, p, vg, 0);
    }
  }
}

void RepairController::Start() {
  if (!config_.enabled || config_.total_partitions == 0) return;
  const SimTime now = net_->now();
  for (auto& partition : chains_) {
    for (auto& c : partition) {
      detector_.Register(c.builder_op, now);
      detector_.Register(c.computer_op, now);
    }
  }
  if (now + resilience::kLeasePeriod < config_.deadline) {
    net_->ScheduleAfter(dev_->id(), resilience::kLeasePeriod,
                        [this]() { Tick(); });
  }
}

void RepairController::OnHeartbeat(const OperatorHeartbeatMsg& msg) {
  if (msg.query_id != config_.query_id) return;
  // Incarnation-aware: a beat from a rebooted device replaces the lease
  // instead of refreshing it; a stale pre-reboot beat is dropped (ABA).
  detector_.Heartbeat(msg.op_id, net_->now(), msg.incarnation);
}

void RepairController::NotePartialDelivered(uint32_t partition,
                                            uint32_t vgroup, uint32_t epoch) {
  if (partition >= chains_.size() || vgroup >= config_.num_vgroups) return;
  Chain& c = chains_[partition][vgroup];
  c.delivered = true;
  if (epoch >= kRepairEpochBase && epoch == c.epoch && !c.repair_counted) {
    c.repair_counted = true;
    ++repairs_succeeded_;
    if (config_.trace != nullptr) {
      config_.trace->Record(net_->now(), TraceEventKind::kChainRepaired,
                            dev_->id(), static_cast<int>(partition),
                            static_cast<int>(vgroup),
                            "repair epoch " + std::to_string(epoch));
    }
  }
  // A delivered chain needs no liveness anymore.
  detector_.Deregister(c.builder_op);
  detector_.Deregister(c.computer_op);
}

void RepairController::Tick() {
  if (abort_requested_ || done_()) return;
  // A dead controller must not keep deciding (its scheduled events still
  // fire); the surviving combiner instance has no controller — repair
  // degrades to plain overcollection, as before this subsystem existed.
  if (dev_->network()->IsDead(dev_->id())) return;
  // Likewise a controller from a previous boot of this device: the resumed
  // combiner's fresh controller owns the chains now.
  if (dev_->boot_epoch() != birth_epoch_) return;
  const SimTime now = net_->now();

  for (uint64_t op : detector_.Scan(now)) {
    if (config_.trace != nullptr) {
      config_.trace->Record(now, TraceEventKind::kFailureSuspected,
                            dev_->id(),
                            static_cast<int>((op >> 16) & 0xFFFF),
                            static_cast<int>(op & 0xFFFF),
                            "op " + std::to_string(op));
    }
  }

  // A partition can still complete iff every vertical chain either already
  // delivered its partial or is manned by unsuspected operators.
  int viable = 0;
  std::vector<std::pair<int, uint32_t>> broken;  // (#broken chains, p)
  for (uint32_t p = 0; p < config_.total_partitions; ++p) {
    int broken_chains = 0;
    for (const Chain& c : chains_[p]) {
      if (ChainBroken(c, now)) ++broken_chains;
    }
    if (broken_chains == 0) {
      ++viable;
    } else {
      broken.emplace_back(broken_chains, p);
    }
  }

  if (viable < config_.n_needed) {
    // Repair EVERY broken partition the spare/deadline budget allows, not
    // just enough to get back to n: the detector observes liveness, not
    // progress, so a repaired chain may still never fill its quota (too few
    // qualifying contributors hash into it). Rebuilding all broken chains
    // maximizes the chance that n fillable partitions are among the live
    // ones. Cheapest partitions first — fewer broken chains = fewer spares
    // — with ties on partition index (deterministic).
    std::sort(broken.begin(), broken.end());
    int recovered = 0;
    for (const auto& [broken_chains, p] : broken) {
      if (!RepairFeasible(now, broken_chains)) continue;
      RepairPartition(p, now);
      ++recovered;
    }
    if (viable + recovered < config_.n_needed) {
      FailSafe(now, config_.n_needed - viable - recovered);
      return;
    }
  }

  if (now + resilience::kLeasePeriod < config_.deadline) {
    net_->ScheduleAfter(dev_->id(), resilience::kLeasePeriod,
                        [this]() { Tick(); });
  }
}

bool RepairController::ChainBroken(const Chain& chain, SimTime now) const {
  if (chain.delivered) return false;
  // Suspected is not lost: a chain only counts as broken once its suspicion
  // has aged past the confirm grace (detector.confirm_grace — sized to the
  // expected crash-reboot turnaround). With a zero grace this degenerates
  // to plain suspicion, the pre-recovery behavior.
  return detector_.IsConfirmedLost(chain.builder_op, now) ||
         detector_.IsConfirmedLost(chain.computer_op, now);
}

bool RepairController::RepairFeasible(SimTime now, int broken_chains) const {
  // Full-chain re-provisioning costs one builder + one computer per broken
  // chain.
  const size_t spares_needed = 2 * static_cast<size_t>(broken_chains);
  if (spare_next_ + spares_needed > config_.spare_pool.size()) return false;
  return RepairBudgetFits(now, config_.collection_end, config_.deadline,
                          config_.compute_margin, config_.emission_margin,
                          config_.combiner_margin);
}

void RepairController::RepairPartition(uint32_t partition, SimTime now) {
  for (uint32_t vg = 0; vg < config_.num_vgroups; ++vg) {
    Chain& c = chains_[partition][vg];
    if (!ChainBroken(c, now)) continue;  // healthy chains keep operators
    detector_.Deregister(c.builder_op);
    detector_.Deregister(c.computer_op);
    const net::NodeId builder_node = config_.spare_pool[spare_next_++];
    const net::NodeId computer_node = config_.spare_pool[spare_next_++];
    const uint32_t epoch = next_epoch_++;
    c.epoch = epoch;
    c.builder_node = builder_node;
    c.computer_node = computer_node;
    c.builder_acked = false;
    c.computer_acked = false;
    c.resolicited = false;
    c.repair_counted = false;
    c.builder_op = RepairOpId(RecruitRole::kSnapshotBuilder, partition, vg,
                              epoch);
    c.computer_op = RepairOpId(RecruitRole::kComputer, partition, vg, epoch);
    // Recruits enter the detector immediately: their lease doubles as the
    // recruit timeout — a spare that never acks (or dies right after) is
    // suspected like any operator, and the next scan re-repairs the chain
    // on fresh spares.
    detector_.Register(c.builder_op, now);
    detector_.Register(c.computer_op, now);
    ++repairs_attempted_;
    SendRecruit(RecruitRole::kComputer, computer_node, partition, vg, epoch,
                /*peer=*/0);
    SendRecruit(RecruitRole::kSnapshotBuilder, builder_node, partition, vg,
                epoch, /*peer=*/computer_node);
  }
}

void RepairController::SendRecruit(RecruitRole role, net::NodeId to,
                                   uint32_t partition, uint32_t vgroup,
                                   uint32_t epoch, net::NodeId peer) {
  RecruitMsg msg;
  msg.query_id = config_.query_id;
  msg.role = role;
  msg.partition = partition;
  msg.vgroup = vgroup;
  msg.epoch = epoch;
  msg.peer = peer;
  msg.controller = dev_->id();
  const Bytes payload = msg.Encode();
  (void)dev_->SendSealed(to, kRecruit, payload, config_.query_id);
  if (config_.trace != nullptr) {
    config_.trace->Record(net_->now(), TraceEventKind::kRecruitSent,
                          dev_->id(), static_cast<int>(partition),
                          static_cast<int>(vgroup),
                          (role == RecruitRole::kSnapshotBuilder
                               ? std::string("builder -> ")
                               : std::string("computer -> ")) +
                              std::to_string(to));
  }
  ScheduleBackoffResends(
      net_, dev_->id(), kRecruitResends, kResendInterval,
      [this, role, to, partition, vgroup, epoch, payload]() {
        if (partition >= chains_.size() || vgroup >= config_.num_vgroups) {
          return;
        }
        const Chain& c = chains_[partition][vgroup];
        if (c.epoch != epoch) return;  // chain moved to a newer recruit
        const bool acked = role == RecruitRole::kSnapshotBuilder
                               ? c.builder_acked
                               : c.computer_acked;
        if (!acked && !dev_->network()->IsDead(dev_->id()) &&
            dev_->boot_epoch() == birth_epoch_) {
          (void)dev_->SendSealed(to, kRecruit, payload, config_.query_id);
        }
      });
}

void RepairController::OnRecruitAck(const RecruitAckMsg& msg) {
  if (msg.query_id != config_.query_id) return;
  if (msg.partition >= chains_.size() || msg.vgroup >= config_.num_vgroups) {
    return;
  }
  Chain& c = chains_[msg.partition][msg.vgroup];
  if (msg.epoch != c.epoch) return;  // ack for a superseded recruit
  bool* acked = msg.role == RecruitRole::kSnapshotBuilder ? &c.builder_acked
                                                          : &c.computer_acked;
  if (*acked) return;  // resend duplicate
  *acked = true;
  if (config_.trace != nullptr) {
    config_.trace->Record(net_->now(), TraceEventKind::kRecruitAcked,
                          dev_->id(), static_cast<int>(msg.partition),
                          static_cast<int>(msg.vgroup),
                          msg.role == RecruitRole::kSnapshotBuilder
                              ? "builder"
                              : "computer");
  }
  // Once the recruited builder is standing, re-solicit its partition's
  // contributions (the originals went to a dead device's inbox).
  if (msg.role == RecruitRole::kSnapshotBuilder && !c.resolicited) {
    c.resolicited = true;
    Resolicit(msg.partition, msg.vgroup, c.builder_node);
  }
}

bool RepairController::OnRecoveryHello(const RecoveryHelloMsg& msg,
                                       net::NodeId from) {
  if (msg.query_id != config_.query_id) return false;
  if (msg.partition >= chains_.size() || msg.vgroup >= config_.num_vgroups) {
    return false;
  }
  const bool is_builder = msg.role == RecruitRole::kSnapshotBuilder;
  // Only the originally planned device may reclaim its generation-0 role
  // (the hello arrived sealed under the re-provisioned group key — that is
  // the re-attestation — but wire fields are still attacker-visible
  // inputs: pin the claimed identity to the plan).
  const auto& originals =
      is_builder ? config_.original_builders : config_.original_computers;
  if (msg.partition >= originals.size() ||
      msg.vgroup >= originals[msg.partition].size() ||
      originals[msg.partition][msg.vgroup] != from) {
    return false;
  }
  Chain& c = chains_[msg.partition][msg.vgroup];
  if (c.delivered) return false;  // partial already in: nothing to resume
  const SimTime now = net_->now();
  if (c.epoch != 0) {
    // A repair is in flight for this chain. Recruits that fully acked own
    // it — the incumbent stays retired. Otherwise the incumbent returned
    // first: cancel the repair and let it resume.
    if (c.builder_acked && c.computer_acked) return false;
    CancelRepair(msg.partition, msg.vgroup, now);
  }
  const uint64_t op = is_builder ? c.builder_op : c.computer_op;
  // Re-admit under the new incarnation: fresh lease, suspicion cleared,
  // stale pre-crash beats fenced off by the incarnation number.
  detector_.Register(op, now, msg.incarnation);
  ++recoveries_accepted_;
  if (config_.trace != nullptr) {
    config_.trace->Record(now, TraceEventKind::kRecoveryResumed, dev_->id(),
                          static_cast<int>(msg.partition),
                          static_cast<int>(msg.vgroup),
                          (is_builder ? std::string("builder ")
                                      : std::string("computer ")) +
                              std::to_string(from) + " incarnation " +
                              std::to_string(msg.incarnation));
  }
  return true;
}

void RepairController::CancelRepair(uint32_t partition, uint32_t vgroup,
                                    SimTime now) {
  Chain& c = chains_[partition][vgroup];
  // Retire the recruit ops; any spare that acks later is ignored by the
  // epoch checks (c.epoch is back to 0, recruit epochs are >= the base).
  detector_.Deregister(c.builder_op);
  detector_.Deregister(c.computer_op);
  c.epoch = 0;
  c.builder_op = RepairOpId(RecruitRole::kSnapshotBuilder, partition, vgroup,
                            0);
  c.computer_op = RepairOpId(RecruitRole::kComputer, partition, vgroup, 0);
  c.builder_node = 0;
  c.computer_node = 0;
  c.builder_acked = true;
  c.computer_acked = true;
  c.resolicited = false;
  c.repair_counted = false;
  // Both generation-0 operators come back under watch. The one that sent
  // the hello is immediately re-registered with its new incarnation by the
  // caller; its peer gets a fresh lease here — if that peer is genuinely
  // dead the detector re-suspects it and a later tick re-repairs.
  detector_.Register(c.builder_op, now, 0);
  detector_.Register(c.computer_op, now, 0);
  ++repairs_cancelled_by_return_;
  if (config_.trace != nullptr) {
    config_.trace->Record(now, TraceEventKind::kRepairCancelled, dev_->id(),
                          static_cast<int>(partition),
                          static_cast<int>(vgroup),
                          "incumbent returned before recruits acked");
  }
}

void RepairController::Resolicit(uint32_t partition, uint32_t vgroup,
                                 net::NodeId builder) {
  ResolicitMsg msg;
  msg.query_id = config_.query_id;
  msg.partition = partition;
  msg.vgroup = vgroup;
  msg.builder = builder;
  const Bytes payload = msg.Encode();
  // Fan out to every contributor; each one checks locally whether its key
  // hashes into the rebuilt partition and re-sends its projection there.
  for (net::NodeId contributor : config_.contributors) {
    (void)dev_->SendSealed(contributor, kResolicit, payload,
                           config_.query_id);
  }
}

void RepairController::FailSafe(SimTime now, int missing) {
  abort_requested_ = true;
  abort_time_ = now;
  if (config_.trace != nullptr) {
    config_.trace->Record(now, TraceEventKind::kEarlyAbort, dev_->id(), -1,
                          -1,
                          std::to_string(missing) +
                              " partitions unrepairable within deadline");
  }
  EDGELET_LOG(kWarning)
      << "repair controller: failing safe at t=" << now << " ("
      << missing << " partitions cannot be repaired before the deadline)";
}

// --- SpareActor --------------------------------------------------------------

SpareActor::SpareActor(net::Transport* net, device::Device* dev,
                       const RoleTable* roles)
    : ActorBase(net, dev, roles->query_id()), roles_(roles) {}

SpareActor::~SpareActor() = default;

const SnapshotBuilderActor* SpareActor::builder() const {
  return inner_ != nullptr ? inner_->builder.get() : nullptr;
}

void SpareActor::HandleMessage(const net::Message& msg) {
  if (msg.type == kRecruit) {
    OnRecruit(msg);
    return;
  }
  // Recruited: the inner actor owns the protocol from here on.
  if (inner_ != nullptr) inner_->actor()->Deliver(msg);
}

void SpareActor::OnRecruit(const net::Message& msg) {
  if (!OpenSealed(msg).ok()) return;
  auto req = RecruitMsg::Decode(opened_payload());
  if (!req.ok() || req->query_id != query_tag()) return;
  if (recruited_) {
    // Controller resend of our assignment: re-ack (the first ack may have
    // been lost). A conflicting assignment is dropped — one spare, one
    // role.
    if (req->role == assignment_.role &&
        req->partition == assignment_.partition &&
        req->vgroup == assignment_.vgroup &&
        req->epoch == assignment_.epoch) {
      SendAck();
    }
    return;
  }
  // Recruits always carry a repair generation; generation 0 names a
  // planned operator, which is never recruited.
  if (req->vgroup >= roles_->num_vgroups() || req->epoch < kRepairEpochBase) {
    return;
  }
  recruited_ = true;
  assignment_ = *req;
  // Recruited spares get no recovery store (no checkpoint sink).
  inner_ = std::make_unique<Operator>(roles_->Build(
      net(), dev(), RoleTable::RecruitSpec(*req, dev()->id()),
      /*checkpoint=*/nullptr, /*resume_state=*/{}));
  // The inner actor's constructor re-bound the device handler for this
  // query tag to itself; reclaim it so recruit resends keep reaching this
  // wrapper (it forwards protocol traffic to the inner actor).
  RebindHandler();
  inner_->Start();
  SendAck();
}

void SpareActor::SendAck() {
  RecruitAckMsg ack;
  ack.query_id = query_tag();
  ack.role = assignment_.role;
  ack.partition = assignment_.partition;
  ack.vgroup = assignment_.vgroup;
  ack.epoch = assignment_.epoch;
  SealAndSend(assignment_.controller, kRecruitAck, ack.Encode());
}

}  // namespace edgelet::exec
