#include "exec/recovery.h"

#include <utility>

#include "common/logging.h"

namespace edgelet::exec {

RecoveryHost::RecoveryHost(net::Transport* net, device::Device* dev,
                           Config config,
                           std::unique_ptr<store::StableMedium> medium)
    : net_(net),
      dev_(dev),
      config_(std::move(config)),
      store_(dev, config_.query_id, std::move(medium)) {
  dev_->AddRestartHook(config_.query_id, this, [this]() { OnRestart(); });
}

RecoveryHost::~RecoveryHost() {
  dev_->RemoveRestartHook(config_.query_id, this);
  dev_->UnbindQueryHandler(config_.query_id, this);
}

CheckpointFn RecoveryHost::MakeCheckpointFn() {
  return [this](const OperatorActor& actor, bool critical) {
    const SimTime now = net_->now();
    if (!critical && has_checkpointed_ &&
        now < last_checkpoint_ + kCheckpointInterval) {
      return;  // cadence throttle: coalesce routine deltas, unserialized
    }
    CheckpointRecord rec;
    rec.kind = config_.kind;
    rec.partition = config_.partition;
    rec.vgroup = config_.vgroup;
    rec.epoch = actor.checkpoint_epoch();
    rec.incarnation = dev_->boot_epoch();
    rec.state = actor.SerializeState();
    if (store_.Checkpoint(rec.Encode()).ok()) {
      has_checkpointed_ = true;
      last_checkpoint_ = now;
    }
  };
}

void RecoveryHost::OnRestart() {
  // Runs in the device's event context, right after the reboot wiped the
  // volatile world and bumped the boot epoch.
  awaiting_ack_ = false;
  if (net_->now() >= config_.stop_at) return;
  // Re-attestation gate: a reboot may have loaded tampered code. Without a
  // fresh successful Provision the enclave holds no group key — it can
  // neither prove itself to the coordinator nor speak the protocol.
  if (!dev_->enclave().Provision().ok()) {
    EDGELET_LOG(kWarning) << "device " << dev_->id()
                          << ": re-attestation failed after restart; "
                             "staying out of the query";
    return;
  }
  auto replay = store_.Replay();
  if (!replay.ok()) return;
  if (replay->records.empty() &&
      replay->tail != store::LogTailState::kClean) {
    // A damaged log with nothing salvageable is indistinguishable from
    // "my durable state was destroyed": stay out and let repair recruit
    // around, like a crash-forever peer.
    return;
  }
  pending_state_.clear();
  pending_epoch_ = 0;
  if (!replay->records.empty()) {
    // Last record wins — the log is append-only, later records strictly
    // supersede earlier ones.
    auto rec = CheckpointRecord::Decode(replay->records.back());
    if (!rec.ok() || rec->kind != config_.kind ||
        rec->partition != config_.partition ||
        rec->vgroup != config_.vgroup) {
      // A decodable-but-misaddressed record means the sealed store was fed
      // someone else's log; treat like corruption and recruit around.
      return;
    }
    pending_state_ = std::move(rec->state);
    pending_epoch_ = rec->epoch;
  }
  // A clean-but-empty log means the operator crashed before its first
  // checkpoint: nothing durable was lost, so it rejoins fresh under the
  // new boot epoch instead of being written off.
  attempt_incarnation_ = dev_->boot_epoch();
  if (config_.trace != nullptr) {
    config_.trace->Record(net_->now(), TraceEventKind::kDeviceRestarted,
                          dev_->id(), static_cast<int>(config_.partition),
                          static_cast<int>(config_.vgroup),
                          std::to_string(replay->records.size()) +
                              " records replayed, epoch " +
                              std::to_string(pending_epoch_));
  }
  if (config_.coordinator == 0) {
    // No coordinator to ask (repair disabled, or this IS the combiner):
    // resume unilaterally.
    Resume();
    return;
  }
  awaiting_ack_ = true;
  // Catch the coordinator's verdict: bind this host as the device's query
  // handler. The resumed actor's constructor re-binds to itself later
  // (last bind wins); protocol traffic arriving meanwhile is dropped, as
  // on any lossy link — sender resends cover it.
  dev_->BindQueryHandler(config_.query_id, this,
                         [this](const net::Message& m) { OnMessage(m); });
  SendHello();
  // Unilateral fallback: a coordinator that never answers (dead, or every
  // ack lost) must not strand a healthy device. Epoch fencing at the
  // combiner keeps a racing recruit harmless: whichever partial lands
  // first per vertical group is the one consumed.
  const uint64_t inc = attempt_incarnation_;
  net_->ScheduleAfter(dev_->id(), kGraceWindow, [this, inc]() {
    if (dev_->network()->IsDead(dev_->id())) return;
    if (attempt_incarnation_ != inc || !awaiting_ack_) return;
    awaiting_ack_ = false;
    Resume();
  });
}

void RecoveryHost::SendHello() {
  RecoveryHelloMsg msg;
  msg.query_id = config_.query_id;
  msg.role = config_.kind == OperatorKind::kComputer
                 ? RecruitRole::kComputer
                 : RecruitRole::kSnapshotBuilder;
  msg.partition = config_.partition;
  msg.vgroup = config_.vgroup;
  msg.epoch = pending_epoch_;
  msg.incarnation = attempt_incarnation_;
  const Bytes payload = msg.Encode();
  (void)dev_->SendSealed(config_.coordinator, kRecoveryHello, payload,
                         config_.query_id);
  const uint64_t inc = attempt_incarnation_;
  ScheduleBackoffResends(
      net_, dev_->id(), kHelloResends, kResendInterval,
      [this, payload, inc]() {
        if (dev_->network()->IsDead(dev_->id())) return;
        if (attempt_incarnation_ != inc || !awaiting_ack_) return;
        (void)dev_->SendSealed(config_.coordinator, kRecoveryHello, payload,
                               config_.query_id);
      });
}

void RecoveryHost::OnMessage(const net::Message& msg) {
  if (msg.type != kRecoveryAck) return;
  Bytes opened;
  if (!dev_->OpenPayloadInto(msg, &opened).ok()) return;
  auto ack = RecoveryAckMsg::Decode(opened);
  if (!ack.ok() || ack->query_id != config_.query_id) return;
  // A slow verdict from before a second crash must not authorize (or
  // deny) this boot.
  if (ack->incarnation != attempt_incarnation_) return;
  if (!awaiting_ack_) return;  // resend duplicate
  awaiting_ack_ = false;
  if (ack->resume) {
    Resume();
  } else {
    // The recruits own the chain now; this device stays retired for the
    // query. Release the binding so stray traffic stops reaching us.
    dev_->UnbindQueryHandler(config_.query_id, this);
    if (config_.trace != nullptr) {
      config_.trace->Record(net_->now(), TraceEventKind::kDeviceRestarted,
                            dev_->id(), static_cast<int>(config_.partition),
                            static_cast<int>(config_.vgroup),
                            "resume denied: recruits own the chain");
    }
  }
}

void RecoveryHost::Resume() {
  ++recoveries_resumed_;
  if (config_.trace != nullptr) {
    config_.trace->Record(net_->now(), TraceEventKind::kRecoveryResumed,
                          dev_->id(), static_cast<int>(config_.partition),
                          static_cast<int>(config_.vgroup),
                          "resumed from sealed store, epoch " +
                              std::to_string(pending_epoch_));
  }
  if (config_.resume) config_.resume(pending_state_);
}

}  // namespace edgelet::exec
