#include "device/device.h"

namespace edgelet::device {

std::string_view DeviceClassName(DeviceClass cls) {
  switch (cls) {
    case DeviceClass::kPcSgx:
      return "PC/SGX";
    case DeviceClass::kSmartphoneTrustZone:
      return "Smartphone/TrustZone";
    case DeviceClass::kHomeBoxTpm:
      return "HomeBox/TPM";
  }
  return "?";
}

DeviceProfile DeviceProfile::Pc() {
  DeviceProfile p;
  p.cls = DeviceClass::kPcSgx;
  p.compute_factor = 1.0;
  // Plugged in, occasionally suspended.
  p.churn = net::ChurnModel::Intermittent(4 * kHour, 10 * kMinute);
  p.fsync_cost = 1 * kMillisecond;  // NVMe-class flush
  return p;
}

DeviceProfile DeviceProfile::Smartphone() {
  DeviceProfile p;
  p.cls = DeviceClass::kSmartphoneTrustZone;
  p.compute_factor = 3.0;
  // Coverage gaps and user mobility.
  p.churn = net::ChurnModel::Intermittent(20 * kMinute, 5 * kMinute);
  p.fsync_cost = 3 * kMillisecond;  // eMMC/UFS flash flush
  return p;
}

DeviceProfile DeviceProfile::HomeBox() {
  DeviceProfile p;
  p.cls = DeviceClass::kHomeBoxTpm;
  // STM32F417 @168MHz vs laptop-class CPU.
  p.compute_factor = 60.0;
  // Always powered; connected opportunistically (caregiver visits in the
  // DomYcile deployment) — modelled as long offline stretches with contact
  // windows.
  p.churn = net::ChurnModel::Intermittent(10 * kMinute, 40 * kMinute);
  p.fsync_cost = 10 * kMillisecond;  // microcontroller flash page program
  return p;
}

Device::Device(net::Network* network, const tee::TrustAuthority* authority,
               DeviceProfile profile, const std::string& code_identity)
    : network_(network), profile_(profile) {
  id_ = network_->Register(this, profile_.churn);
  enclave_ = std::make_unique<tee::Enclave>(id_, code_identity, authority);
}

SimDuration Device::ComputeCost(uint64_t tuples) const {
  double cost = static_cast<double>(tuples) *
                static_cast<double>(kPerTupleCost) * profile_.compute_factor;
  return static_cast<SimDuration>(cost);
}

void Device::BindQueryHandler(uint64_t query_tag, const void* owner,
                              MessageHandler fn) {
  for (QueryBinding& b : bindings_) {
    if (b.tag == query_tag) {  // last bind wins
      b.owner = owner;
      b.fn = std::move(fn);
      return;
    }
  }
  bindings_.push_back({query_tag, owner, std::move(fn)});
}

void Device::UnbindQueryHandler(uint64_t query_tag, const void* owner) {
  for (size_t i = 0; i < bindings_.size(); ++i) {
    if (bindings_[i].tag == query_tag) {
      if (bindings_[i].owner == owner) {
        bindings_.erase(bindings_.begin() + static_cast<ptrdiff_t>(i));
      }
      return;
    }
  }
}

void Device::AddRestartHook(uint64_t query_tag, const void* owner,
                            RestartHook fn) {
  for (RestartBinding& b : restart_hooks_) {
    if (b.tag == query_tag) {  // last bind wins, like query handlers
      b.owner = owner;
      b.fn = std::move(fn);
      return;
    }
  }
  restart_hooks_.push_back({query_tag, owner, std::move(fn)});
}

void Device::RemoveRestartHook(uint64_t query_tag, const void* owner) {
  for (size_t i = 0; i < restart_hooks_.size(); ++i) {
    if (restart_hooks_[i].tag == query_tag) {
      if (restart_hooks_[i].owner == owner) {
        restart_hooks_.erase(restart_hooks_.begin() +
                             static_cast<ptrdiff_t>(i));
      }
      return;
    }
  }
}

void Device::OnRestart() {
  // Volatile state is gone: every actor binding from the previous boot is
  // dead. The actor objects themselves survive (scheduled lambdas pin
  // them); bumping the boot epoch fences their timers and resends. The
  // owner-checked unbind in their destructors then no-ops harmlessly.
  bindings_.clear();
  ++boot_epoch_;
  // Recovery hooks replay sealed logs and rebuild roles. Copy first: a
  // hook may legitimately re-register itself or add others.
  std::vector<RestartBinding> hooks = restart_hooks_;
  for (RestartBinding& b : hooks) {
    if (b.fn) b.fn();
  }
}

Status Device::SendSealed(net::NodeId to, uint32_t type,
                          const Bytes& plaintext, uint64_t query_tag) {
  net::Message msg;
  msg.from = id_;
  msg.to = to;
  msg.type = type;
  msg.seq = next_seq_++;
  msg.query_tag = query_tag;
  // Stack AAD + pooled payload buffer: the steady-state send path touches
  // the heap only when the pool is warming up.
  net::MessageAadBuf aad = net::MessageAadFixed(msg);
  msg.payload = network_->AcquirePayloadBuffer();
  Status s = enclave_->SealForInto(to, msg.seq, aad.data(), aad.size(),
                                   plaintext, &msg.payload);
  if (!s.ok()) {
    network_->RecyclePayloadBuffer(std::move(msg.payload));
    return s;
  }
  network_->Send(std::move(msg));
  return Status::OK();
}

void Device::SendControl(net::NodeId to, uint32_t type, const Bytes& payload,
                         uint64_t query_tag) {
  net::Message msg;
  msg.from = id_;
  msg.to = to;
  msg.type = type;
  msg.seq = next_seq_++;
  msg.query_tag = query_tag;
  msg.payload = payload;
  network_->Send(std::move(msg));
}

Status Device::OpenPayloadInto(const net::Message& msg, Bytes* out) {
  net::MessageAadBuf aad = net::MessageAadFixed(msg);
  return enclave_->OpenFromInto(msg.from, msg.seq, aad.data(), aad.size(),
                                msg.payload, out);
}

Result<Bytes> Device::OpenPayload(const net::Message& msg) {
  Bytes out;
  Status s = OpenPayloadInto(msg, &out);
  if (!s.ok()) return s;
  return out;
}

void Device::OnMessage(const net::Message& msg) {
  // Traffic for a query this device no longer (or never) serves is
  // dropped: query A's strays must not reach query B's actor.
  for (const QueryBinding& b : bindings_) {
    if (b.tag == msg.query_tag) {
      if (b.fn) b.fn(msg);
      return;
    }
  }
}

}  // namespace edgelet::device
