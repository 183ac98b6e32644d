#ifndef EDGELET_DEVICE_DEVICE_H_
#define EDGELET_DEVICE_DEVICE_H_

#include <functional>
#include <memory>
#include <string>

#include "data/column_table.h"
#include "data/table.h"
#include "net/network.h"
#include "tee/enclave.h"

namespace edgelet::device {

// The three TEE-enabled device classes of the demo platform (paper §3.1 and
// Figure 1): an SGX laptop, a TrustZone smartphone, and the DomYcile
// STM32F417+TPM home box.
enum class DeviceClass : uint8_t {
  kPcSgx = 0,
  kSmartphoneTrustZone = 1,
  kHomeBoxTpm = 2,
};

std::string_view DeviceClassName(DeviceClass cls);

struct DeviceProfile {
  DeviceClass cls = DeviceClass::kPcSgx;
  // Multiplier on processing time relative to the PC (i5-9400H = 1.0; the
  // STM32F417 microcontroller is orders of magnitude slower).
  double compute_factor = 1.0;
  // Availability pattern.
  net::ChurnModel churn = net::ChurnModel::AlwaysOn();
  // Modeled cost of forcing one checkpoint record to stable storage
  // (fsync + sealing overhead). Telemetry for the store layer: checkpoints
  // are written off the protocol's critical path, so this feeds the
  // store's durability accounting, not message timing.
  SimDuration fsync_cost = 1 * kMillisecond;

  // Calibrated presets. The home box is always on (plugged in) but slow;
  // the smartphone is fast but churns; the PC is fast and mostly on.
  static DeviceProfile Pc();
  static DeviceProfile Smartphone();
  static DeviceProfile HomeBox();
};

// A personal device participating in Edgelet computations: a network node
// hosting a TEE enclave and the owner's local data. Execution actors
// (exec/) attach a message handler to drive the device's protocol role.
class Device : public net::Node {
 public:
  // Registers with `network` immediately; the node id doubles as the
  // enclave id.
  Device(net::Network* network, const tee::TrustAuthority* authority,
         DeviceProfile profile, const std::string& code_identity);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  net::NodeId id() const { return id_; }
  const DeviceProfile& profile() const { return profile_; }
  tee::Enclave& enclave() { return *enclave_; }
  net::Network* network() { return network_; }

  // Simulated processing time for touching `tuples` tuples on this device.
  SimDuration ComputeCost(uint64_t tuples) const;

  // The owner's local rows: a zero-copy view into the shared population
  // store (Fleet::DistributeData hands every device its contiguous member
  // block). The device never owns a row copy of the population.
  void SetLocalView(data::TableView view) { local_view_ = std::move(view); }
  const data::TableView& local_view() const { return local_view_; }

  // Exactly one actor owns the device *per query*: inbound messages are
  // routed by their query tag, and a message whose tag has no binding
  // (tag 0 included) is dropped.
  using MessageHandler = std::function<void(const net::Message&)>;

  // Binds `fn` as the handler for messages tagged `query_tag` (last bind
  // wins). `owner` identifies the binder: an unbind from a stale owner is
  // a no-op, so a wrapper actor (SpareActor) can reclaim the tag from the
  // inner actor it hosts without the inner actor's destructor clobbering
  // it.
  void BindQueryHandler(uint64_t query_tag, const void* owner,
                        MessageHandler fn);
  // Removes the binding for `query_tag` iff still owned by `owner`.
  void UnbindQueryHandler(uint64_t query_tag, const void* owner);
  size_t query_bindings() const { return bindings_.size(); }

  // Seals `plaintext` for the destination enclave and sends it. The wire
  // header is the AEAD associated data, so tampering with routing breaks
  // authentication. `query_tag` stamps the message for per-tenant dispatch
  // and stats attribution (not a wire field).
  Status SendSealed(net::NodeId to, uint32_t type, const Bytes& plaintext,
                    uint64_t query_tag);
  // Sends an unsealed control message (liveness pings etc. — no payload
  // confidentiality needed).
  void SendControl(net::NodeId to, uint32_t type, const Bytes& payload,
                   uint64_t query_tag);

  // Opens a sealed payload received from msg.from.
  Result<Bytes> OpenPayload(const net::Message& msg);
  // Same, into a caller-provided scratch buffer (resized to fit). Reusing
  // one scratch across messages keeps the receive path allocation-free.
  Status OpenPayloadInto(const net::Message& msg, Bytes* out);

  // --- Crash / restart ---------------------------------------------------
  // Counts reboots: 0 until the first Network::Restart. Actors capture the
  // epoch they were built under and their timers/sends self-cancel once it
  // moves on — the simulator cannot destroy a crashed device's actor
  // objects (scheduled lambdas capture them), so staleness is fenced by
  // epoch instead of by destruction.
  uint64_t boot_epoch() const { return boot_epoch_; }

  // Registers a hook run on every reboot (after volatile state is wiped and
  // boot_epoch() bumped) — where a query's recovery host replays its sealed
  // log and rebuilds its role. Owner-checked like query bindings.
  using RestartHook = std::function<void()>;
  void AddRestartHook(uint64_t query_tag, const void* owner, RestartHook fn);
  void RemoveRestartHook(uint64_t query_tag, const void* owner);

  // net::Node:
  void OnMessage(const net::Message& msg) override;
  void OnOnline() override {}
  void OnOffline() override {}
  void OnRestart() override;

 private:
  // One query's handler. Kept in a small vector (not a map): a device
  // serves a handful of queries at once but fleets reach millions of
  // devices, so per-device footprint beats lookup asymptotics.
  struct QueryBinding {
    uint64_t tag = 0;
    const void* owner = nullptr;
    MessageHandler fn;
  };

  net::Network* network_;
  DeviceProfile profile_;
  net::NodeId id_;
  std::unique_ptr<tee::Enclave> enclave_;
  data::TableView local_view_;
  struct RestartBinding {
    uint64_t tag = 0;
    const void* owner = nullptr;
    RestartHook fn;
  };

  std::vector<QueryBinding> bindings_;
  std::vector<RestartBinding> restart_hooks_;
  uint64_t boot_epoch_ = 0;
  // Survives reboots: models a persisted send counter. Resetting it would
  // reuse AEAD (key, nonce) pairs with peers the enclave talked to before
  // the crash.
  uint64_t next_seq_ = 0;
};

// Base per-tuple processing time on the reference PC.
constexpr SimDuration kPerTupleCost = 20 * kMicrosecond;

}  // namespace edgelet::device

#endif  // EDGELET_DEVICE_DEVICE_H_
