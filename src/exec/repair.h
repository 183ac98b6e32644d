#ifndef EDGELET_EXEC_REPAIR_H_
#define EDGELET_EXEC_REPAIR_H_

#include <functional>
#include <memory>
#include <vector>

#include "exec/actor.h"
#include "exec/computer.h"
#include "exec/snapshot_builder.h"
#include "resilience/failure_detector.h"

namespace edgelet::exec {

class RoleTable;
struct Operator;

// User-facing knobs of the mid-query failure-detection + partition-repair
// subsystem (DESIGN.md §5f). Off by default: with enabled == false an
// execution is bit-identical to one built before the subsystem existed.
// Repair applies to Grouping Sets queries under the Overcollection
// strategy; other executions ignore it. The detector's lease timing is
// fixed by the protocol (resilience/failure_detector.h): operators beat and
// the controller scans every resilience::kLeasePeriod.
struct RepairConfig {
  bool enabled = false;
  // Budget terms of the repair-vs-fail-safe decision: a repair is feasible
  // iff now + collection-window remainder + compute_margin +
  // emission_margin still fits before (deadline - combiner margin); see
  // RepairBudgetFits.
  SimDuration compute_margin = 15 * kSecond;
  SimDuration emission_margin = 15 * kSecond;
};

// The repair-budget inequality, the one statement of it: a repair
// started at `now` re-collects for whatever remains of the collection
// window (until `collection_end`), computes and emits within the two
// repair margins, and must still leave the combiner its margin before
// `deadline`. Saturating: a huge user-set margin reads as infeasible
// instead of wrapping past the deadline. The repair controller evaluates
// it at every repair decision; the scheduler's admission screen at
// now = 0 with relative times.
bool RepairBudgetFits(SimTime now, SimTime collection_end, SimTime deadline,
                      SimDuration compute_margin, SimDuration emission_margin,
                      SimDuration combiner_margin);

// Extra Recruit re-sends (backoff schedule from kResendInterval; spares
// ack-dedup).
inline constexpr int kRecruitResends = 2;

// Stable operator identity for the liveness lease of one chain operator:
// (repair generation, role, partition, vgroup). Generation 0 is the
// originally planned chain; recruited replacements use their repair epoch,
// so a recruit is a fresh detector entry, never inheriting the suspicion
// of the operator it replaces.
uint64_t RepairOpId(RecruitRole role, uint32_t partition, uint32_t vgroup,
                    uint32_t generation);

// The repair controller: owned by (and running in the event context of)
// the primary combiner. Monitors every (partition, vertical-group) chain
// through operator heartbeat leases; when the partitions still able to
// complete drop below n, it estimates the repair time against the
// remaining deadline budget and either re-provisions the broken chains on
// spare edgelets (Recruit / RecruitAck / re-solicitation) or fails safe —
// requesting termination at detection time instead of idling to the
// deadline.
//
// Determinism: all state mutations happen in the combiner device's event
// context (scan ticks, message deliveries), and all randomness is the
// detector's per-operator counter-based NodeRng jitter — so runs replay
// bit-identically for any parsim shard count.
class RepairController {
 public:
  struct Config {
    bool enabled = false;
    uint64_t query_id = 0;
    int n_needed = 1;
    uint32_t total_partitions = 0;  // n + m
    uint32_t num_vgroups = 1;
    resilience::FailureDetectorConfig detector;
    // Absolute times of this execution's schedule.
    SimTime start_at = 0;
    SimTime collection_end = 0;
    SimTime deadline = kSimTimeNever;
    SimDuration combiner_margin = 60 * kSecond;
    SimDuration compute_margin = 15 * kSecond;
    SimDuration emission_margin = 15 * kSecond;
    // Rank-ordered spares reserved by the planner; consumed front-first.
    std::vector<net::NodeId> spare_pool;
    // Every contributor device (re-solicitation fan-out).
    std::vector<net::NodeId> contributors;
    // Originally planned operator devices, [partition][vgroup]. Used to
    // authenticate a RecoveryHello as coming from the chain's incumbent
    // (only the planned device may reclaim its generation-0 role). Empty =
    // recovery disabled: every hello is denied.
    std::vector<std::vector<net::NodeId>> original_builders;
    std::vector<std::vector<net::NodeId>> original_computers;
    ExecutionTrace* trace = nullptr;
  };

  RepairController(net::Transport* net, device::Device* dev, Config config);

  // Registers the generation-0 chains and schedules the periodic scan.
  void Start();
  // Scanning stops once this returns true (the combiner's result is ready).
  void set_done(std::function<bool()> done) { done_ = std::move(done); }

  // Routed by the owning combiner from its message handler.
  void OnHeartbeat(const OperatorHeartbeatMsg& msg);
  void OnRecruitAck(const RecruitAckMsg& msg);
  // Called when the combiner accepts a partial for (partition, vgroup).
  void NotePartialDelivered(uint32_t partition, uint32_t vgroup,
                            uint32_t epoch);
  // A crashed-and-rebooted incumbent re-attested and asks to reclaim its
  // generation-0 role. Returns true iff it may resume. Epoch fencing
  // decides the race against an in-flight repair: if no repair was issued
  // the incumbent is re-registered under its new incarnation; if a repair
  // is in flight but its recruits have not all acked, the repair is
  // cancelled (chain reverts to generation 0) and the incumbent wins; if
  // the recruits already acked, they own the chain and the hello is
  // denied.
  bool OnRecoveryHello(const RecoveryHelloMsg& msg, net::NodeId from);

  // Fail-safe early termination: requested when live complete partitions
  // dropped below n and repair is infeasible (no budget or no spares).
  bool abort_requested() const { return abort_requested_; }
  // Absolute simulation time of the abort decision (strictly before the
  // deadline); kSimTimeNever when no abort was requested.
  SimTime abort_time() const { return abort_time_; }

  uint64_t detections() const { return detector_.detections(); }
  uint32_t repairs_attempted() const { return repairs_attempted_; }
  uint32_t repairs_succeeded() const { return repairs_succeeded_; }
  uint32_t repairs_cancelled_by_return() const {
    return repairs_cancelled_by_return_;
  }
  uint32_t recoveries_accepted() const { return recoveries_accepted_; }
  size_t spares_used() const { return spare_next_; }

 private:
  // One (partition, vgroup) chain: the operators currently responsible for
  // it (originals or the latest recruits) and its delivery state.
  struct Chain {
    uint64_t builder_op = 0;
    uint64_t computer_op = 0;
    uint32_t epoch = 0;  // 0 = original generation
    net::NodeId builder_node = 0;
    net::NodeId computer_node = 0;
    bool delivered = false;
    bool builder_acked = true;   // recruits start false until RecruitAck
    bool computer_acked = true;
    bool resolicited = false;
    bool repair_counted = false;
  };

  void Tick();
  bool ChainBroken(const Chain& chain, SimTime now) const;
  // Reverts a chain whose repair lost the race to the returning incumbent.
  void CancelRepair(uint32_t partition, uint32_t vgroup, SimTime now);
  // Time + spare-pool feasibility of repairing `broken_chains` chains now.
  bool RepairFeasible(SimTime now, int broken_chains) const;
  void RepairPartition(uint32_t partition, SimTime now);
  void SendRecruit(RecruitRole role, net::NodeId to, uint32_t partition,
                   uint32_t vgroup, uint32_t epoch, net::NodeId peer);
  void Resolicit(uint32_t partition, uint32_t vgroup, net::NodeId builder);
  void FailSafe(SimTime now, int missing);

  net::Transport* net_;
  device::Device* dev_;
  Config config_;
  // Boot epoch the controller was constructed under. A crashed-and-resumed
  // combiner constructs a *fresh* controller; the old one's scheduled ticks
  // and recruit resends still fire once the device is back online and must
  // not act on its pre-crash chain state.
  uint64_t birth_epoch_;
  resilience::FailureDetector detector_;
  std::function<bool()> done_;
  std::vector<std::vector<Chain>> chains_;  // [partition][vgroup]
  size_t spare_next_ = 0;
  uint32_t next_epoch_ = kRepairEpochBase;
  uint32_t repairs_attempted_ = 0;
  uint32_t repairs_succeeded_ = 0;
  uint32_t repairs_cancelled_by_return_ = 0;
  uint32_t recoveries_accepted_ = 0;
  bool abort_requested_ = false;
  SimTime abort_time_ = kSimTimeNever;
};

// A reserved spare edgelet, provisioned with the published query plan but
// idle until recruited. On kRecruit it builds the assigned inner operator
// (snapshot builder or computer) through the execution's role table, acks
// the controller, and from then on forwards protocol traffic to it.
class SpareActor : public ActorBase {
 public:
  // `roles` must outlive the actor (the owning execution holds both).
  SpareActor(net::Transport* net, device::Device* dev, const RoleTable* roles);
  ~SpareActor() override;

  bool recruited() const { return recruited_; }
  RecruitRole role() const { return assignment_.role; }
  uint32_t partition() const { return assignment_.partition; }
  uint32_t vgroup() const { return assignment_.vgroup; }
  uint32_t epoch() const { return assignment_.epoch; }
  // Non-null iff recruited as a snapshot builder.
  const SnapshotBuilderActor* builder() const;

 protected:
  void HandleMessage(const net::Message& msg) override;

 private:
  void OnRecruit(const net::Message& msg);
  void SendAck();

  const RoleTable* roles_;
  bool recruited_ = false;
  RecruitMsg assignment_;
  std::unique_ptr<Operator> inner_;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_REPAIR_H_
