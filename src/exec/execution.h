#ifndef EDGELET_EXEC_EXECUTION_H_
#define EDGELET_EXEC_EXECUTION_H_

#include <memory>

#include "common/serialize.h"
#include "device/fleet.h"
#include "exec/combiner.h"
#include "exec/computer.h"
#include "exec/contributor.h"
#include "exec/recovery.h"
#include "exec/repair.h"
#include "exec/roles.h"
#include "exec/snapshot_builder.h"
#include "query/qep.h"
#include "query/query.h"

namespace edgelet::exec {

// The two resiliency strategies of [14]. Overcollection runs n+m
// single-instance partitions and tolerates losing up to m; Backup runs
// exactly n partitions with replicated operators and leader failover.
enum class Strategy : uint8_t {
  kOvercollection = 0,
  kBackup = 1,
};

std::string_view StrategyName(Strategy strategy);

// Planner output: the physical plan — which device hosts which operator
// replica. Produced by core::Planner, consumed by QueryExecution.
struct Deployment {
  query::Query query;
  query::Qep qep;
  Strategy strategy = Strategy::kOvercollection;
  int n = 1;
  int m = 0;
  uint64_t quota = 0;  // ceil(C / n) tuples per partition
  // Attribute columns per vertical group and the grouping sets each
  // evaluates.
  std::vector<std::vector<std::string>> vgroup_columns;
  std::vector<std::vector<size_t>> vgroup_set_indices;
  // Rank-ordered replica groups (singletons under Overcollection).
  // Vertical partitioning applies from the contributor onward (paper
  // Fig. 2): each (partition, vertical-group) pair has its own snapshot
  // builder chain, so no single edgelet ever holds a separated attribute
  // pair.
  std::vector<std::vector<std::vector<net::NodeId>>>
      sb_groups;  // [partition][vgroup][rank]
  std::vector<std::vector<std::vector<net::NodeId>>>
      computer_groups;  // [partition][vgroup][rank]
  // Overcollection: independent active instances (Combiner + Active
  // Backup). Backup strategy: one leader/standby group.
  std::vector<net::NodeId> combiner_group;
  net::NodeId querier = 0;
  // Rank-ordered spare edgelets reserved by the planner for mid-query
  // repair: provisioned with the plan, idle until recruited. Empty when the
  // eligible crowd is fully consumed by the primary deployment.
  std::vector<net::NodeId> spare_pool;

  // Overcollection gathers (n+m) partitions of quota tuples each, so the
  // crowd must contain at least this many qualifying contributors (plus
  // margin for hash imbalance and message loss) for every chain to fill.
  uint64_t MinQualifyingCrowd() const {
    return static_cast<uint64_t>(n + m) * quota;
  }
};

struct ExecutionConfig {
  // Contributors transmit at a uniformly random time inside this window
  // (their opportunistic contact).
  SimDuration collection_window = 60 * kSecond;
  // Hard completion contract for the Resiliency property.
  SimDuration deadline = 10 * kMinute;
  // Combiners emit at deadline - margin so the answer can still reach the
  // querier in time.
  SimDuration combiner_margin = 60 * kSecond;
  // K-Means cadence (paper §2.2).
  SimDuration heartbeat_period = 30 * kSecond;
  int num_heartbeats = 8;
  // Crash-failure injection over the Data Processor devices.
  bool inject_failures = true;
  double failure_probability = 0.0;
  uint64_t seed = 1;
  // Record a step-by-step ExecutionTrace (the demo GUI's timeline view).
  bool enable_trace = false;
  // Extra emissions of the final result (delivery is as uncertain as any
  // other message; the querier deduplicates).
  int result_resends = 2;
  // Extra emissions of the other one-shot protocol messages (snapshot
  // slices, computed partials); receivers deduplicate. Contributions and
  // K-Means broadcasts are naturally redundant and are not repeated.
  // Every re-send backs off from kResendInterval (exec/defaults.h).
  int emission_resends = 2;
  // Mid-query failure detection + deadline-aware partition repair
  // (DESIGN.md §5f). Applies to Grouping Sets executions under the
  // Overcollection strategy when the plan reserved spares.
  RepairConfig repair;
  // Sealed persistent store + crash-with-recovery resumption (DESIGN.md
  // §5k). Orthogonal to `repair`: with repair active, a rebooted operator
  // asks the controller before resuming (RecoveryHello / RecoveryAck);
  // without it, it resumes unilaterally.
  RecoveryConfig recovery;
};

// Canonical byte encoding of an ExecutionReport: every field, fixed order.
// Two reports are equal iff their encodings are byte-identical; the
// determinism tests and the parallel trial harness use this to prove that
// serial and parallel sweeps produce identical per-seed results.
struct ExecutionReport;
void SerializeReport(const ExecutionReport& report, Writer* w);
// FNV-1a fingerprint over SerializeReport's bytes.
uint64_t ReportFingerprint(const ExecutionReport& report);

struct ExecutionReport {
  bool success = false;
  // Relative to the execution's start (the paper's completion-before-
  // deadline contract).
  SimTime completion_time = kSimTimeNever;
  data::Table result;
  std::vector<uint32_t> partitions_used;
  std::vector<uint32_t> epochs_used;
  int n = 0;
  int m = 0;
  Strategy strategy = Strategy::kOvercollection;
  size_t processors_killed = 0;
  size_t contributors_participating = 0;
  uint32_t duplicate_results = 0;
  // Network activity attributable to this execution.
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t bytes_sent = 0;
  // Contributor keys whose rows form the merged snapshot, per vertical
  // group (Grouping Sets executions; used for exact validity
  // verification — each vertical chain samples its own C/n rows per
  // partition).
  std::vector<std::vector<uint64_t>> snapshot_contributors_by_vgroup;
  // Worst observed cleartext exposure across processor enclaves.
  uint64_t max_observed_exposure_tuples = 0;
  // Repair subsystem outcome (zeros / kSimTimeNever when repair was off).
  uint64_t failures_detected = 0;
  uint32_t repairs_attempted = 0;
  uint32_t repairs_succeeded = 0;
  // When the controller failed safe (relative to the execution's start;
  // strictly less than the deadline). kSimTimeNever otherwise.
  SimTime early_abort_time = kSimTimeNever;
  // Crash-with-recovery outcome (zeros when recovery was off). Serialized
  // as a conditional tail: appended only when either is nonzero, so every
  // fingerprint pinned before the recovery subsystem existed stays valid.
  uint32_t recoveries_resumed = 0;
  uint32_t repairs_cancelled_by_return = 0;
  // Durability telemetry aggregated across the execution's sealed stores.
  uint64_t checkpoints_written = 0;
  uint64_t store_integrity_failures = 0;
};

// Runs one planned query over the fleet on the discrete-event simulator.
class QueryExecution {
 public:
  QueryExecution(net::Transport* net, device::Fleet* fleet,
                 Deployment deployment, ExecutionConfig config);
  ~QueryExecution();

  QueryExecution(const QueryExecution&) = delete;
  QueryExecution& operator=(const QueryExecution&) = delete;

  // Instantiates actors, schedules contributions and failures. The query
  // id must be nonzero: it tags every message and attributes traffic.
  Status Start();
  // Runs the simulator to the deadline and assembles the report.
  // Equivalent to stepping the sim in poll_step() chunks (breaking on
  // abort_requested()) and then calling Finish().
  Status RunToCompletion();

  // --- Service interface (sched::QueryScheduler) -------------------------
  // A scheduler multiplexing several executions over one simulator drives
  // each of them through these instead of RunToCompletion: it advances the
  // shared clock itself and finalizes each query at its own boundaries.
  uint64_t query_id() const { return deployment_.query.query_id; }
  const Deployment& deployment() const { return deployment_; }
  SimTime start_time() const { return base_; }
  SimTime end_time() const { return SatAdd(base_, config_.deadline); }
  // Decision cadence for fail-safe early abort: repair-active executions
  // re-check abort_requested() every poll_step() from start_time(); 0 means
  // no mid-run decisions (run straight to end_time()).
  SimDuration poll_step() const;
  bool abort_requested() const;
  bool finished() const { return finished_; }
  // Collects the report (idempotent). The caller guarantees the sim has
  // run to end_time(), or to an abort decision boundary.
  Status Finish();
  // Conservative upper bound on the last event this execution can have
  // scheduled (resend tails, one trailing period of each periodic loop).
  // Running a DES engine to this point leaves no callback of its actors
  // pending. The live engine runs each event late and its callbacks read
  // the late clock, so there the tails can drift past the bound; its
  // actors schedule through a scoped transport instead, and whatever is
  // left pending when the execution is destroyed stays silent.
  SimTime quiescent_at() const;

  const ExecutionReport& report() const { return report_; }
  // Non-null iff config.enable_trace; valid for this object's lifetime.
  const ExecutionTrace* trace() const { return trace_.get(); }

 private:
  // One planned chain operator: its spec, every incarnation built for it
  // and, with recovery on, the sealed-store host that resumes it after a
  // reboot. Incarnations are append-only and live until the execution is
  // destroyed: a superseded (defunct) incarnation's timers may still fire.
  struct OperatorSlot {
    OperatorSpec spec;
    device::Device* dev = nullptr;
    std::vector<Operator> incarnations;  // [0] = deployed; back() = newest
    std::unique_ptr<RecoveryHost> host;
  };

  // Every shape, id and device Start() relies on: the query id, the
  // [n+m][vgroup] arity of both chain grids, and each operator, spare and
  // querier device.
  Status CheckDeployment() const;
  // Builds contribution_plan_: compiles the predicates and resolves the
  // projections and the contributor_id key once per distinct population
  // store. InvalidArgument when any of them does not resolve.
  Status ResolveContributionPlan();
  // One ContributorActor per contributor device, one member per row of
  // the device's view, keyed by the row's contributor_id.
  Status BuildContributors();
  // Deploys every planned builder, computer and combiner, in that order.
  void BuildOperators();
  void AddOperator(OperatorSpec spec);
  // Builds and starts slot `index`'s next incarnation from `state` (empty =
  // fresh start). The deployment and every resume go through here.
  void StartIncarnation(size_t index, const Bytes& state);
  void BuildSpares();
  void InjectFailures();
  void SnapshotExposure();
  void CollectReport();
  // The recovery host for slot `index` (DESIGN.md §5k), or null when
  // recovery is off — then no store exists and no checkpoint sink is
  // installed — or the device already hosts one (one store per device per
  // query).
  std::unique_ptr<RecoveryHost> MakeRecoveryHost(size_t index);
  // Live engines only (see quiescent_at()): the scope token of net_,
  // cleared by the destructor.
  std::shared_ptr<bool> live_scope_;
  // The transport this execution and every actor, host and spare of it
  // run on: the caller's, scoped by live_scope_ when that is set. Declared
  // before the actors, so it outlives them.
  net::Transport net_;
  net::Network* network_;  // = net_.network(), cached
  device::Fleet* fleet_;
  Deployment deployment_;
  ExecutionConfig config_;

  // Read by every contributor actor; resolved in Start() and not changed
  // after it.
  ContributionPlan contribution_plan_;
  // One actor per contributor device that hosts members.
  std::vector<std::unique_ptr<ContributorActor>> contributors_;
  std::unique_ptr<RoleTable> roles_;
  // Chain operators in build order: builders by [partition][vgroup][rank],
  // then computers likewise, then combiners.
  std::vector<OperatorSlot> slots_;
  std::vector<std::unique_ptr<SpareActor>> spares_;
  std::unique_ptr<QuerierActor> querier_;

  std::unique_ptr<ExecutionTrace> trace_;
  net::QueryNetStats query_stats_before_;
  // Per-processor-enclave cleartext counters at Start(), in the exact
  // order CollectReport() walks them (non-combiner slots, then spares_):
  // enclave counters are cumulative across a device's lifetime, so the
  // report attributes only this execution's delta.
  std::vector<uint64_t> exposure_before_;
  // The deployed primary combiner's repair controller (nullptr when repair
  // is off). A resumed combiner's fresh controller does not drive
  // abort_requested().
  const RepairController* controller_ = nullptr;
  ExecutionReport report_;
  bool started_ = false;
  bool finished_ = false;
  // Simulation time when Start() ran; all schedule points are relative to
  // it so several executions can share one simulator sequentially.
  SimTime base_ = 0;
};

}  // namespace edgelet::exec

#endif  // EDGELET_EXEC_EXECUTION_H_
