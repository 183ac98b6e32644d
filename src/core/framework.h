#ifndef EDGELET_CORE_FRAMEWORK_H_
#define EDGELET_CORE_FRAMEWORK_H_

#include <memory>

#include <vector>

#include "core/planner.h"
#include "data/generator.h"
#include "device/fleet.h"
#include "ml/metrics.h"
#include "net/transport.h"

namespace edgelet::sched {
struct ServiceConfig;
struct SubmitRequest;
class QueryScheduler;
}  // namespace edgelet::sched

namespace edgelet::core {

// Which engine the framework runs the protocol on.
//   kSim  — discrete-event simulation (serial or parsim). Deterministic;
//           every replay fingerprint holds.
//   kLive — net::live::LiveEngine: real worker threads and a scaled
//           steady_clock. Timing and interleaving are real; only
//           valid-result equivalence is promised (DESIGN.md §5j).
enum class TransportBackend : uint8_t { kSim = 0, kLive = 1 };

struct FrameworkConfig {
  device::FleetConfig fleet;
  net::NetworkConfig network;
  data::HealthDataParams data;
  uint64_t seed = 1;
  // Discrete-event engine shards. 1 = the serial Simulator; >1 = the
  // window-barrier parsim::ParallelSimulator with that many worker
  // threads, using the network's min_latency as the lookahead. Results
  // are bit-identical for every value (see net/parsim/engine.h); a
  // min_latency of 0 forces the serial engine since no positive lookahead
  // exists.
  size_t sim_shards = 1;
  // Transport axis: sim (default) or live. Under kLive, sim_shards is
  // ignored and live_workers threads drive the network instead.
  TransportBackend transport = TransportBackend::kSim;
  // kLive tuning; see net::live::LiveEngine::Options.
  size_t live_workers = 4;
  uint64_t live_time_scale = 1000;

  FrameworkConfig() {
    // One individual per contributing device.
    data.num_individuals = fleet.num_contributors;
  }
};

// Verdict of comparing the distributed answer to a centralized execution
// over the same snapshot (the demo's "run the processing centrally to
// verify the results").
struct ValidityReport {
  bool valid = false;
  size_t rows_compared = 0;
  double max_abs_error = 0.0;
  std::string detail;
};

// The Edgelet manager of the demo platform: owns the simulator, network,
// trust authority, device fleet and population data; plans and executes
// queries; verifies results against centralized references.
class EdgeletFramework {
 public:
  explicit EdgeletFramework(FrameworkConfig config);
  ~EdgeletFramework();

  EdgeletFramework(const EdgeletFramework&) = delete;
  EdgeletFramework& operator=(const EdgeletFramework&) = delete;

  // Builds everything (devices, data, attestation). Must be called once
  // before Plan/Execute.
  Status Init();

  // The backend (valid after Init; null engine/network before): the
  // engine, the network over it and the transport handle over the two.
  // Every backend is built and reached the same way.
  net::Transport* transport() { return &transport_; }
  net::SimEngine* sim() { return engine_.get(); }
  net::Network* network() { return network_.get(); }
  device::Fleet* fleet() { return fleet_.get(); }
  // The population, as a view over the one shared columnar store. Every
  // device's local view and the validity-oracle rerun alias the same
  // slab — the host never holds a second copy of the rows.
  data::TableView population_view() const {
    return data::TableView(population_store_);
  }
  const std::shared_ptr<const data::ColumnTable>& population_store() const {
    return population_store_;
  }
  net::NodeId querier_node() const { return querier_node_; }
  const FrameworkConfig& config() const { return config_; }

  // Plans a query over `processor_pool` (empty = every processor of this
  // framework's fleet). The scheduler plans each admitted request here, so
  // a service deployment is exactly what a single-tenant Plan produces.
  Result<exec::Deployment> Plan(
      const query::Query& query, const PrivacyConfig& privacy,
      const resilience::ResilienceConfig& resilience, exec::Strategy strategy,
      const std::vector<net::NodeId>& processor_pool = {});

  // Runs a planned deployment on the simulator and returns the report.
  Result<exec::ExecutionReport> Execute(const exec::Deployment& deployment,
                                        const exec::ExecutionConfig& config);

  // The most recent execution; exposes the ExecutionTrace when the run
  // enabled tracing. Valid until the next Execute()/Drain() cycle begins
  // (which retires completed executions — see RetireCompletedExecutions).
  const exec::QueryExecution* last_execution() const {
    return executions_.empty() ? nullptr : executions_.back().get();
  }
  // Executions currently held in memory (the retention tests assert this
  // stays bounded across long Submit/Execute sequences).
  size_t live_execution_count() const { return executions_.size(); }

  // --- Multi-tenant service (src/sched) ----------------------------------
  // These entry points are *declared* here but *defined* in the
  // edgelet_sched library: link edgelet_sched to use them. edgelet_core
  // itself never references scheduler symbols, so the layering stays
  // acyclic (core <- sched).
  //
  // Installs a scheduler with the given knobs (replacing any idle one).
  Status ConfigureService(const sched::ServiceConfig& config);
  // Queues a query for admission; creates a default-configured scheduler
  // on first use. Returns the ticket identifying the request's outcome.
  Result<uint64_t> Submit(sched::SubmitRequest request);
  // Runs the simulator until every submitted query completed, was
  // rejected, or failed safe.
  Status Drain();
  sched::QueryScheduler* scheduler() const { return scheduler_; }

  // --- Service-layer building blocks -------------------------------------
  // Starts an execution without running it: the scheduler multiplexes many
  // of these over the shared simulator and advances the clock itself.
  Result<exec::QueryExecution*> StartExecution(
      const exec::Deployment& deployment, const exec::ExecutionConfig& config);
  // Destroys finished executions whose post-deadline event tails have
  // fully drained (quiescent_at() <= now), keeping the most recent one
  // (last_execution() semantics). Cheap; callable mid-Drain.
  void RetireQuiescentExecutions(SimTime now);
  // Runs the sim past every completed execution's quiescence horizon, then
  // retires all but the most recent and rewinds the per-node network
  // streams to their registration state. Execute()/Drain() do this
  // automatically before starting new work, which is what makes
  // back-to-back runs on one framework report-identical to fresh-framework
  // runs (churn-free fleets; see DESIGN.md §5i).
  void RetireCompletedExecutions();

  // Centralized Grouping Sets over the rows of the given contributors,
  // restricted to the given grouping-set indices (empty = all sets).
  Result<query::GroupingSetsResult> CentralizedGroupingSets(
      const query::Query& query,
      const std::vector<uint64_t>& contributor_keys,
      const std::vector<size_t>& set_indices) const;

  // Centralized K-Means over every qualifying row (reference for accuracy
  // metrics).
  Result<ml::KMeansKnowledge> CentralizedKMeans(
      const query::Query& query) const;

  // Qualifying feature matrix for K-Means accuracy evaluation.
  Result<ml::Matrix> QualifyingPoints(const query::Query& query) const;

  // Compares a distributed Grouping Sets result to the centralized
  // computation over the same per-vertical-group snapshots (Validity
  // property; the demo's "run the processing centrally").
  Result<ValidityReport> VerifyGroupingSets(
      const exec::Deployment& deployment,
      const exec::ExecutionReport& report) const;

 private:
  // Shared drain-retire-reset step before a new Execute()/Drain() cycle;
  // `keep_last` preserves the newest execution for last_execution().
  void DrainAndRetire(bool keep_last);

  FrameworkConfig config_;
  // Teardown rule: the engine and the network outlive every subsystem
  // registered on them (declared first), and the engine goes before the
  // network (declared after it), so live workers are joined before the
  // network they deliver into is destroyed.
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::SimEngine> engine_;
  net::Transport transport_;
  std::unique_ptr<tee::TrustAuthority> authority_;
  std::unique_ptr<device::Fleet> fleet_;
  std::unique_ptr<device::Device> querier_device_;
  std::vector<std::unique_ptr<exec::QueryExecution>> executions_;
  net::NodeId querier_node_ = 0;
  std::shared_ptr<const data::ColumnTable> population_store_;
  bool initialized_ = false;
  // The service layer, created by ConfigureService/Submit (defined in
  // edgelet_sched). Held type-erased so edgelet_core never needs the
  // scheduler's destructor; declared last so it is destroyed before the
  // subsystems it points into.
  std::shared_ptr<void> service_storage_;
  sched::QueryScheduler* scheduler_ = nullptr;
};

// Compares two finalized result tables cell by cell with a floating-point
// tolerance; returns a filled ValidityReport. Columns listed in
// `approximate_columns` (sketch-based aggregates, whose estimates are
// insertion-order dependent) compare under `approximate_tolerance`
// relative error instead of exact equality.
ValidityReport CompareResultTables(
    const data::Table& distributed, const data::Table& centralized,
    double tolerance = 1e-6,
    const std::vector<std::string>& approximate_columns = {},
    double approximate_tolerance = 0.05);

}  // namespace edgelet::core

#endif  // EDGELET_CORE_FRAMEWORK_H_
