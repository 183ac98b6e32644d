#include "core/framework.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "net/live/live_engine.h"
#include "net/parsim/parallel_simulator.h"
#include "query/predicate.h"
#include "query/scan.h"

namespace edgelet::core {

EdgeletFramework::EdgeletFramework(FrameworkConfig config)
    : config_(std::move(config)) {}

EdgeletFramework::~EdgeletFramework() = default;

Status EdgeletFramework::Init() {
  if (initialized_) return Status::FailedPrecondition("already initialized");
  Rng seeds(config_.seed);

  const uint64_t sim_seed = seeds.Fork(1).NextU64();
  if (config_.transport == TransportBackend::kLive) {
    net::live::LiveEngine::Options live;
    live.num_workers = config_.live_workers;
    live.time_scale = config_.live_time_scale;
    engine_ = std::make_unique<net::live::LiveEngine>(sim_seed, live);
  } else if (config_.sim_shards > 1 &&
             config_.network.latency.min_latency > 0) {
    net::parsim::ParallelSimulator::Options options;
    options.num_shards = config_.sim_shards;
    // The minimum link latency is the engine's lookahead: no delivery can
    // land inside the window that sent it.
    options.lookahead = config_.network.latency.min_latency;
    engine_ =
        std::make_unique<net::parsim::ParallelSimulator>(sim_seed, options);
  } else {
    if (config_.sim_shards > 1) {
      EDGELET_LOG(kWarning)
          << "sim_shards > 1 requires min_latency > 0 (the lookahead); "
          << "falling back to the serial engine";
    }
    engine_ = std::make_unique<net::Simulator>(sim_seed);
  }
  network_ = std::make_unique<net::Network>(engine_.get(), config_.network);
  transport_ = net::Transport(engine_.get(), network_.get());
  authority_ =
      std::make_unique<tee::TrustAuthority>(seeds.Fork(2).NextU64());
  authority_->set_expected_measurement(
      crypto::Sha256::Hash(config_.fleet.code_identity));

  fleet_ = std::make_unique<device::Fleet>(network_.get(), authority_.get(),
                                           config_.fleet,
                                           seeds.Fork(3).NextU64());

  // The querier endpoint: an always-on machine at Santé Publique France.
  device::DeviceProfile querier_profile = device::DeviceProfile::Pc();
  querier_profile.churn = net::ChurnModel::AlwaysOn();
  querier_device_ = std::make_unique<device::Device>(
      network_.get(), authority_.get(), querier_profile,
      config_.fleet.code_identity);
  querier_node_ = querier_device_->id();
  fleet_->RegisterExternal(querier_device_.get());
  EDGELET_RETURN_NOT_OK(querier_device_->enclave().Provision());

  config_.data.num_individuals = config_.fleet.num_contributors;
  // The population streams straight into one shared columnar slab; the
  // fleet hands each device a view of its member block. Nothing on the
  // host ever re-materializes the rows.
  population_store_ = std::make_shared<const data::ColumnTable>(
      data::GenerateHealthColumns(config_.data, seeds.Fork(4).NextU64()));
  EDGELET_RETURN_NOT_OK(fleet_->DistributeData(population_view()));
  EDGELET_RETURN_NOT_OK(fleet_->ProvisionAll());
  initialized_ = true;
  return Status::OK();
}

Result<exec::Deployment> EdgeletFramework::Plan(
    const query::Query& query, const PrivacyConfig& privacy,
    const resilience::ResilienceConfig& resilience, exec::Strategy strategy,
    const std::vector<net::NodeId>& processor_pool) {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  Planner planner(population_store_->schema());
  Planner::Input input;
  input.query = query;
  input.privacy = privacy;
  input.resilience = resilience;
  input.strategy = strategy;
  input.processor_pool = processor_pool;
  if (processor_pool.empty()) {
    for (device::Device* dev : fleet_->processors()) {
      input.processor_pool.push_back(dev->id());
    }
  }
  input.querier = querier_node_;
  input.num_contributors = fleet_->contributors().size();
  input.seed = config_.seed;
  return planner.Plan(input);
}

Result<exec::ExecutionReport> EdgeletFramework::Execute(
    const exec::Deployment& deployment, const exec::ExecutionConfig& config) {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  // Prior executions may still have events pending past their deadline
  // (stray heartbeats, delayed emissions). Drain those to quiescence, then
  // retire the finished executions and rewind the per-node network streams
  // — a reused framework then runs the next query exactly like a fresh one
  // (churn-free fleets), and completed traces stop accumulating.
  DrainAndRetire(/*keep_last=*/false);
  EDGELET_ASSIGN_OR_RETURN(exec::QueryExecution * execution,
                           StartExecution(deployment, config));
  EDGELET_RETURN_NOT_OK(execution->RunToCompletion());
  return execution->report();
}

Result<exec::QueryExecution*> EdgeletFramework::StartExecution(
    const exec::Deployment& deployment, const exec::ExecutionConfig& config) {
  if (!initialized_) return Status::FailedPrecondition("call Init() first");
  executions_.push_back(std::make_unique<exec::QueryExecution>(
      &transport_, fleet_.get(), deployment, config));
  exec::QueryExecution* execution = executions_.back().get();
  Status started = execution->Start();
  if (!started.ok()) {
    executions_.pop_back();
    return started;
  }
  return execution;
}

void EdgeletFramework::RetireQuiescentExecutions(SimTime now) {
  if (executions_.empty()) return;
  // Keep the newest entry alive regardless (last_execution() contract).
  for (size_t i = executions_.size() - 1; i-- > 0;) {
    const auto& e = executions_[i];
    if (e->finished() && e->quiescent_at() <= now) {
      executions_.erase(executions_.begin() + static_cast<ptrdiff_t>(i));
    }
  }
}

void EdgeletFramework::RetireCompletedExecutions() {
  DrainAndRetire(/*keep_last=*/true);
}

void EdgeletFramework::DrainAndRetire(bool keep_last) {
  if (executions_.empty()) return;
  SimTime horizon = transport_.now();
  for (const auto& e : executions_) {
    horizon = std::max(horizon, e->quiescent_at());
  }
  if (horizon > transport_.now()) transport_.RunUntil(horizon);
  const exec::QueryExecution* last = executions_.back().get();
  std::erase_if(executions_, [&](const auto& e) {
    if (!e->finished()) return false;
    return !(keep_last && e.get() == last);
  });
  // Quiescent network: every node's stream rewinds to its registration
  // state, so the next execution draws latencies exactly as a fresh
  // framework would. (Churn-enabled fleets keep their in-flight dwell
  // chains deterministic but not fresh-equivalent — churn is fleet-
  // lifetime state by design.)
  network_->ResetNodeStreams();
}

Result<query::GroupingSetsResult> EdgeletFramework::CentralizedGroupingSets(
    const query::Query& query,
    const std::vector<uint64_t>& contributor_keys,
    const std::vector<size_t>& set_indices) const {
  if (query.kind != query::QueryKind::kGroupingSets) {
    return Status::InvalidArgument("not a grouping-sets query");
  }
  auto id_idx =
      population_store_->schema().IndexOf(data::kContributorIdColumn);
  if (!id_idx.ok()) return id_idx.status();
  // The snapshot is a selection view over the shared store, not a row copy
  // of the qualifying members. The generator numbers members 1..N in row
  // order, so member k is row k - 1 and the rows are found without a scan
  // of the store; a key outside 1..N names nobody and selects nothing.
  const std::vector<int64_t>& ids = population_store_->Int64Column(*id_idx);
  std::vector<uint32_t> selected;
  selected.reserve(contributor_keys.size());
  for (uint64_t k : contributor_keys) {
    if (k == 0 || k > ids.size()) continue;
    if (static_cast<uint64_t>(ids[k - 1]) != k) {
      return Status::Internal("population ids are not numbered by row");
    }
    selected.push_back(static_cast<uint32_t>(k - 1));
  }
  // Each row once, in row order.
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  data::TableView snapshot(population_store_, std::move(selected));
  if (set_indices.empty()) {
    return query::GroupingSetsResult::Compute(snapshot, query.grouping_sets);
  }
  return query::GroupingSetsResult::ComputeSets(snapshot,
                                                query.grouping_sets,
                                                set_indices);
}

Result<ml::Matrix> EdgeletFramework::QualifyingPoints(
    const query::Query& query) const {
  auto qualifying =
      query::ApplyPredicates(population_view(), query.predicates);
  if (!qualifying.ok()) return qualifying.status();
  return ml::ExtractPoints(*qualifying, query.kmeans.features);
}

Result<ml::KMeansKnowledge> EdgeletFramework::CentralizedKMeans(
    const query::Query& query) const {
  if (query.kind != query::QueryKind::kKMeans) {
    return Status::InvalidArgument("not a K-Means query");
  }
  auto points = QualifyingPoints(query);
  if (!points.ok()) return points.status();
  ml::KMeansConfig config;
  config.k = query.kmeans.k;
  config.seed = query.query_id;
  return ml::RunKMeans(*points, config);
}

Result<ValidityReport> EdgeletFramework::VerifyGroupingSets(
    const exec::Deployment& deployment,
    const exec::ExecutionReport& report) const {
  const query::Query& query = deployment.query;
  if (!report.success) {
    ValidityReport out;
    out.valid = false;
    out.detail = "execution did not deliver a result";
    return out;
  }
  if (report.snapshot_contributors_by_vgroup.size() !=
      deployment.vgroup_set_indices.size()) {
    return Status::InvalidArgument(
        "report/deployment vertical-group count mismatch");
  }
  // Each vertical chain sampled its own rows; recompute its grouping sets
  // centrally over exactly those rows, then stitch.
  query::GroupingSetsResult acc;
  for (size_t vg = 0; vg < deployment.vgroup_set_indices.size(); ++vg) {
    auto partial = CentralizedGroupingSets(
        query, report.snapshot_contributors_by_vgroup[vg],
        deployment.vgroup_set_indices[vg]);
    if (!partial.ok()) return partial.status();
    EDGELET_RETURN_NOT_OK(acc.Merge(*partial));
  }
  auto central = acc.Finalize();
  if (!central.ok()) return central.status();
  // Sketch-based aggregates (QUANTILE) are insertion-order dependent:
  // compare them with a relative tolerance instead of exact equality.
  // (HyperLogLog COUNT DISTINCT is order independent and compares exact.)
  std::vector<std::string> approximate;
  for (const auto& a : query.grouping_sets.aggregates) {
    if (a.fn == query::AggregateFunction::kQuantile) {
      approximate.push_back(a.OutputName());
    }
  }
  return CompareResultTables(report.result, *central, 1e-6, approximate);
}

ValidityReport CompareResultTables(
    const data::Table& distributed, const data::Table& centralized,
    double tolerance, const std::vector<std::string>& approximate_columns,
    double approximate_tolerance) {
  ValidityReport out;
  if (!(distributed.schema() == centralized.schema())) {
    out.detail = "schema mismatch: " + distributed.schema().ToString() +
                 " vs " + centralized.schema().ToString();
    return out;
  }
  if (distributed.num_rows() != centralized.num_rows()) {
    out.detail = "row count mismatch: " +
                 std::to_string(distributed.num_rows()) + " vs " +
                 std::to_string(centralized.num_rows());
    return out;
  }
  data::Table a = distributed;
  data::Table b = centralized;
  a.SortRows();
  b.SortRows();
  for (size_t i = 0; i < a.num_rows(); ++i) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      const data::Value& va = a.row(i)[c];
      const data::Value& vb = b.row(i)[c];
      const std::string& column = a.schema().column(c).name;
      bool approximate =
          std::find(approximate_columns.begin(), approximate_columns.end(),
                    column) != approximate_columns.end();
      double column_tolerance = approximate ? approximate_tolerance
                                            : tolerance;
      if (va.type() == data::ValueType::kDouble &&
          vb.type() == data::ValueType::kDouble) {
        double err = std::abs(va.AsDouble() - vb.AsDouble());
        double scale = std::max(1.0, std::abs(vb.AsDouble()));
        if (!approximate) {
          out.max_abs_error = std::max(out.max_abs_error, err);
        }
        if (err > column_tolerance * scale) {
          out.detail = "numeric mismatch in row " + std::to_string(i) +
                       ", column " + column;
          return out;
        }
      } else if (!(va == vb)) {
        out.detail = "value mismatch in row " + std::to_string(i) +
                     ", column " + a.schema().column(c).name + ": '" +
                     va.ToString() + "' vs '" + vb.ToString() + "'";
        return out;
      }
    }
  }
  out.valid = true;
  out.rows_compared = a.num_rows();
  out.detail = "distributed result equals centralized reference";
  return out;
}

}  // namespace edgelet::core
