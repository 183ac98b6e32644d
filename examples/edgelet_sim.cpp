// edgelet_sim — command-line front end for the Edgelet framework: configure
// a crowd, a query, privacy and resiliency knobs from flags; plan, execute
// on the discrete-event simulator, verify, and print everything. This is
// the scriptable equivalent of the demo platform's interactive GUI.
//
//   $ ./examples/edgelet_sim --help
//   $ ./examples/edgelet_sim --query=kmeans --failure-prob=0.2 --trace
//   $ ./examples/edgelet_sim --strategy=backup --separate=region,sex

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/framework.h"

using namespace edgelet;

namespace {

struct Options {
  std::string query = "survey";  // survey | kmeans
  std::string strategy = "overcollection";
  size_t contributors = 400;
  size_t processors = 80;
  uint64_t cardinality = 100;
  uint64_t max_tuples = 25;
  double failure_prob = 0.05;
  double reliability = 0.99;
  double drop_prob = 0.0;
  bool churn = false;
  bool trace = false;
  std::string separate;  // "a,b" pair to keep apart
  uint64_t seed = 1;
  int heartbeats = 8;
};

void PrintUsage() {
  std::printf(
      "edgelet_sim — plan and run one Edgelet query on a simulated crowd\n"
      "\n"
      "  --query=survey|kmeans     query kind (default survey)\n"
      "  --strategy=overcollection|backup\n"
      "  --contributors=N          crowd size (default 400)\n"
      "  --processors=N            processor pool (default 80)\n"
      "  --cardinality=C           snapshot cardinality (default 100)\n"
      "  --max-tuples=N            exposure cap per edgelet (default 25)\n"
      "  --separate=a,b            attribute pair that must not co-reside\n"
      "  --failure-prob=P          presumed AND injected failure rate\n"
      "  --reliability=T           completion target (default 0.99)\n"
      "  --drop-prob=P             per-message loss probability\n"
      "  --churn                   enable device churn\n"
      "  --heartbeats=N            K-Means rounds (default 8)\n"
      "  --trace                   print the execution timeline\n"
      "  --seed=S                  deterministic nonzero seed (default 1)\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0) return false;
    if (std::strcmp(argv[i], "--churn") == 0) {
      opts->churn = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts->trace = true;
    } else if (ParseFlag(argv[i], "query", &value)) {
      opts->query = value;
    } else if (ParseFlag(argv[i], "strategy", &value)) {
      opts->strategy = value;
    } else if (ParseFlag(argv[i], "contributors", &value)) {
      opts->contributors = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "processors", &value)) {
      opts->processors = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "cardinality", &value)) {
      opts->cardinality = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "max-tuples", &value)) {
      opts->max_tuples = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "separate", &value)) {
      opts->separate = value;
    } else if (ParseFlag(argv[i], "failure-prob", &value)) {
      opts->failure_prob = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "reliability", &value)) {
      opts->reliability = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "drop-prob", &value)) {
      opts->drop_prob = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "heartbeats", &value)) {
      opts->heartbeats = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "seed", &value)) {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
      if (opts->seed == 0) {
        // The seed doubles as the query id, and query id 0 is invalid.
        std::fprintf(stderr, "--seed must be nonzero\n\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    PrintUsage();
    return 2;
  }

  core::FrameworkConfig config;
  config.fleet.num_contributors = opts.contributors;
  config.fleet.num_processors = opts.processors;
  config.fleet.enable_churn = opts.churn;
  config.network.drop_probability = opts.drop_prob;
  config.seed = opts.seed;
  core::EdgeletFramework framework(config);
  if (Status s = framework.Init(); !s.ok()) {
    std::fprintf(stderr, "init failed: %s\n", s.ToString().c_str());
    return 1;
  }

  query::Query q;
  q.query_id = opts.seed;
  q.predicates = {{"age", query::CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = opts.cardinality;
  if (opts.query == "kmeans") {
    q.kind = query::QueryKind::kKMeans;
    q.name = "edgelet_sim clustering";
    q.kmeans.k = 4;
    q.kmeans.features = data::HealthNumericFeatures();
    q.kmeans.cluster_aggregates = {
        {query::AggregateFunction::kAvg, "dependency"}};
  } else {
    q.kind = query::QueryKind::kGroupingSets;
    q.name = "edgelet_sim survey";
    q.grouping_sets = query::GroupingSetsSpec{
        {{"region"}, {"sex"}},
        {{query::AggregateFunction::kCount, "*"},
         {query::AggregateFunction::kAvg, "bmi"},
         {query::AggregateFunction::kCountDistinct, "dependency"},
         {query::AggregateFunction::kQuantile, "systolic_bp", 0.5}}};
  }

  core::PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = opts.max_tuples;
  if (!opts.separate.empty()) {
    size_t comma = opts.separate.find(',');
    if (comma == std::string::npos) {
      std::fprintf(stderr, "--separate needs 'a,b'\n");
      return 2;
    }
    privacy.separation = {{opts.separate.substr(0, comma),
                           opts.separate.substr(comma + 1)}};
  }

  resilience::ResilienceConfig resilience{opts.failure_prob,
                                          opts.reliability};
  exec::Strategy strategy = opts.strategy == "backup"
                                ? exec::Strategy::kBackup
                                : exec::Strategy::kOvercollection;

  auto plan = framework.Plan(q, privacy, resilience, strategy);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("plan: %s, n=%d m=%d, %zu vertical group(s), quota=%llu, "
              "crowd needs >= %llu qualifying contributors\n",
              std::string(exec::StrategyName(strategy)).c_str(), plan->n,
              plan->m, plan->vgroup_columns.size(),
              static_cast<unsigned long long>(plan->quota),
              static_cast<unsigned long long>(plan->MinQualifyingCrowd()));
  auto exposure = core::Planner::Exposure(*plan);
  std::printf("%s", exposure.ToString().c_str());

  exec::ExecutionConfig ec;
  ec.collection_window = 2 * kMinute;
  ec.deadline = 15 * kMinute;
  ec.combiner_margin = 90 * kSecond;
  ec.heartbeat_period = 25 * kSecond;
  ec.num_heartbeats = opts.heartbeats;
  ec.inject_failures = opts.failure_prob > 0;
  ec.failure_probability = opts.failure_prob;
  ec.enable_trace = opts.trace;
  ec.seed = opts.seed;

  auto report = framework.Execute(*plan, ec);
  if (!report.ok()) {
    std::fprintf(stderr, "execution failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s after %s — %llu messages (%.1f KiB), %zu devices "
              "killed\n",
              report->success ? "COMPLETED" : "MISSED DEADLINE",
              FormatSimTime(report->completion_time).c_str(),
              static_cast<unsigned long long>(report->messages_sent),
              report->bytes_sent / 1024.0, report->processors_killed);

  if (opts.trace && framework.last_execution() != nullptr &&
      framework.last_execution()->trace() != nullptr) {
    std::printf("\n--- timeline ---\n%s",
                framework.last_execution()->trace()->ToTimeline().c_str());
  }
  if (!report->success) return 1;

  std::printf("\n--- result ---\n%s", report->result.ToString(30).c_str());
  if (q.kind == query::QueryKind::kGroupingSets) {
    auto validity = framework.VerifyGroupingSets(*plan, *report);
    if (validity.ok()) {
      std::printf("\nvalidity (algebraic aggregates vs centralized rerun "
                  "over the same snapshot): %s\n",
                  validity->valid
                      ? "OK"
                      : ("VIOLATED — " + validity->detail).c_str());
    }
  } else {
    auto central = framework.CentralizedKMeans(q);
    auto points = framework.QualifyingPoints(q);
    if (central.ok() && points.ok()) {
      ml::Matrix distributed;
      for (const auto& row : report->result.rows()) {
        std::vector<double> c;
        for (size_t f = 0; f < q.kmeans.features.size(); ++f) {
          c.push_back(row[2 + f].AsDouble());
        }
        distributed.push_back(std::move(c));
      }
      auto ratio =
          ml::InertiaRatio(*points, distributed, central->centroids);
      if (ratio.ok()) {
        std::printf("\naccuracy: inertia ratio %.4f vs centralized\n",
                    *ratio);
      }
    }
  }
  return 0;
}
