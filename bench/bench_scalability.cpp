// Q2 — "Can any form of computation be handled?" / scalability (paper
// §3.3). The demo claims scalability "demonstrated by the number of
// simulated edgelets". Three phases:
//
//  1. Crowd sweep: fixed plan, growing crowd. Expected shape: messages grow
//     linearly with the crowd; completion time stays roughly flat
//     (collection parallelism); per-edgelet load is constant.
//  2. Engine shard sweep: a --devices N (default 100 000) fleet under the
//     paper's OppNet extreme — intermittent mostly-offline churn,
//     store-and-forward mailboxes with a TTL — replayed on the serial
//     engine and on the window-barrier parallel engine at each --shards
//     count. Reports events/sec per shard count and asserts the delivery
//     fingerprint is identical for every engine (the parsim determinism
//     contract, at bench scale).
//  3. Cohort exec sweep: the same --devices N but as *contributor members*
//     folded --cohort K to a device (one exec::ContributorActor per device
//     hosts its K members), running the full Grouping Sets pipeline end to
//     end on every --shards count. Asserts bit-identical ReportFingerprints
//     across shard counts, and records events/sec, wall ms, and process
//     peak RSS — the 1M+ member configuration whose memory is
//     O(operators + cohorts).
//
// Phases 2 and 3 write events/sec, wall-ms, and speedup-vs-1-shard trend
// lines into the JSON artifact. --baseline PATH records those events/sec
// figures on first run and on later runs exits 1 if any comparable cell
// regressed more than 25% (cells under kBaselineMinWallMs are too noisy to
// gate and are skipped).
//
// Runs on the parallel trial harness (trial_runner.h); --trials N averages
// N seeds per cell (trial 0 reproduces the original fixed-seed run).
// Cross-trial parallelism (--jobs) composes with intra-trial parallelism
// (--shards): each harness worker drives one simulation whose shards are
// themselves worker threads.

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "bench_util.h"
#include "net/parsim/parallel_simulator.h"
#include "trial_runner.h"

using namespace edgelet;

namespace {

struct TrialResult {
  bench::TrialStatus status;
  bool success = false;
  SimTime completion = kSimTimeNever;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  int64_t wall_ms = 0;
};

TrialResult RunOne(size_t crowd, int trial) {
  TrialResult r;
  uint64_t seed = 21 + trial;
  // Keep the plan constant: n=5, quota scales with C so that C tracks
  // the crowd (a survey of ~1/5 of the population).
  uint64_t c_card = crowd / 5;
  core::EdgeletFramework fw(bench::StandardFleet(crowd, 80, seed));
  if (!fw.Init().ok()) {
    r.status = {true, "init"};
    return r;
  }
  query::Query q = bench::SurveyQuery(c_card, seed);
  core::PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = (c_card + 4) / 5;  // n = 5
  auto d = fw.Plan(q, privacy, {0.05, 0.99}, exec::Strategy::kOvercollection);
  if (!d.ok()) {
    r.status = {true, "plan"};
    return r;
  }
  exec::ExecutionConfig ec;
  ec.collection_window = 2 * kMinute;
  ec.deadline = 10 * kMinute;
  ec.inject_failures = false;
  ec.seed = seed - 19;  // trial 0 reproduces the original ec.seed = 2

  bench::WallTimer wall;
  auto report = fw.Execute(*d, ec);
  r.wall_ms = wall.ElapsedMs();
  if (!report.ok()) {
    r.status = {true, "execute"};
    return r;
  }
  r.success = report->success;
  r.completion = report->completion_time;
  r.msgs = report->messages_sent;
  r.bytes = report->bytes_sent;
  return r;
}

// --- Phase 2: engine shard sweep (OppNet extreme) --------------------------

// Churn/latency parameters of the opportunistic configuration. min_latency
// doubles as the parallel engine's lookahead.
constexpr SimDuration kOppMinLatency = 50 * kMillisecond;
constexpr SimDuration kOppMeanExtra = 150 * kMillisecond;
constexpr SimDuration kOppMeanOnline = 15 * kSecond;
constexpr SimDuration kOppMeanOffline = 45 * kSecond;
constexpr SimDuration kOppMailboxTtl = 30 * kSecond;
constexpr SimDuration kOppBeaconPeriod = 5 * kSecond;
constexpr SimDuration kOppHorizon = 60 * kSecond;
constexpr int kOppBeacons = 12;  // per device over the horizon

struct OppNetResult {
  uint64_t events = 0;
  int64_t wall_ms = 0;
  uint64_t delivered = 0;
  uint64_t expired = 0;
  uint64_t fingerprint = 0;
};

// Every device runs a beacon loop on its own timeline: send a small message
// to a ring neighbour every period, through churn, loss, and mailboxes.
// All randomness comes from per-node streams, so the outcome is a pure
// function of (seed, devices) — identical for every engine and shard count.
struct OppNetWorkload {
  net::SimEngine* engine = nullptr;
  net::Network* net = nullptr;
  size_t devices = 0;

  struct Probe : net::Node {
    void OnMessage(const net::Message& msg) override {
      (void)msg;
      ++delivered;
    }
    uint64_t delivered = 0;
  };
  std::vector<Probe> probes;

  void Beacon(net::NodeId id, int remaining) {
    net::Message m;
    m.from = id;
    m.to = id % devices + 1;  // ring neighbour, usually another shard
    m.type = 1;
    m.payload = net->AcquirePayloadBuffer();
    m.payload.resize(16);
    net->Send(std::move(m));
    if (remaining > 1) {
      engine->ScheduleAfter(id, kOppBeaconPeriod,
                            [this, id, remaining]() {
                              Beacon(id, remaining - 1);
                            });
    }
  }
};

OppNetResult RunOppNet(size_t devices, size_t shards, int trial) {
  const uint64_t seed = 97 + trial;
  std::unique_ptr<net::SimEngine> engine;
  if (shards > 1) {
    net::parsim::ParallelSimulator::Options po;
    po.num_shards = shards;
    po.lookahead = kOppMinLatency;
    engine = std::make_unique<net::parsim::ParallelSimulator>(seed, po);
  } else {
    engine = std::make_unique<net::Simulator>(seed);
  }
  engine->ReserveEvents(devices * 4);

  net::NetworkConfig cfg;
  cfg.latency.min_latency = kOppMinLatency;
  cfg.latency.mean_extra = kOppMeanExtra;
  cfg.drop_probability = 0.01;
  cfg.store_and_forward = true;
  cfg.mailbox_ttl = kOppMailboxTtl;
  net::Network network(engine.get(), cfg);

  OppNetWorkload w;
  w.engine = engine.get();
  w.net = &network;
  w.devices = devices;
  w.probes.resize(devices);
  for (size_t i = 0; i < devices; ++i) {
    network.Register(&w.probes[i], net::ChurnModel::Intermittent(
                                       kOppMeanOnline, kOppMeanOffline));
  }
  // Stagger the beacon loops so the event queue is not one giant tie.
  for (net::NodeId id = 1; id <= devices; ++id) {
    engine->ScheduleAt(id, (id * 13) % kOppBeaconPeriod,
                       [&w, id]() { w.Beacon(id, kOppBeacons); });
  }

  bench::WallTimer wall;
  engine->RunUntil(kOppHorizon);  // churn reschedules forever: bound the run
  OppNetResult r;
  r.wall_ms = wall.ElapsedMs();
  r.events = engine->events_executed();

  net::NetworkStats stats = network.stats();
  r.delivered = stats.messages_delivered;
  r.expired = stats.expired_in_mailbox;
  // FNV-1a over everything observable: per-device delivery counts plus the
  // merged network stats. Equal across engines iff the simulations agree.
  uint64_t fp = 1469598103934665603ULL;
  auto mix = [&fp](uint64_t v) {
    fp ^= v;
    fp *= 1099511628211ULL;
  };
  for (const auto& p : w.probes) mix(p.delivered);
  mix(stats.messages_sent);
  mix(stats.messages_delivered);
  mix(stats.dropped_random);
  mix(stats.dropped_sender_offline);
  mix(stats.expired_in_mailbox);
  mix(stats.bytes_delivered);
  r.fingerprint = fp;
  return r;
}

// --- Phases 3 & 4: cohort exec sweeps (1M / 10M member configurations) -----

struct CohortResult {
  bench::TrialStatus status;
  bool success = false;
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  int64_t wall_ms = 0;
  uint64_t members = 0;  // contributors_participating
  long peak_rss_kib = 0;
};

CohortResult RunCohortSweep(size_t members, size_t cohort, size_t shards,
                            int trial) {
  CohortResult r;
  const uint64_t seed = 141 + trial;
  core::FrameworkConfig cfg;
  cfg.fleet.num_contributors = members;
  cfg.fleet.contributor_cohort_size = cohort;
  cfg.fleet.num_processors = 80;
  cfg.fleet.enable_churn = false;
  cfg.seed = seed;
  cfg.sim_shards = shards;
  core::EdgeletFramework fw(cfg);
  if (!fw.Init().ok()) {
    r.status = {true, "init"};
    return r;
  }
  const uint64_t c_card = members / 5;
  query::Query q = bench::SurveyQuery(c_card, seed);
  core::PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = (c_card + 4) / 5;  // n = 5
  auto d = fw.Plan(q, privacy, {0.05, 0.99}, exec::Strategy::kOvercollection);
  if (!d.ok()) {
    r.status = {true, "plan"};
    return r;
  }
  exec::ExecutionConfig ec;
  ec.collection_window = 2 * kMinute;
  ec.deadline = 10 * kMinute;
  ec.inject_failures = false;
  ec.seed = seed - 19;

  bench::WallTimer wall;
  auto report = fw.Execute(*d, ec);
  r.wall_ms = wall.ElapsedMs();
  if (!report.ok()) {
    r.status = {true, "execute"};
    return r;
  }
  r.success = report->success;
  r.fingerprint = exec::ReportFingerprint(*report);
  r.events = fw.sim()->events_executed();
  r.members = report->contributors_participating;
  // Shared sampler (trial_runner.h): VmHWM is monotone per process, so a
  // row reports the high-water mark up to and including its own run —
  // exactly the "peak RSS of the sweep" the memory budget is about.
  r.peak_rss_kib = bench::PeakRssKib();
  return r;
}

struct CohortPhaseOutcome {
  bool deterministic = true;
  bool all_success = true;
  long max_rss_kib = 0;
};

// One cohort-pipeline shard sweep (phases 3 and 4 share this): runs the
// full Grouping Sets pipeline at every shard count, prints the trend
// table, emits JSON rows under `phase_label`, and records events/sec +
// wall + RSS trend cells under "<key_prefix>s<shards>" for the baseline
// gate. Cells run sequentially on purpose: intra-run parallelism is the
// measurement, and cross-trial workers would distort wall clock and RSS.
CohortPhaseOutcome RunCohortPhase(
    const char* phase_label, const char* key_prefix, size_t members,
    size_t cohort, const std::vector<size_t>& shard_counts, int per_cell,
    int* skipped_total, bench::BenchJson* json,
    std::map<std::string, double>* current,
    std::map<std::string, int64_t>* current_wall,
    std::map<std::string, long>* current_rss) {
  const size_t cohort_devices = (members + cohort - 1) / cohort;
  const int shard_cells = static_cast<int>(shard_counts.size());
  std::printf("%8s %12s %10s %12s %8s %10s %11s  %s\n", "shards", "events",
              "wall(ms)", "events/sec", "speedup", "members", "peakRSS",
              "fingerprint");
  bench::PrintRule(95);
  CohortPhaseOutcome out;
  double eps_1shard = 0.0;
  std::vector<CohortResult> ref(per_cell);  // shard_counts[0] runs
  for (int s = 0; s < shard_cells; ++s) {
    uint64_t sum_events = 0, sum_members = 0;
    int64_t sum_wall = 0;
    long rss_kib = 0;
    uint64_t cell_fp = 0;
    for (int t = 0; t < per_cell; ++t) {
      CohortResult r = RunCohortSweep(members, cohort, shard_counts[s], t);
      if (r.status.skipped) {
        ++*skipped_total;
        out.all_success = false;
        std::printf("%8zu skipped (%s)\n", shard_counts[s],
                    r.status.skip_stage);
        continue;
      }
      if (s == 0) ref[t] = r;
      if (r.fingerprint != ref[t].fingerprint) out.deterministic = false;
      if (t == 0) cell_fp = r.fingerprint;
      out.all_success = out.all_success && r.success;
      sum_events += r.events;
      sum_members += r.members;
      sum_wall += r.wall_ms;
      rss_kib = r.peak_rss_kib;
    }
    out.max_rss_kib = std::max(out.max_rss_kib, rss_kib);
    double wall_s = sum_wall / 1000.0 / per_cell;
    double eps = wall_s > 0 ? sum_events / per_cell / wall_s : 0.0;
    if (shard_counts[s] == 1) eps_1shard = eps;
    double speedup = eps_1shard > 0 ? eps / eps_1shard : 0.0;
    std::string key =
        std::string(key_prefix) + "s" + std::to_string(shard_counts[s]);
    (*current)[key] = eps;
    (*current_wall)[key] = sum_wall / per_cell;
    (*current_rss)[key] = rss_kib;
    std::printf("%8zu %12llu %10lld %12.0f %7.2fx %10llu %9ldMiB  %016llx\n",
                shard_counts[s],
                static_cast<unsigned long long>(sum_events / per_cell),
                static_cast<long long>(sum_wall / per_cell), eps, speedup,
                static_cast<unsigned long long>(sum_members / per_cell),
                rss_kib / 1024, static_cast<unsigned long long>(cell_fp));
    json->AddRow(
        {{"phase", bench::JsonStr(phase_label)},
         {"shards", bench::JsonNum(shard_counts[s])},
         {"members", bench::JsonNum(members)},
         {"cohort_size", bench::JsonNum(cohort)},
         {"cohort_devices", bench::JsonNum(cohort_devices)},
         {"mean_events", bench::JsonNum(sum_events / per_cell)},
         {"mean_wall_ms", bench::JsonNum(sum_wall / per_cell)},
         {"events_per_sec", bench::JsonNum(eps)},
         {"speedup_vs_1shard", bench::JsonNum(speedup)},
         {"mean_members_participating",
          bench::JsonNum(sum_members / per_cell)},
         {"peak_rss_kib", bench::JsonNum(rss_kib)},
         {"peak_rss_mib", bench::JsonNum(rss_kib / 1024.0)},
         {"fingerprint", bench::JsonStr(std::to_string(cell_fp))}});
  }
  return out;
}

// --- Perf baseline ---------------------------------------------------------

// Cells whose *baseline-recorded* wall clock is under this are dominated
// by scheduler noise (a concurrent ctest neighbour inflates a 20 ms cell
// 10x) and are never gated; the fingerprint gates still apply at any
// size. Keying the decision on the recorded wall — not the current run's
// — keeps the gate stable under load.
constexpr int64_t kBaselineMinWallMs = 250;
constexpr double kMaxRegression = 0.25;
// Peak-RSS cells below this are dominated by allocator/runtime baseline
// noise (a few MiB either way is not a memory regression); only the
// crowd-scale cohort cells clear the bar and get gated.
constexpr long kBaselineMinRssKib = 64 * 1024;
constexpr double kMaxRssRegression = 0.25;

struct BaselineCell {
  double eps = 0;
  int64_t wall_ms = 0;
  long rss_kib = 0;  // 0 = not recorded (pre-RSS baseline file) — not gated
};

// Plain "key events_per_sec wall_ms [peak_rss_kib]" lines, one per
// (phase, shard) cell. The RSS column is optional so baseline files
// recorded before it existed still load (their RSS simply isn't gated).
std::map<std::string, BaselineCell> LoadBaseline(const std::string& path) {
  std::map<std::string, BaselineCell> cells;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return cells;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char key[64];
    double eps = 0;
    long long wall = 0;
    long rss = 0;
    int n = std::sscanf(line, "%63s %lf %lld %ld", key, &eps, &wall, &rss);
    if (n >= 3) cells[key] = {eps, wall, n >= 4 ? rss : 0};
  }
  std::fclose(f);
  return cells;
}

bool WriteBaseline(const std::string& path,
                   const std::map<std::string, BaselineCell>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [key, cell] : cells) {
    std::fprintf(f, "%s %.1f %lld %ld\n", key.c_str(), cell.eps,
                 static_cast<long long>(cell.wall_ms), cell.rss_kib);
  }
  std::fclose(f);
  return true;
}

// Phase-4 (crowd-scale columnar sweep) configuration; opt-in because a
// 10M-member sweep takes minutes per shard count.
struct Phase4Options {
  bool enabled = false;
  size_t members = 10'000'000;
  size_t cohort = 2048;
  long rss_budget_mib = 6144;  // gated only at >= 1M members
};

// Strips the bench-specific flags (--devices/--shards/--cohort/--baseline/
// --phase4*) so the remainder can go through the shared harness parser.
void ParseShardFlags(int* argc, char** argv, size_t* devices,
                     std::vector<size_t>* shard_counts, size_t* cohort,
                     std::string* baseline_path, Phase4Options* p4) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < *argc) {
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 2) *devices = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--cohort") == 0 && i + 1 < *argc) {
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 1) *cohort = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < *argc) {
      *baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--phase4") == 0) {
      p4->enabled = true;
    } else if (std::strcmp(argv[i], "--p4-members") == 0 && i + 1 < *argc) {
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 2) p4->members = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--p4-cohort") == 0 && i + 1 < *argc) {
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 1) p4->cohort = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--p4-rss-budget-mib") == 0 &&
               i + 1 < *argc) {
      long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 1) p4->rss_budget_mib = v;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < *argc) {
      shard_counts->clear();
      for (char* tok = std::strtok(argv[++i], ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        long v = std::strtol(tok, nullptr, 10);
        if (v >= 1) shard_counts->push_back(static_cast<size_t>(v));
      }
      if (shard_counts->empty()) shard_counts->push_back(1);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

}  // namespace

int main(int argc, char** argv) {
  size_t devices = 100000;
  size_t cohort = 512;
  std::string baseline_path;
  std::vector<size_t> shard_counts = {1, 2, 4, 8};
  Phase4Options p4;
  ParseShardFlags(&argc, argv, &devices, &shard_counts, &cohort,
                  &baseline_path, &p4);
  bench::HarnessOptions opt = bench::ParseHarnessOptions(
      argc, argv, "scalability", /*default_trials=*/1);
  bench::PrintHeader(
      "Q2: scalability with the number of simulated edgelets",
      "Expected: messages ~ linear in contributors; completion time ~ flat "
      "(bounded by the collection window + pipeline latency).");

  const std::vector<size_t> kCrowds = {100, 300, 1000, 3000, 10000};
  const int per_cell = opt.trials;
  const int total = static_cast<int>(kCrowds.size()) * per_cell;

  bench::WallTimer timer;
  bench::TrialExecutor executor(opt.jobs);
  std::vector<TrialResult> results = executor.Map(total, [&](int i) {
    return RunOne(kCrowds[i / per_cell], i % per_cell);
  });

  std::printf("%13s %8s %12s %12s %12s %10s %8s\n", "contributors", "C",
              "done(sim)", "messages", "KiB sent", "wall(ms)", "skipped");
  bench::PrintRule(82);
  bench::BenchJson json("scalability", opt);
  int skipped_total = 0;
  for (size_t c = 0; c < kCrowds.size(); ++c) {
    int completed = 0, skipped = 0, successes = 0;
    SimTime sum_completion = 0;
    uint64_t sum_msgs = 0, sum_bytes = 0;
    int64_t sum_wall = 0;
    for (int t = 0; t < per_cell; ++t) {
      const TrialResult& r = results[c * per_cell + t];
      if (r.status.skipped) {
        ++skipped;
        continue;
      }
      ++completed;
      if (r.success) {
        ++successes;
        sum_completion += r.completion;
      }
      sum_msgs += r.msgs;
      sum_bytes += r.bytes;
      sum_wall += r.wall_ms;
    }
    skipped_total += skipped;
    uint64_t c_card = kCrowds[c] / 5;
    if (completed == 0) {
      std::printf("%13zu %8llu %12s %12s %12s %10s %8d\n", kCrowds[c],
                  static_cast<unsigned long long>(c_card), "-", "-", "-", "-",
                  skipped);
    } else {
      std::printf(
          "%13zu %8llu %12s %12llu %12.1f %10lld %8d\n", kCrowds[c],
          static_cast<unsigned long long>(c_card),
          successes ? FormatSimTime(sum_completion / successes).c_str()
                    : "timeout",
          static_cast<unsigned long long>(sum_msgs / completed),
          sum_bytes / 1024.0 / completed,
          static_cast<long long>(sum_wall / completed), skipped);
    }
    json.AddRow(
        {{"contributors", bench::JsonNum(kCrowds[c])},
         {"snapshot_cardinality", bench::JsonNum(c_card)},
         {"completed", bench::JsonNum(completed)},
         {"skipped", bench::JsonNum(skipped)},
         {"successes", bench::JsonNum(successes)},
         {"mean_completion_sim_us",
          bench::JsonNum(successes ? sum_completion / successes : 0)},
         {"mean_msgs", bench::JsonNum(completed ? sum_msgs / completed : 0)},
         {"mean_kib",
          bench::JsonNum(completed ? sum_bytes / 1024.0 / completed : 0.0)},
         {"mean_wall_ms",
          bench::JsonNum(completed ? sum_wall / completed : int64_t{0})}});
  }
  if (skipped_total > 0) {
    std::printf("\nWARNING: %d trial(s) skipped (Init/Plan/Execute "
                "failure).\n", skipped_total);
  }

  // --- Phase 2: engine shard sweep -----------------------------------------
  bench::PrintHeader(
      "Engine shard sweep: " + std::to_string(devices) +
          "-device OppNet fleet (intermittent churn, store-and-forward, "
          "mailbox TTL)",
      "Same workload on the serial engine (shards=1) and the window-barrier "
      "parallel engine; identical fingerprints, events/sec per shard count.");

  const int shard_cells = static_cast<int>(shard_counts.size());
  std::vector<OppNetResult> opp = executor.Map(
      shard_cells * per_cell, [&](int i) {
        return RunOppNet(devices, shard_counts[i / per_cell], i % per_cell);
      });

  std::printf("%8s %12s %12s %10s %10s %12s %8s  %s\n", "shards", "events",
              "delivered", "expired", "wall(ms)", "events/sec", "speedup",
              "fingerprint");
  bench::PrintRule(95);
  // current[key] / current_wall[key]: the trend-line cells this run
  // produced, keyed "p<phase>s<shards>" for the perf baseline.
  std::map<std::string, double> current;
  std::map<std::string, int64_t> current_wall;
  bool deterministic = true;
  double p2_eps_1shard = 0.0;
  for (int s = 0; s < shard_cells; ++s) {
    uint64_t sum_events = 0, sum_delivered = 0, sum_expired = 0;
    int64_t sum_wall = 0;
    for (int t = 0; t < per_cell; ++t) {
      const OppNetResult& r = opp[s * per_cell + t];
      sum_events += r.events;
      sum_delivered += r.delivered;
      sum_expired += r.expired;
      sum_wall += r.wall_ms;
      // Every engine must agree with the shards=1 run of the same trial.
      if (r.fingerprint != opp[t].fingerprint) deterministic = false;
    }
    double wall_s = sum_wall / 1000.0 / per_cell;
    double eps = wall_s > 0 ? sum_events / per_cell / wall_s : 0.0;
    if (shard_counts[s] == 1) p2_eps_1shard = eps;
    double speedup = p2_eps_1shard > 0 ? eps / p2_eps_1shard : 0.0;
    std::string key = "p2s" + std::to_string(shard_counts[s]);
    current[key] = eps;
    current_wall[key] = sum_wall / per_cell;
    std::printf("%8zu %12llu %12llu %10llu %10lld %12.0f %7.2fx  %016llx\n",
                shard_counts[s],
                static_cast<unsigned long long>(sum_events / per_cell),
                static_cast<unsigned long long>(sum_delivered / per_cell),
                static_cast<unsigned long long>(sum_expired / per_cell),
                static_cast<long long>(sum_wall / per_cell), eps, speedup,
                static_cast<unsigned long long>(opp[s * per_cell].fingerprint));
    json.AddRow(
        {{"phase", bench::JsonStr("oppnet")},
         {"shards", bench::JsonNum(shard_counts[s])},
         {"devices", bench::JsonNum(devices)},
         {"mean_events", bench::JsonNum(sum_events / per_cell)},
         {"mean_delivered", bench::JsonNum(sum_delivered / per_cell)},
         {"mean_expired", bench::JsonNum(sum_expired / per_cell)},
         {"mean_wall_ms", bench::JsonNum(sum_wall / per_cell)},
         {"events_per_sec", bench::JsonNum(eps)},
         {"speedup_vs_1shard", bench::JsonNum(speedup)},
         {"fingerprint",
          bench::JsonStr(std::to_string(opp[s * per_cell].fingerprint))}});
  }
  if (!deterministic) {
    std::printf("\nERROR: engine fingerprints diverge across shard counts — "
                "the parsim determinism contract is broken.\n");
    json.Write(timer.ElapsedMs(), skipped_total);
    return 1;
  }
  std::printf("\nAll engines agree (bit-identical delivery fingerprints).\n");

  // --- Phase 3: cohort exec sweep ------------------------------------------
  bench::PrintHeader(
      "Cohort exec sweep: " + std::to_string(devices) +
          " contributor members folded " + std::to_string(cohort) +
          "-to-a-device (" +
          std::to_string((devices + cohort - 1) / cohort) +
          " cohort super-nodes), full Grouping Sets pipeline",
      "Memory is O(operators + cohorts); the ReportFingerprint must be "
      "bit-identical for every shard count.");
  std::map<std::string, long> current_rss;
  CohortPhaseOutcome p3 = RunCohortPhase(
      "cohort", "p3", devices, cohort, shard_counts, per_cell,
      &skipped_total, &json, &current, &current_wall, &current_rss);
  if (!p3.deterministic) {
    std::printf("\nERROR: cohort ReportFingerprints diverge across shard "
                "counts — the parsim determinism contract is broken.\n");
    json.Write(timer.ElapsedMs(), skipped_total);
    return 1;
  }
  if (!p3.all_success) {
    std::printf("\nERROR: a cohort execution was skipped or missed its "
                "deadline.\n");
    json.Write(timer.ElapsedMs(), skipped_total);
    return 1;
  }
  std::printf("\nAll cohort executions agree (bit-identical "
              "ReportFingerprints).\n");

  // --- Phase 4: crowd-scale columnar sweep (opt-in: --phase4) --------------
  if (p4.enabled) {
    bench::PrintHeader(
        "Columnar crowd sweep: " + std::to_string(p4.members) +
            " contributor members folded " + std::to_string(p4.cohort) +
            "-to-a-device over one shared columnar population store",
        "The population exists once (zero-copy TableViews per device); "
        "peak RSS must stay <= " + std::to_string(p4.rss_budget_mib) +
            " MiB and fingerprints bit-identical across shard counts.");
    CohortPhaseOutcome p4out = RunCohortPhase(
        "columnar_crowd", "p4", p4.members, p4.cohort, shard_counts,
        per_cell, &skipped_total, &json, &current, &current_wall,
        &current_rss);
    if (!p4out.deterministic) {
      std::printf("\nERROR: columnar-crowd ReportFingerprints diverge "
                  "across shard counts.\n");
      json.Write(timer.ElapsedMs(), skipped_total);
      return 1;
    }
    if (!p4out.all_success) {
      std::printf("\nERROR: a columnar-crowd execution was skipped or "
                  "missed its deadline.\n");
      json.Write(timer.ElapsedMs(), skipped_total);
      return 1;
    }
    // The memory acceptance bar: at crowd scale (>= 1M members) the whole
    // sweep must fit the budget. Small --p4-members smoke runs exercise
    // the code path without gating on allocator noise.
    if (p4.members >= 1'000'000 &&
        p4out.max_rss_kib > p4.rss_budget_mib * 1024) {
      std::printf("\nERROR: columnar-crowd peak RSS %ld MiB exceeds the "
                  "%ld MiB budget.\n",
                  p4out.max_rss_kib / 1024, p4.rss_budget_mib);
      json.Write(timer.ElapsedMs(), skipped_total);
      return 1;
    }
    std::printf("\nAll columnar-crowd executions agree (bit-identical "
                "ReportFingerprints); peak RSS %ld MiB (budget %ld MiB).\n",
                p4out.max_rss_kib / 1024, p4.rss_budget_mib);
  }

  // --- Perf baseline: record on first run, gate on later runs --------------
  int exit_code = 0;
  if (!baseline_path.empty()) {
    std::map<std::string, BaselineCell> baseline = LoadBaseline(baseline_path);
    if (baseline.empty()) {
      std::map<std::string, BaselineCell> record;
      for (const auto& [key, eps] : current) {
        long rss = current_rss.count(key) ? current_rss[key] : 0;
        record[key] = {eps, current_wall[key], rss};
      }
      if (WriteBaseline(baseline_path, record)) {
        std::printf("\n[baseline recorded: %s]\n", baseline_path.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot write baseline %s\n",
                     baseline_path.c_str());
      }
    } else {
      for (const auto& [key, eps] : current) {
        auto it = baseline.find(key);
        if (it == baseline.end()) continue;
        // Gate only cells that measured >= kBaselineMinWallMs both when the
        // baseline was recorded and now: a smoke-sized cell (baseline wall
        // under the bar) can be inflated 10x by a concurrent ctest neighbour
        // on a loaded box, and that is noise, not a regression.
        if (it->second.wall_ms < kBaselineMinWallMs ||
            current_wall[key] < kBaselineMinWallMs) {
          std::printf("[baseline %s: %.0f vs %.0f events/sec — cell under "
                      "%lld ms, not gated]\n",
                      key.c_str(), eps, it->second.eps,
                      static_cast<long long>(kBaselineMinWallMs));
          continue;
        }
        double floor = it->second.eps * (1.0 - kMaxRegression);
        if (eps < floor) {
          std::printf("ERROR: %s regressed: %.0f events/sec vs baseline "
                      "%.0f (floor %.0f)\n",
                      key.c_str(), eps, it->second.eps, floor);
          exit_code = 1;
        } else {
          std::printf("[baseline %s: %.0f vs %.0f events/sec — ok]\n",
                      key.c_str(), eps, it->second.eps);
        }
        // Memory gate: a cell whose recorded peak RSS was big enough to
        // be signal (>= kBaselineMinRssKib) may not grow more than 25%.
        long rss_now = current_rss.count(key) ? current_rss[key] : 0;
        if (it->second.rss_kib >= kBaselineMinRssKib && rss_now > 0) {
          double rss_ceiling =
              it->second.rss_kib * (1.0 + kMaxRssRegression);
          if (static_cast<double>(rss_now) > rss_ceiling) {
            std::printf("ERROR: %s peak RSS regressed: %ld MiB vs baseline "
                        "%ld MiB (ceiling %.0f MiB)\n",
                        key.c_str(), rss_now / 1024,
                        it->second.rss_kib / 1024, rss_ceiling / 1024);
            exit_code = 1;
          } else {
            std::printf("[baseline %s: %ld vs %ld MiB peak RSS — ok]\n",
                        key.c_str(), rss_now / 1024,
                        it->second.rss_kib / 1024);
          }
        }
      }
    }
  }

  json.Write(timer.ElapsedMs(), skipped_total);
  return exit_code;
}
