// MICRO — google-benchmark microbenchmarks for the substrate hot paths:
// crypto (the cost every sealed message pays), serialization, aggregate
// merging, the DES event loop, Lloyd steps, and Hungarian matching.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "crypto/aead.h"
#include "crypto/sha256.h"
#include "data/column_table.h"
#include "data/generator.h"
#include "exec/protocol.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "net/simulator.h"
#include "query/groupby.h"
#include "tee/enclave.h"

namespace edgelet {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

// One pairwise-key derivation: HMAC of a 16-byte message under a fixed
// 32-byte key, one-shot (keyed = 0) against a prebuilt key schedule
// (keyed = 1).
void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x5C);
  const crypto::HmacSha256Key schedule(key);
  uint8_t msg[16] = {0};
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(crypto::HmacSha256(key, msg, sizeof(msg)));
    } else {
      benchmark::DoNotOptimize(schedule.Mac(msg, sizeof(msg)));
    }
    ++msg[0];
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmacSha256)->ArgName("keyed")->Arg(0)->Arg(1);

void BM_AeadSeal(benchmark::State& state) {
  crypto::Key256 key{};
  key[0] = 1;
  Bytes payload(state.range(0), 0x42);
  Bytes aad(28, 0x11);
  uint64_t seq = 0;
  for (auto _ : state) {
    auto nonce = crypto::NonceFromSequence(7, seq++);
    benchmark::DoNotOptimize(crypto::AeadSeal(key, nonce, aad, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(128)->Arg(1024)->Arg(8192);

void BM_AeadOpen(benchmark::State& state) {
  crypto::Key256 key{};
  key[0] = 1;
  Bytes payload(state.range(0), 0x42);
  Bytes aad(28, 0x11);
  auto nonce = crypto::NonceFromSequence(7, 1);
  Bytes sealed = crypto::AeadSeal(key, nonce, aad, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::AeadOpen(key, nonce, aad, sealed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(128)->Arg(1024)->Arg(8192);

// The allocation-free variant actually used on the message path: seal into
// a reused scratch buffer. The delta against BM_AeadSeal is the per-message
// allocation + copy overhead of the one-shot API.
void BM_AeadSealInto(benchmark::State& state) {
  crypto::Key256 key{};
  key[0] = 1;
  Bytes payload(state.range(0), 0x42);
  Bytes aad(28, 0x11);
  Bytes scratch;
  uint64_t seq = 0;
  for (auto _ : state) {
    auto nonce = crypto::NonceFromSequence(7, seq++);
    crypto::AeadSealInto(key, nonce, aad.data(), aad.size(), payload.data(),
                         payload.size(), &scratch);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 96 B is a one-row contribution's plaintext: the short-message path that
// takes its one-time key and keystream from one 4-block batch.
BENCHMARK(BM_AeadSealInto)->Arg(96)->Arg(128)->Arg(1024)->Arg(8192);

// Replica fan-out as the actors do it: one encoded plaintext of range(0)
// bytes sealed for each of range(1) recipients through the enclave
// (pairwise-key cache + scratch reuse). Bytes/sec counts every sealed copy
// produced. 8 recipients all hit the key cache; 64, more than it holds,
// make every seal derive its key (a builder's side of the crowd, with a
// contribution-sized plaintext).
void BM_SealFanout(benchmark::State& state) {
  const int recipients = static_cast<int>(state.range(1));
  tee::TrustAuthority authority(42);
  tee::Enclave sender(1, "bench-code", &authority);
  if (!sender.Provision().ok()) {
    state.SkipWithError("provision failed");
    return;
  }
  Bytes payload(state.range(0), 0x42);
  Bytes aad(28, 0x11);
  Bytes scratch;
  uint64_t seq = 0;
  for (auto _ : state) {
    for (int peer = 0; peer < recipients; ++peer) {
      (void)sender.SealForInto(2 + peer, seq, aad.data(), aad.size(),
                               payload, &scratch);
      benchmark::DoNotOptimize(scratch.data());
    }
    ++seq;
  }
  state.SetBytesProcessed(state.iterations() * recipients * state.range(0));
}
BENCHMARK(BM_SealFanout)->Args({1024, 8})->Args({8192, 8})->Args({96, 64});

// One cohort member's contribution to a four-column vertical group, cycling
// over a generated population. encoder=0 is the reference path (one-row
// TableView::ProjectToTable, then ContributionMsg::Encode); encoder=1 is
// the ContributionEncoder every sender uses, writing the same bytes
// straight from the columns.
void BM_EncodeContribution(benchmark::State& state) {
  data::HealthDataParams params;
  params.num_individuals = 4096;
  auto store = std::make_shared<const data::ColumnTable>(
      data::GenerateHealthColumns(params, 1));
  const data::TableView all(store);
  const std::vector<std::string> columns = {"age", "sex", "region", "bmi"};
  auto encoder = exec::ContributionEncoder::Resolve(1, store->schema(),
                                                    {columns});
  if (!encoder.ok()) {
    state.SkipWithError("resolve failed");
    return;
  }
  Writer w;
  size_t row = 0;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      exec::ContributionMsg msg;
      msg.query_id = 1;
      msg.contributor_key = row;
      msg.rows = *all.Slice(row, 1).ProjectToTable(columns);
      benchmark::DoNotOptimize(msg.Encode());
    } else {
      benchmark::DoNotOptimize(
          encoder->EncodeRow(0, row, *store, row, &w).data());
    }
    benchmark::ClobberMemory();
    row = (row + 1) % store->num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeContribution)->ArgName("encoder")->Arg(0)->Arg(1);

void BM_TableSerialize(benchmark::State& state) {
  data::HealthDataParams params;
  params.num_individuals = state.range(0);
  data::Table table = data::GenerateHealthData(params, 1);
  for (auto _ : state) {
    Writer w;
    table.Serialize(&w);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableSerialize)->Arg(10)->Arg(100)->Arg(1000);

void BM_TableDeserialize(benchmark::State& state) {
  data::HealthDataParams params;
  params.num_individuals = state.range(0);
  data::Table table = data::GenerateHealthData(params, 1);
  Writer w;
  table.Serialize(&w);
  for (auto _ : state) {
    Reader r(w.data());
    benchmark::DoNotOptimize(data::Table::Deserialize(&r));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableDeserialize)->Arg(10)->Arg(100)->Arg(1000);

void BM_GroupByCompute(benchmark::State& state) {
  data::HealthDataParams params;
  params.num_individuals = state.range(0);
  const data::TableView table(std::make_shared<const data::ColumnTable>(
      data::GenerateHealthColumns(params, 1)));
  query::GroupBySpec spec{
      {"region", "sex"},
      {{query::AggregateFunction::kCount, "*"},
       {query::AggregateFunction::kAvg, "bmi"},
       {query::AggregateFunction::kVariance, "systolic_bp"}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::GroupedAggregation::Compute(table, spec));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByCompute)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GroupByMerge(benchmark::State& state) {
  data::HealthDataParams params;
  params.num_individuals = 1000;
  const data::TableView table(std::make_shared<const data::ColumnTable>(
      data::GenerateHealthColumns(params, 1)));
  query::GroupBySpec spec{
      {"region", "sex"},
      {{query::AggregateFunction::kCount, "*"},
       {query::AggregateFunction::kAvg, "bmi"}}};
  auto partial = query::GroupedAggregation::Compute(table, spec);
  for (auto _ : state) {
    query::GroupedAggregation acc;
    for (int i = 0; i < 8; ++i) {
      benchmark::DoNotOptimize(acc.Merge(*partial));
    }
  }
}
BENCHMARK(BM_GroupByMerge);

// DES throughput: the events_per_sec counter is the headline number for
// the event-queue rework (slab + generation tombstones vs hash-set
// pending tracking).
void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    net::Simulator sim(1);
    sim.ReserveEvents(state.range(0));
    uint64_t count = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.ScheduleAt(sim.rng().NextBelow(1000000),
                     [&count]() { ++count; });
    }
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorEvents)->Arg(1000)->Arg(10000)->Arg(100000);

// Steady-state event churn: every executed event schedules a successor
// (heartbeats, churn transitions), so slots and queue storage are
// recycled rather than grown.
void BM_SimulatorSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    net::Simulator sim(1);
    const uint64_t target = state.range(0);
    uint64_t count = 0;
    std::function<void()> tick = [&]() {
      if (++count < target) sim.ScheduleAfter(10, tick);
    };
    for (int i = 0; i < 64; ++i) sim.ScheduleAt(i, tick);
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorSelfScheduling)->Arg(10000)->Arg(100000);

// Schedule + cancel half the events (timeout patterns: most deadlines are
// cancelled before they fire).
void BM_SimulatorScheduleCancel(benchmark::State& state) {
  std::vector<uint64_t> ids;
  for (auto _ : state) {
    net::Simulator sim(1);
    sim.ReserveEvents(state.range(0));
    uint64_t count = 0;
    ids.clear();
    for (int i = 0; i < state.range(0); ++i) {
      ids.push_back(sim.ScheduleAt(sim.rng().NextBelow(1000000),
                                   [&count]() { ++count; }));
    }
    for (size_t i = 0; i < ids.size(); i += 2) sim.Cancel(ids[i]);
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorScheduleCancel)->Arg(10000);

// Writer reuse on the message path: Reset() keeps the allocation, so a
// stream of encodes settles into zero allocations.
void BM_WriterReuse(benchmark::State& state) {
  data::HealthDataParams params;
  params.num_individuals = 100;
  data::Table table = data::GenerateHealthData(params, 1);
  Writer w;
  for (auto _ : state) {
    w.Reset();
    table.Serialize(&w);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetBytesProcessed(state.iterations() * w.size());
}
BENCHMARK(BM_WriterReuse);

void BM_VarintEncode(benchmark::State& state) {
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1024; ++i) {
    // Mirror wire reality: mostly small lengths/counters, some large.
    values.push_back(i % 8 == 0 ? rng.NextU64() : rng.NextBelow(128));
  }
  Writer w;
  for (auto _ : state) {
    w.Reset();
    for (uint64_t v : values) w.PutVarint(v);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncode);

void BM_LloydStep(benchmark::State& state) {
  Rng rng(1);
  ml::Matrix points;
  for (int i = 0; i < state.range(0); ++i) {
    points.push_back({rng.NextGaussian(), rng.NextGaussian(),
                      rng.NextGaussian(), rng.NextGaussian()});
  }
  auto init = ml::KMeansPlusPlusInit(points, 8, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::RunLloydStep(points, *init));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LloydStep)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(2);
  const int n = state.range(0);
  ml::Matrix cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (auto& c : row) c = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::HungarianAssign(cost));
  }
}
BENCHMARK(BM_Hungarian)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace edgelet

BENCHMARK_MAIN();
