#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "data/table.h"

namespace edgelet {
namespace {

// --- hashing -----------------------------------------------------------------

TEST(HashTest, Fnv1aKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171F73967E8ULL);
}

TEST(HashTest, Mix64AvalanchesSequentialInputs) {
  // Sequential ids must map to well-spread values: check that flipping the
  // low bit flips roughly half the output bits.
  int total_flips = 0;
  const int kPairs = 200;
  for (uint64_t i = 0; i < kPairs; ++i) {
    uint64_t diff = Mix64(2 * i) ^ Mix64(2 * i + 1);
    total_flips += __builtin_popcountll(diff);
  }
  double mean_flips = static_cast<double>(total_flips) / kPairs;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(HashTest, HashCombineOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

// --- flat hash table ------------------------------------------------------------

// Keys whose home slot is `home` in a table of `capacity` slots, in
// increasing order, skipping key 0.
std::vector<uint64_t> KeysWithHome(size_t home, size_t capacity, size_t n) {
  std::vector<uint64_t> out;
  for (uint64_t k = 1; out.size() < n; ++k) {
    if ((Mix64(k) & (capacity - 1)) == home) out.push_back(k);
  }
  return out;
}

// Every key of `ref` is found with its value and no other key is present.
void ExpectSameContents(const FlatTable64<uint64_t>& table,
                        const std::unordered_map<uint64_t, uint64_t>& ref,
                        const std::vector<uint64_t>& universe) {
  ASSERT_EQ(table.size(), ref.size());
  for (uint64_t k : universe) {
    const uint64_t* v = table.Find(k);
    auto it = ref.find(k);
    if (it == ref.end()) {
      EXPECT_EQ(v, nullptr) << "stale key " << k;
    } else {
      ASSERT_NE(v, nullptr) << "lost key " << k;
      EXPECT_EQ(*v, it->second) << "key " << k;
    }
  }
}

// Random inserts, overwrites, erases and finds against std::unordered_map.
// The key universe is small, so keys are erased and re-inserted many
// times. It holds key 0 (stored out of line) and a cluster whose home is
// the last slot of a 16-slot table: with 7 to 12 entries the table has 16
// slots, and that cluster's probe run wraps to the front of the array.
TEST(FlatTableTest, MatchesUnorderedMapUnderRandomOps) {
  std::vector<uint64_t> universe = KeysWithHome(15, 16, 6);
  for (uint64_t k : KeysWithHome(0, 16, 3)) universe.push_back(k);
  universe.push_back(0);
  for (uint64_t k = 1; universe.size() < 24; ++k) universe.push_back(k << 40);
  FlatTable64<uint64_t> table;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = universe[rng.NextBelow(universe.size())];
    switch (rng.NextBelow(3)) {
      case 0: {
        bool inserted;
        table.FindOrInsert(key, &inserted) = static_cast<uint64_t>(step);
        EXPECT_EQ(inserted, ref.count(key) == 0);
        ref[key] = static_cast<uint64_t>(step);
        break;
      }
      case 1: {
        uint64_t out = ~uint64_t{0};
        const bool erased = table.Erase(key, &out);
        auto it = ref.find(key);
        ASSERT_EQ(erased, it != ref.end()) << "key " << key;
        if (erased) {
          EXPECT_EQ(out, it->second);
          ref.erase(it);
        }
        break;
      }
      default:
        EXPECT_EQ(table.Contains(key), ref.count(key) == 1);
    }
    ExpectSameContents(table, ref, universe);
  }
}

// Erasing inside a probe run that wraps the slot array keeps every later
// entry of the run reachable, in any erase order, and erased keys can be
// re-inserted.
TEST(FlatTableTest, EraseInsideWrappingProbeRun) {
  // Eight keys keep the table at 16 slots; five share home slot 15, so
  // they occupy slots 15, 0, 1, 2, 3, and the three with home 0 are pushed
  // behind them.
  std::vector<uint64_t> keys = KeysWithHome(15, 16, 5);
  for (uint64_t k : KeysWithHome(0, 16, 3)) keys.push_back(k);
  for (size_t first = 0; first < keys.size(); ++first) {
    FlatTable64<uint64_t> table;
    std::unordered_map<uint64_t, uint64_t> ref;
    bool inserted;
    for (uint64_t k : keys) {
      table.FindOrInsert(k, &inserted) = k * 3;
      ref[k] = k * 3;
    }
    // Erase starting at `first`, wrapping around the key list, then put
    // every key back.
    for (size_t i = 0; i < keys.size(); ++i) {
      const uint64_t k = keys[(first + i) % keys.size()];
      ASSERT_TRUE(table.Erase(k));
      EXPECT_FALSE(table.Erase(k));
      ref.erase(k);
      ExpectSameContents(table, ref, keys);
    }
    for (uint64_t k : keys) {
      table.FindOrInsert(k, &inserted) = k * 3;
      EXPECT_TRUE(inserted);
      ref[k] = k * 3;
    }
    ExpectSameContents(table, ref, keys);
  }
  FlatSet64 set;
  EXPECT_FALSE(set.Erase(0));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_TRUE(set.Erase(0));
  EXPECT_EQ(set.size(), 0u);
}

// --- sim time ------------------------------------------------------------------

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(FormatSimTime(500), "500us");
  EXPECT_EQ(FormatSimTime(1500), "1.500ms");
  EXPECT_EQ(FormatSimTime(2 * kSecond + 250 * kMillisecond), "2.250s");
  EXPECT_EQ(FormatSimTime(kSimTimeNever), "never");
}

TEST(SimTimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(1500 * kMillisecond), 1.5);
  EXPECT_EQ(FromSeconds(2.5), 2 * kSecond + 500 * kMillisecond);
  EXPECT_EQ(FromSeconds(-1.0), 0u);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
}

// --- logging -------------------------------------------------------------------

TEST(LoggingTest, LevelGateDropsBelowThreshold) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluated = 0;
  auto count = [&evaluated]() {
    ++evaluated;
    return "x";
  };
  EDGELET_LOG(kDebug) << count();  // gated: operand never evaluated
  EXPECT_EQ(evaluated, 0);
  SetLogLevel(LogLevel::kTrace);
  EDGELET_LOG(kDebug) << count();
  EXPECT_EQ(evaluated, 1);
  SetLogLevel(old_level);
}

TEST(LoggingTest, SetGetRoundTrip) {
  LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
  SetLogLevel(old_level);
}

// --- randomized serialization property sweep --------------------------------------

data::Value RandomValue(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0:
      return data::Value::Null();
    case 1:
      return data::Value(rng->NextInt(-1000000, 1000000));
    case 2:
      return data::Value(rng->NextGaussian(0, 1e6));
    default: {
      std::string s;
      size_t len = rng->NextBelow(20);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->NextInt(32, 126)));
      }
      return data::Value(std::move(s));
    }
  }
}

class TableSerializationProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(TableSerializationProperty, RandomTablesRoundTrip) {
  Rng rng(GetParam());
  // Random schema.
  size_t num_cols = 1 + rng.NextBelow(6);
  std::vector<data::Column> cols;
  for (size_t c = 0; c < num_cols; ++c) {
    data::ValueType t = static_cast<data::ValueType>(1 + rng.NextBelow(3));
    cols.push_back({"c" + std::to_string(c), t});
  }
  data::Table table{data::Schema(cols)};
  size_t rows = rng.NextBelow(50);
  for (size_t i = 0; i < rows; ++i) {
    data::Tuple t;
    for (size_t c = 0; c < num_cols; ++c) {
      // Respect the declared type (or NULL).
      if (rng.NextBernoulli(0.1)) {
        t.push_back(data::Value::Null());
        continue;
      }
      switch (cols[c].type) {
        case data::ValueType::kInt64:
          t.push_back(data::Value(rng.NextInt(-1e9, 1e9)));
          break;
        case data::ValueType::kDouble:
          t.push_back(data::Value(rng.NextGaussian()));
          break;
        default:
          t.push_back(RandomValue(&rng));
          // Coerce to string if the random value has the wrong type.
          if (t.back().type() != data::ValueType::kString &&
              !t.back().is_null()) {
            t.back() = data::Value(t.back().ToString());
          }
          break;
      }
    }
    table.AppendUnchecked(std::move(t));
  }

  Writer w;
  table.Serialize(&w);
  Reader r(w.data());
  auto back = data::Table::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, table);
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableSerializationProperty,
                         ::testing::Range<uint64_t>(1, 21));

class ValueOrderingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueOrderingProperty, StrictWeakOrdering) {
  Rng rng(GetParam() * 31);
  std::vector<data::Value> values;
  for (int i = 0; i < 40; ++i) values.push_back(RandomValue(&rng));
  // Irreflexivity + asymmetry + hash/equality consistency.
  for (const auto& a : values) {
    EXPECT_FALSE(a < a);
    for (const auto& b : values) {
      if (a < b) {
        EXPECT_FALSE(b < a);
      }
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash());
        EXPECT_FALSE(a < b);
        EXPECT_FALSE(b < a);
      }
    }
  }
  // Sortable without UB and stable result.
  std::sort(values.begin(), values.end(),
            [](const data::Value& a, const data::Value& b) { return a < b; });
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_FALSE(values[i] < values[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueOrderingProperty,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace edgelet
