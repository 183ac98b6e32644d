#include <gtest/gtest.h>

#include "data/partition.h"
#include "data/schema.h"
#include "data/table.h"
#include "data/value.h"

namespace edgelet::data {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

Table TestTable() {
  Table t(TestSchema());
  EXPECT_TRUE(t.Append({Value(int64_t{1}), Value("alice"), Value(9.5)}).ok());
  EXPECT_TRUE(t.Append({Value(int64_t{2}), Value("bob"), Value(7.25)}).ok());
  EXPECT_TRUE(t.Append({Value(int64_t{3}), Value("carol"), Value(8.0)}).ok());
  return t;
}

// --- Value ------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, ToDouble) {
  EXPECT_DOUBLE_EQ(*Value(int64_t{3}).ToDouble(), 3.0);
  EXPECT_DOUBLE_EQ(*Value(1.5).ToDouble(), 1.5);
  EXPECT_FALSE(Value("x").ToDouble().ok());
  EXPECT_FALSE(Value::Null().ToDouble().ok());
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(1.5), Value(int64_t{2}));
  EXPECT_LT(Value(int64_t{1}), Value(1.5));
  EXPECT_LT(Value(int64_t{5}), Value("a"));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, EqualityAndHash) {
  EXPECT_EQ(Value(int64_t{7}), Value(int64_t{7}));
  EXPECT_NE(Value(int64_t{7}), Value(7.0));  // different types
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_NE(Value("x").Hash(), Value("y").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, SerializationRoundTrip) {
  std::vector<Value> values = {Value::Null(), Value(int64_t{-5}),
                               Value(int64_t{1} << 40), Value(3.25),
                               Value(""), Value("héllo")};
  Writer w;
  for (const auto& v : values) v.Serialize(&w);
  Reader r(w.data());
  for (const auto& v : values) {
    auto got = Value::Deserialize(&r);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueTest, DeserializeRejectsBadTag) {
  Bytes b = {9};
  Reader r(b);
  EXPECT_FALSE(Value::Deserialize(&r).ok());
}

// --- Schema -----------------------------------------------------------------

TEST(SchemaTest, IndexOfAndContains) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.IndexOf("name"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").ok());
  EXPECT_TRUE(s.Contains("score"));
  EXPECT_FALSE(s.Contains("bogus"));
}

TEST(SchemaTest, Project) {
  Schema s = TestSchema();
  auto p = s.Project({"score", "id"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 2u);
  EXPECT_EQ(p->column(0).name, "score");
  EXPECT_EQ(p->column(1).name, "id");
  EXPECT_FALSE(s.Project({"nope"}).ok());
}

TEST(SchemaTest, SerializationRoundTrip) {
  Schema s = TestSchema();
  Writer w;
  wire::Put(&w, s);
  Reader r(w.data());
  auto back = wire::Read<Schema>(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, s);
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, AppendValidates) {
  Table t(TestSchema());
  EXPECT_TRUE(t.Append({Value(int64_t{1}), Value("a"), Value(1.0)}).ok());
  // Wrong arity.
  EXPECT_FALSE(t.Append({Value(int64_t{1})}).ok());
  // Wrong type.
  EXPECT_FALSE(t.Append({Value("x"), Value("a"), Value(1.0)}).ok());
  // NULL fits anywhere.
  EXPECT_TRUE(t.Append({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, At) {
  Table t = TestTable();
  EXPECT_EQ(t.At(1, "name")->AsString(), "bob");
  EXPECT_FALSE(t.At(9, "name").ok());
  EXPECT_FALSE(t.At(0, "zzz").ok());
}

TEST(TableTest, SortRowsIsDeterministic) {
  Table t(TestSchema());
  ASSERT_TRUE(t.Append({Value(int64_t{2}), Value("b"), Value(1.0)}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{1}), Value("a"), Value(2.0)}).ok());
  t.SortRows();
  EXPECT_EQ(t.row(0)[0].AsInt64(), 1);
  EXPECT_EQ(t.row(1)[0].AsInt64(), 2);
}

TEST(TableTest, SerializationRoundTrip) {
  Table t = TestTable();
  Writer w;
  t.Serialize(&w);
  Reader r(w.data());
  auto back = Table::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TableTest, DeserializeTruncatedFails) {
  Table t = TestTable();
  Writer w;
  t.Serialize(&w);
  Bytes truncated(w.data().begin(), w.data().begin() + w.size() / 2);
  Reader r(truncated);
  EXPECT_FALSE(Table::Deserialize(&r).ok());
}

// A wire count the input cannot back must fail cleanly: sizing a container
// from it would throw std::bad_alloc (or loop for hours) instead.
constexpr uint64_t kHostileCount = uint64_t{1} << 40;

TEST(TableTest, HostileRowCountRejected) {
  Writer w;
  wire::Put(&w, TestSchema());
  w.PutVarint(kHostileCount);
  Value(int64_t{1}).Serialize(&w);
  Value("x").Serialize(&w);
  Value(1.0).Serialize(&w);
  Reader r(w.data());
  auto t = Table::Deserialize(&r);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kCorruption);
}

TEST(TableTest, HostileRowCountRejectedForZeroColumnSchema) {
  // No cells to run out of: each zero-column row is charged one byte.
  Writer w;
  wire::Put(&w, Schema());
  w.PutVarint(kHostileCount);
  Reader r(w.data());
  EXPECT_FALSE(Table::Deserialize(&r).ok());
}

TEST(SchemaTest, HostileColumnCountRejected) {
  Writer w;
  w.PutVarint(kHostileCount);
  w.PutString("a");
  w.PutU8(static_cast<uint8_t>(ValueType::kInt64));
  Reader r(w.data());
  auto s = wire::Read<Schema>(&r);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kCorruption);
}

// --- Partitioning ----------------------------------------------------------------

TEST(PartitionTest, HashPartitionCoversAllRows) {
  std::vector<size_t> counts(7, 0);
  for (uint64_t key = 0; key < 1000; ++key) {
    const uint32_t p = PartitionForKey(key, 7);
    ASSERT_LT(p, 7u);
    ++counts[p];
  }
  // Hash partitioning should be roughly balanced.
  for (size_t n : counts) {
    EXPECT_GT(n, 80u);
    EXPECT_LT(n, 220u);
  }
}

TEST(PartitionTest, AssignmentIsStable) {
  EXPECT_EQ(PartitionForKey(12345, 8), PartitionForKey(12345, 8));
}

}  // namespace
}  // namespace edgelet::data
