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
  s.Serialize(&w);
  Reader r(w.data());
  auto back = Schema::Deserialize(&r);
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

TEST(TableTest, Project) {
  Table t = TestTable();
  auto p = t.Project({"name"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_rows(), 3u);
  EXPECT_EQ(p->row(2)[0].AsString(), "carol");
}

TEST(TableTest, Filter) {
  Table t = TestTable();
  Table f = t.Filter([](const Tuple& r) { return r[2].AsDouble() >= 8.0; });
  EXPECT_EQ(f.num_rows(), 2u);
}

TEST(TableTest, ConcatChecksSchema) {
  Table a = TestTable();
  Table b = TestTable();
  EXPECT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 6u);
  Table other(Schema({{"x", ValueType::kInt64}}));
  EXPECT_FALSE(a.Concat(other).ok());
}

TEST(TableTest, SortRowsIsDeterministic) {
  Table t(TestSchema());
  ASSERT_TRUE(t.Append({Value(int64_t{2}), Value("b"), Value(1.0)}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{1}), Value("a"), Value(2.0)}).ok());
  t.SortRows();
  EXPECT_EQ(t.row(0)[0].AsInt64(), 1);
  EXPECT_EQ(t.row(1)[0].AsInt64(), 2);
}

TEST(TableTest, NumericColumn) {
  Table t = TestTable();
  auto c = t.NumericColumn("score");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 3u);
  EXPECT_DOUBLE_EQ((*c)[0], 9.5);
  auto ids = t.NumericColumn("id");
  ASSERT_TRUE(ids.ok());
  EXPECT_DOUBLE_EQ((*ids)[2], 3.0);
  EXPECT_FALSE(t.NumericColumn("name").ok());
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
  TestSchema().Serialize(&w);
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
  Schema().Serialize(&w);
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
  auto s = Schema::Deserialize(&r);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kCorruption);
}

TEST(TableTest, AppendSerializedRowsCapsAndKeepsTableOnError) {
  Table src = TestTable();
  Writer w;
  src.Serialize(&w);
  Reader schema_reader(w.data());
  ASSERT_TRUE(Schema::Deserialize(&schema_reader).ok());
  const size_t rows_at = w.size() - schema_reader.remaining();
  const Bytes rows(w.data().begin() + static_cast<ptrdiff_t>(rows_at),
                   w.data().end());

  // The cap keeps the first rows; the whole section is still consumed.
  Table t(TestSchema());
  Reader r(rows);
  auto n = t.AppendSerializedRows(&r, 2);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.row(1), src.row(1));

  // A corrupt tail fails the section and leaves the table as it was.
  Bytes cut(rows.begin(), rows.end() - 3);
  Reader bad(cut);
  EXPECT_FALSE(t.AppendSerializedRows(&bad).ok());
  EXPECT_EQ(t.num_rows(), 2u);
}

// --- Partitioning ----------------------------------------------------------------

TEST(PartitionTest, HashPartitionCoversAllRows) {
  Table t(Schema({{"id", ValueType::kInt64}}));
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.Append({Value(i)}).ok());
  }
  auto parts = PartitionByHash(t, "id", 7);
  ASSERT_TRUE(parts.ok());
  size_t total = 0;
  for (const auto& p : *parts) total += p.num_rows();
  EXPECT_EQ(total, 1000u);
  // Hash partitioning should be roughly balanced.
  for (const auto& p : *parts) {
    EXPECT_GT(p.num_rows(), 80u);
    EXPECT_LT(p.num_rows(), 220u);
  }
}

TEST(PartitionTest, AssignmentIsStable) {
  EXPECT_EQ(PartitionForKey(12345, 8), PartitionForKey(12345, 8));
}

TEST(PartitionTest, RejectsBadInputs) {
  Table t(Schema({{"id", ValueType::kInt64}}));
  EXPECT_FALSE(PartitionByHash(t, "id", 0).ok());
  EXPECT_FALSE(PartitionByHash(t, "nope", 3).ok());
  Table s(Schema({{"name", ValueType::kString}}));
  EXPECT_FALSE(PartitionByHash(s, "name", 3).ok());
}

TEST(PartitionTest, NullKeyRejected) {
  Table t(Schema({{"id", ValueType::kInt64}}));
  ASSERT_TRUE(t.Append({Value::Null()}).ok());
  EXPECT_FALSE(PartitionByHash(t, "id", 3).ok());
}

TEST(PartitionTest, VerticalGroupsWithAlwaysInclude) {
  Table t = TestTable();
  auto parts =
      PartitionVertically(t, {{"name"}, {"score"}}, {"id"});
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 2u);
  EXPECT_EQ((*parts)[0].schema().ToString(), "(id:INT64, name:STRING)");
  EXPECT_EQ((*parts)[1].schema().ToString(), "(id:INT64, score:DOUBLE)");
  EXPECT_EQ((*parts)[0].num_rows(), 3u);
}

TEST(PartitionTest, VerticalDeduplicatesAlwaysInclude) {
  Table t = TestTable();
  auto parts = PartitionVertically(t, {{"id", "name"}}, {"id"});
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ((*parts)[0].schema().num_columns(), 2u);
}

}  // namespace
}  // namespace edgelet::data
