#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "data/column_table.h"
#include "data/generator.h"
#include "data/schema.h"
#include "data/table.h"
#include "data/value.h"
#include "query/predicate.h"
#include "query/scan.h"

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
  EXPECT_TRUE(t.Append({Value(int64_t{3}), Value("alice"), Value(8.0)}).ok());
  return t;
}

std::shared_ptr<const ColumnTable> Store(const Table& t) {
  auto ct = ColumnTable::FromTable(t);
  EXPECT_TRUE(ct.ok()) << ct.status().ToString();
  return std::make_shared<const ColumnTable>(std::move(*ct));
}

// --- ColumnTable ------------------------------------------------------------

// Generated health rows with NULLs scattered over every column.
Table HealthTableWithNulls() {
  HealthDataParams params;
  params.num_individuals = 150;
  Table rows = GenerateHealthData(params, 5);
  Table out(rows.schema());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    Tuple row = rows.row(r);
    for (size_t c = 0; c < row.size(); ++c) {
      if ((r * 7 + c * 3) % 11 == 0) row[c] = Value::Null();
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

Table EmptyStringTable() {
  Table t(Schema({{"s", ValueType::kString}, {"n", ValueType::kInt64}}));
  EXPECT_TRUE(t.Append({Value(""), Value(int64_t{1})}).ok());
  EXPECT_TRUE(t.Append({Value::Null(), Value::Null()}).ok());
  EXPECT_TRUE(t.Append({Value(""), Value(int64_t{-2})}).ok());
  return t;
}

Bytes Serialized(const auto& table) {
  Writer w;
  table.Serialize(&w);
  return w.Take();
}

TEST(ColumnTableTest, FromTableToTableRoundTrip) {
  Table t = TestTable();
  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->num_rows(), 3u);
  EXPECT_EQ(ct->num_columns(), 3u);
  EXPECT_EQ(ct->ToTable(), t);

  // The columnar wire format is the row table's, and decodes back. The
  // default-constructed table is what a computer checkpoints before its
  // slice arrives.
  for (const Table& input :
       {t, HealthTableWithNulls(), EmptyStringTable(), Table()}) {
    auto cols = ColumnTable::FromTable(input);
    ASSERT_TRUE(cols.ok());
    const Bytes bytes = Serialized(*cols);
    EXPECT_EQ(bytes, Serialized(input)) << input.schema().ToString();
    Reader r(bytes);
    auto back = ColumnTable::Deserialize(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(back->ToTable(), input);
    EXPECT_EQ(Serialized(*back), bytes);
  }
  EXPECT_EQ(Serialized(ColumnTable()), Serialized(Table()));
}

TEST(ColumnTableTest, RoundTripWithNulls) {
  Table t(TestSchema());
  ASSERT_TRUE(t.Append({Value::Null(), Value("x"), Value(1.0)}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{2}), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(
      t.Append({Value::Null(), Value::Null(), Value::Null()}).ok());
  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  EXPECT_TRUE(ct->IsNull(0, 0));
  EXPECT_FALSE(ct->IsNull(0, 1));
  EXPECT_TRUE(ct->IsNull(1, 1));
  EXPECT_TRUE(ct->IsNull(1, 2));
  EXPECT_EQ(ct->StringCodes(1)[1], ColumnTable::kNullCode);
  EXPECT_EQ(ct->ToTable(), t);
}

// The row section of `t` as Serialize writes it after the schema.
Bytes RowSection(const Table& t) {
  const Bytes all = Serialized(t);
  Reader r(all);
  EXPECT_TRUE(wire::Read<Schema>(&r).ok());
  return Bytes(all.end() - static_cast<ptrdiff_t>(r.remaining()), all.end());
}

TEST(ColumnTableTest, AppendSerializedRowsCapsAndKeepsTableOnError) {
  Table src = TestTable();
  const Bytes rows = RowSection(src);

  // The cap keeps the first rows; the whole section is still consumed.
  ColumnTable t(TestSchema());
  Reader r(rows);
  auto n = t.AppendSerializedRows(&r, 2);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.MaterializeRow(1), src.row(1));
  const Bytes before = Serialized(t);

  // A corrupt tail fails the section and leaves the table as it was.
  Bytes cut(rows.begin(), rows.end() - 3);
  Reader bad(cut);
  EXPECT_FALSE(t.AppendSerializedRows(&bad).ok());
  EXPECT_EQ(Serialized(t), before);

  // So does a cell whose tag contradicts its column, after rows that
  // added NULLs and new dictionary entries; a capped-off row is checked
  // too.
  Table mistyped(TestSchema());
  mistyped.AppendUnchecked({Value(), Value("zoe"), Value()});
  mistyped.AppendUnchecked({Value(int64_t{4}), Value(int64_t{5}), Value(1.0)});
  for (uint64_t cap : {UINT64_MAX, uint64_t{1}}) {
    const Bytes section = RowSection(mistyped);
    Reader typed(section);
    auto st = t.AppendSerializedRows(&typed, cap);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(Serialized(t), before);
    EXPECT_EQ(t.Dictionary(1).size(), 2u);
    EXPECT_EQ(t.DictCode(1, "zoe"), ColumnTable::kNullCode);
    EXPECT_FALSE(t.ColumnHasNulls(0));
    EXPECT_FALSE(t.ColumnHasNulls(2));
  }

  // The table still takes honest rows afterwards.
  Reader again(rows);
  ASSERT_TRUE(t.AppendSerializedRows(&again).ok());
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.MaterializeRow(4), src.row(2));

  // The rollback restores dictionaries and null bitmaps whichever bitmap
  // word the kept rows end in: the rest of the rows then append as if the
  // failed section never came.
  const Table health = HealthTableWithNulls();
  auto whole = ColumnTable::FromTable(health);
  ASSERT_TRUE(whole.ok());
  for (size_t kept : {0, 1, 63, 64, 100}) {
    Table head(health.schema());
    Table tail(health.schema());
    for (size_t r = 0; r < health.num_rows(); ++r) {
      (r < kept ? head : tail).AppendUnchecked(health.row(r));
    }
    Table bad_tail = tail;
    Tuple bad_row = health.row(0);
    bad_row[0] = Value("not an id");
    bad_tail.AppendUnchecked(bad_row);
    auto cols = ColumnTable::FromTable(head);
    ASSERT_TRUE(cols.ok());
    const ColumnTable want = *cols;

    const Bytes bad_section = RowSection(bad_tail);
    Reader bad_reader(bad_section);
    EXPECT_FALSE(cols->AppendSerializedRows(&bad_reader).ok());
    EXPECT_EQ(Serialized(*cols), Serialized(want)) << kept;
    for (size_t c = 0; c < cols->num_columns(); ++c) {
      EXPECT_EQ(cols->Dictionary(c), want.Dictionary(c)) << kept;
      EXPECT_EQ(cols->ColumnHasNulls(c), want.ColumnHasNulls(c)) << kept;
    }

    const Bytes section = RowSection(tail);
    Reader reader(section);
    ASSERT_TRUE(cols->AppendSerializedRows(&reader).ok());
    EXPECT_EQ(Serialized(*cols), Serialized(*whole)) << kept;
    for (size_t c = 0; c < cols->num_columns(); ++c) {
      EXPECT_EQ(cols->Dictionary(c), whole->Dictionary(c)) << kept;
    }
  }
}

TEST(ColumnTableTest, StreamingAppendMatchesFromTable) {
  Table t = TestTable();
  ColumnTable ct(TestSchema());
  ct.Reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    ct.AppendInt64(0, t.row(r)[0].AsInt64());
    ct.AppendString(1, t.row(r)[1].AsString());
    ct.AppendDouble(2, t.row(r)[2].AsDouble());
    ct.FinishRow();
  }
  EXPECT_EQ(ct.ToTable(), t);
}

TEST(ColumnTableTest, AppendTupleValidates) {
  ColumnTable ct(TestSchema());
  EXPECT_TRUE(
      ct.AppendTuple({Value(int64_t{1}), Value("a"), Value(1.0)}).ok());
  // Wrong arity.
  EXPECT_FALSE(ct.AppendTuple({Value(int64_t{1})}).ok());
  // Wrong type.
  EXPECT_FALSE(ct.AppendTuple({Value("x"), Value("a"), Value(1.0)}).ok());
  // NULL fits anywhere.
  EXPECT_TRUE(
      ct.AppendTuple({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(ct.num_rows(), 2u);
}

TEST(ColumnTableTest, DictionaryDeduplicatesAndOrders) {
  Table t = TestTable();  // names: alice, bob, alice
  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  const auto& dict = ct->Dictionary(1);
  ASSERT_EQ(dict.size(), 2u);  // duplicates share one entry
  EXPECT_EQ(dict[0], "alice");  // first-appearance order
  EXPECT_EQ(dict[1], "bob");
  EXPECT_EQ(ct->StringCodes(1)[0], ct->StringCodes(1)[2]);
  EXPECT_EQ(ct->DictCode(1, "bob"), 1u);
  EXPECT_EQ(ct->DictCode(1, "nobody"), ColumnTable::kNullCode);
}

TEST(ColumnTableTest, DictionaryEmptyStringIsARealValue) {
  Table t(Schema({{"s", ValueType::kString}}));
  ASSERT_TRUE(t.Append({Value("")}).ok());
  ASSERT_TRUE(t.Append({Value::Null()}).ok());
  ASSERT_TRUE(t.Append({Value("")}).ok());
  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  // Empty string gets a dictionary slot; NULL gets the sentinel code.
  EXPECT_EQ(ct->Dictionary(0).size(), 1u);
  EXPECT_EQ(ct->StringCodes(0)[0], 0u);
  EXPECT_EQ(ct->StringCodes(0)[1], ColumnTable::kNullCode);
  EXPECT_EQ(ct->StringCodes(0)[2], 0u);
  EXPECT_EQ(ct->ToTable(), t);
}

TEST(ColumnTableTest, EarlyNullThenLongNonNullTail) {
  // The null bitmap grows lazily, only up to the word of the last NULL
  // row. A NULL in row 0 followed by 64+ non-null rows must not read
  // past the (one-word) bitmap. Regression for an out-of-bounds IsNull.
  Table t(TestSchema());
  ASSERT_TRUE(t.Append({Value::Null(), Value::Null(), Value::Null()}).ok());
  for (int64_t i = 1; i < 200; ++i) {
    ASSERT_TRUE(
        t.Append({Value(i), Value("v" + std::to_string(i % 3)), Value(0.5 * i)})
            .ok());
  }
  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  EXPECT_TRUE(ct->IsNull(0, 0));
  for (size_t r = 1; r < 200; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_FALSE(ct->IsNull(r, c)) << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(ct->ToTable(), t);
}

TEST(ColumnTableTest, ColumnAllNull) {
  Table t(TestSchema());
  ASSERT_TRUE(t.Append({Value::Null(), Value("a"), Value::Null()}).ok());
  ASSERT_TRUE(t.Append({Value::Null(), Value::Null(), Value(1.0)}).ok());
  auto ct = ColumnTable::FromTable(t);
  ASSERT_TRUE(ct.ok());
  EXPECT_TRUE(ct->ColumnAllNull(0));   // every cell NULL
  EXPECT_FALSE(ct->ColumnAllNull(1));  // mixed
  EXPECT_FALSE(ct->ColumnAllNull(2));  // mixed
  ColumnTable empty(TestSchema());
  EXPECT_TRUE(empty.ColumnAllNull(0));  // vacuously
}

TEST(ColumnTableTest, FromTableRejectsContradictoryCell) {
  Table t(TestSchema());
  // AppendUnchecked bypasses row-store validation; columnarization must
  // still catch the type contradiction.
  t.AppendUnchecked({Value("oops"), Value("a"), Value(1.0)});
  EXPECT_FALSE(ColumnTable::FromTable(t).ok());
}

TEST(ColumnTableTest, GeneratorColumnarAndRowPathsAgree) {
  HealthDataParams params;
  params.num_individuals = 500;
  ColumnTable cols = GenerateHealthColumns(params, 42);
  Table rows = GenerateHealthData(params, 42);
  EXPECT_EQ(cols.ToTable(), rows);
  EXPECT_GT(cols.ApproxBytes(), 0u);
}

// --- TableView --------------------------------------------------------------

TEST(TableViewTest, FullViewAndAt) {
  auto store = Store(TestTable());
  TableView v(store);
  EXPECT_EQ(v.num_rows(), 3u);
  EXPECT_TRUE(v.contiguous());
  EXPECT_EQ(v.At(1, "name")->AsString(), "bob");
  EXPECT_FALSE(v.At(9, "name").ok());
  EXPECT_FALSE(v.At(0, "zzz").ok());
  EXPECT_EQ(v.ToTable(), store->ToTable());
}

TEST(TableViewTest, SliceIsZeroCopyWindow) {
  auto store = Store(TestTable());
  TableView v(store);
  TableView s = v.Slice(1, 2);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.StoreRow(0), 1u);
  EXPECT_EQ(s.At(0, "id")->AsInt64(), 2);
  // Same underlying slab, not a copy.
  EXPECT_EQ(s.store_ptr().get(), store.get());
  // Out-of-range slices clamp instead of reading past the store.
  EXPECT_EQ(v.Slice(2, 100).num_rows(), 1u);
  EXPECT_EQ(v.Slice(100, 5).num_rows(), 0u);
}

TEST(TableViewTest, SliceRestOfViewWithSizeMax) {
  // Slice(offset, SIZE_MAX) means "the rest"; the clamp must not wrap
  // on offset + count. Exercise both the contiguous and selection paths.
  auto store = Store(TestTable());
  TableView v(store);
  TableView rest = v.Slice(1, SIZE_MAX);
  ASSERT_EQ(rest.num_rows(), 2u);
  EXPECT_EQ(rest.At(0, "id")->AsInt64(), 2);
  TableView picked = v.Select({0, 2});
  TableView picked_rest = picked.Slice(1, SIZE_MAX);
  ASSERT_EQ(picked_rest.num_rows(), 1u);
  EXPECT_EQ(picked_rest.At(0, "id")->AsInt64(), 3);
  // Constructor form with an overflowing count clamps the same way.
  TableView ctor(store, 2, SIZE_MAX);
  EXPECT_EQ(ctor.num_rows(), 1u);
}

TEST(TableViewTest, SelectComposesWithSlice) {
  Table t(Schema({{"id", ValueType::kInt64}}));
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(t.Append({Value(i)}).ok());
  auto store = Store(t);
  TableView window = TableView(store).Slice(2, 6);  // store rows 2..7
  TableView picked = window.Select({1, 3, 5});      // store rows 3, 5, 7
  ASSERT_EQ(picked.num_rows(), 3u);
  EXPECT_FALSE(picked.contiguous());
  EXPECT_EQ(picked.At(0, "id")->AsInt64(), 3);
  EXPECT_EQ(picked.At(2, "id")->AsInt64(), 7);
  // Selecting from a selection composes again.
  TableView again = picked.Select({2});
  ASSERT_EQ(again.num_rows(), 1u);
  EXPECT_EQ(again.At(0, "id")->AsInt64(), 7);
}

TEST(WireProjectionTest, BytesEqualProjectThenSerialize) {
  // NULLs in every column, negative and extreme ints, an empty string.
  Table t(TestSchema());
  ASSERT_TRUE(t.Append({Value(int64_t{-7}), Value(""), Value(-0.0)}).ok());
  ASSERT_TRUE(t.Append({Value(), Value("bob"), Value()}).ok());
  ASSERT_TRUE(
      t.Append({Value(INT64_MIN), Value(), Value(1e300)}).ok());
  ASSERT_TRUE(t.Append({Value(INT64_MAX), Value(std::string(300, 'z')),
                        Value(2.5)})
                  .ok());
  auto store = Store(t);
  TableView all(store);
  const std::vector<std::vector<std::string>> projections = {
      {"id", "name", "score"}, {"score", "id"}, {"name"}};
  for (const auto& columns : projections) {
    auto p = WireProjection::Resolve(store->schema(), columns);
    ASSERT_TRUE(p.ok());
    for (const TableView& view :
         {all, all.Slice(1, 2), all.Select({3, 0}), all.Slice(4, 0)}) {
      Writer want;
      view.ProjectToTable(columns)->Serialize(&want);
      Writer got;
      p->Write(view, &got);
      EXPECT_EQ(got.data(), want.data());
    }
    for (size_t row = 0; row < store->num_rows(); ++row) {
      Writer want;
      all.Slice(row, 1).ProjectToTable(columns)->Serialize(&want);
      Writer got;
      p->WriteRow(*store, row, &got);
      EXPECT_EQ(got.data(), want.data()) << "row " << row;
    }
  }
  EXPECT_FALSE(WireProjection::Resolve(store->schema(), {"nope"}).ok());
}

TEST(TableViewTest, ProjectToTable) {
  auto store = Store(TestTable());
  TableView v = TableView(store).Slice(0, 2);
  auto p = v.ProjectToTable({"score", "name"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_rows(), 2u);
  EXPECT_EQ(p->schema().column(0).name, "score");
  EXPECT_EQ(p->row(1)[1].AsString(), "bob");
  EXPECT_FALSE(v.ProjectToTable({"nope"}).ok());
}

TEST(TableViewTest, EmptyDefaultView) {
  TableView v;
  EXPECT_FALSE(v.has_store());
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.ToTable().num_rows(), 0u);
}

// --- Compiled predicate scans ----------------------------------------------

TEST(ScanTest, ViewScanMatchesRowPath) {
  HealthDataParams params;
  params.num_individuals = 400;
  Table rows = GenerateHealthData(params, 7);
  auto store = std::make_shared<const ColumnTable>(
      GenerateHealthColumns(params, 7));
  std::vector<query::Predicate> preds = {
      {"age", query::CompareOp::kGt, Value(int64_t{65})},
      {"bmi", query::CompareOp::kLt, Value(27.5)},
      {"sex", query::CompareOp::kEq, Value("F")}};
  auto row_result = query::ApplyPredicates(rows, preds);
  ASSERT_TRUE(row_result.ok());
  auto view_result = query::ApplyPredicates(TableView(store), preds);
  ASSERT_TRUE(view_result.ok());
  EXPECT_EQ(view_result->ToTable(), *row_result);
  // The filtered view still shares the population slab.
  EXPECT_EQ(view_result->store_ptr().get(), store.get());
}

TEST(ScanTest, NumericWideningMatchesValueSemantics) {
  Table t(Schema({{"n", ValueType::kInt64}}));
  ASSERT_TRUE(t.Append({Value(int64_t{2})}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{3})}).ok());
  auto store = Store(t);
  // Double literal against an int column widens, like Value::operator<.
  std::vector<query::Predicate> preds = {
      {"n", query::CompareOp::kGt, Value(2.5)}};
  auto got = query::ApplyPredicates(TableView(store), preds);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->num_rows(), 1u);
  EXPECT_EQ(got->At(0, "n")->AsInt64(), 3);
}

TEST(ScanTest, NullsNeverMatch) {
  Table t(TestSchema());
  ASSERT_TRUE(t.Append({Value::Null(), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{9}), Value("a"), Value(1.0)}).ok());
  auto store = Store(t);
  std::vector<query::Predicate> ge0 = {
      {"id", query::CompareOp::kGe, Value(int64_t{0})}};
  auto got = query::ApplyPredicates(TableView(store), ge0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_rows(), 1u);
  // NULL literal: compiled to never_matches, zero rows — same as the row
  // path, which rejects every row against a NULL literal.
  std::vector<query::Predicate> null_lit = {
      {"id", query::CompareOp::kEq, Value::Null()}};
  auto none = query::ApplyPredicates(TableView(store), null_lit);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(ScanTest, CompileErrorsMirrorRowPath) {
  auto store = Store(TestTable());
  TableView v(store);
  // Unknown column.
  EXPECT_FALSE(query::ApplyPredicates(
                   v, {{"ghost", query::CompareOp::kEq, Value(int64_t{1})}})
                   .ok());
  // String column vs numeric literal.
  EXPECT_FALSE(query::ApplyPredicates(
                   v, {{"name", query::CompareOp::kLt, Value(int64_t{1})}})
                   .ok());
}

TEST(ScanTest, AllNullColumnMismatchFiltersToEmptyLikeRowPath) {
  // The row path short-circuits NULL cells to false before its type
  // check, so a mismatched literal over an all-NULL column yields an
  // empty result instead of an error. The compiled path must agree.
  Table t(TestSchema());
  ASSERT_TRUE(t.Append({Value(int64_t{1}), Value::Null(), Value(1.0)}).ok());
  ASSERT_TRUE(t.Append({Value(int64_t{2}), Value::Null(), Value(2.0)}).ok());
  std::vector<query::Predicate> preds = {
      {"name", query::CompareOp::kEq, Value(int64_t{7})}};
  auto row_result = query::ApplyPredicates(t, preds);
  ASSERT_TRUE(row_result.ok());
  EXPECT_EQ(row_result->num_rows(), 0u);
  auto store = Store(t);
  auto view_result = query::ApplyPredicates(TableView(store), preds);
  ASSERT_TRUE(view_result.ok()) << view_result.status().ToString();
  EXPECT_TRUE(view_result->empty());
}

TEST(ScanTest, MatchesRowProbesSingleRows) {
  auto store = Store(TestTable());
  auto compiled = query::CompilePredicates(
      *store, {{"score", query::CompareOp::kGe, Value(8.0)}});
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(query::MatchesRow(*store, 0, *compiled));   // 9.5
  EXPECT_FALSE(query::MatchesRow(*store, 1, *compiled));  // 7.25
  EXPECT_TRUE(query::MatchesRow(*store, 2, *compiled));   // 8.0
}

}  // namespace
}  // namespace edgelet::data
