#ifndef EDGELET_DATA_COLUMN_TABLE_H_
#define EDGELET_DATA_COLUMN_TABLE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/schema.h"
#include "data/table.h"

namespace edgelet::data {

// Columnar (SoA) relation: one typed vector per schema column, a null
// bitmap per column, and dictionary-encoded strings. It is the engine's
// one working representation of rows: the crowd-scale population (one
// shared slab the host process reads through TableViews), a snapshot
// builder's buffer, the slice it ships, and a computer's input.
//
// Layout per column:
//   INT64  -> std::vector<int64_t>            (8 B/row)
//   DOUBLE -> std::vector<double>             (8 B/row)
//   STRING -> std::vector<uint32_t> codes into an insertion-ordered
//             dictionary (4 B/row + one std::string per distinct value)
//   nulls  -> one bit per row, allocated lazily on the first NULL
//
// Compare with the row store: a 9-column health row costs ~64 B here vs
// ~400+ B as a vector<Value> (variant cells, one heap allocation per
// tuple, per-string heap traffic). At 10M rows that is the difference
// between a ~0.6 GiB slab and a multi-GiB heap.
//
// Appending is streaming and type-checked per cell; a builder fills the
// columns for row i in any column order and seals the row with
// FinishRow(). Materialization back to rows (ValueAt / MaterializeRow /
// ToTable) is bit-exact, and Serialize writes the bytes of
// ToTable().Serialize: the wire format is the row table's, which is what
// keeps execution fingerprints identical to the historical row path.
class ColumnTable {
 public:
  // Sentinel stored in a string column's code vector at NULL positions.
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;

  ColumnTable() = default;
  explicit ColumnTable(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  void Reserve(size_t rows);

  // --- Streaming append (one row at a time) --------------------------------
  // Each cell of the pending row must be appended exactly once (any
  // order); FinishRow() seals it. Type mismatches abort in debug builds
  // and are checked by the safe AppendTuple path.
  void AppendInt64(size_t col, int64_t v);
  void AppendDouble(size_t col, double v);
  void AppendString(size_t col, std::string_view v);
  void AppendNull(size_t col);
  void FinishRow();

  // Appends a row tuple after checking arity and per-column type (NULL
  // fits any column).
  Status AppendTuple(const Tuple& row);

  // --- Typed access --------------------------------------------------------
  bool IsNull(size_t row, size_t col) const {
    const ColumnData& c = columns_[col];
    if (!c.has_nulls) return false;
    // The bitmap is grown lazily, only up to the word holding the last
    // NULL row — rows past its end are non-null by construction.
    const size_t word = row >> 6;
    return word < c.nulls.size() && (c.nulls[word] >> (row & 63)) & 1;
  }
  int64_t Int64At(size_t row, size_t col) const {
    return columns_[col].i64[row];
  }
  double DoubleAt(size_t row, size_t col) const {
    return columns_[col].f64[row];
  }
  std::string_view StringAt(size_t row, size_t col) const {
    const ColumnData& c = columns_[col];
    assert(c.codes[row] != kNullCode && "StringAt on a NULL row; check IsNull");
    return c.dict[c.codes[row]];
  }

  // Raw column vectors for typed scans (query/scan.h). The int64/double
  // vectors hold 0 at NULL positions; consult IsNull / the codes
  // sentinel before trusting a cell.
  const std::vector<int64_t>& Int64Column(size_t col) const {
    return columns_[col].i64;
  }
  const std::vector<double>& DoubleColumn(size_t col) const {
    return columns_[col].f64;
  }
  const std::vector<uint32_t>& StringCodes(size_t col) const {
    return columns_[col].codes;
  }
  // Dictionary of a string column, in first-appearance order.
  const std::vector<std::string>& Dictionary(size_t col) const {
    return columns_[col].dict;
  }
  bool ColumnHasNulls(size_t col) const { return columns_[col].has_nulls; }
  // True iff every appended cell of the column is NULL (vacuously true
  // when empty). O(rows/64) popcount over the null bitmap — cold paths
  // only (predicate compilation).
  bool ColumnAllNull(size_t col) const;

  // Dictionary code of `s` in column `col`, or kNullCode when the value
  // never occurs (useful for equality-predicate fast paths).
  uint32_t DictCode(size_t col, std::string_view s) const;

  // --- Row materialization (the device/wire boundary) ----------------------
  Value ValueAt(size_t row, size_t col) const;
  Tuple MaterializeRow(size_t row) const;

  // Full row-store materialization. O(rows) — compat/test paths only.
  Table ToTable() const;

  // Columnarizes a row table. Fails on cells whose type contradicts the
  // schema (AppendUnchecked'd rows are not pre-validated).
  static Result<ColumnTable> FromTable(const Table& table);

  // --- Wire format ---------------------------------------------------------
  // The bytes of ToTable().Serialize: schema, row count, then each cell as
  // a type tag and its payload.
  void Serialize(Writer* w) const;
  static Result<ColumnTable> Deserialize(Reader* r);

  // Decodes a row section as Serialize writes it after the schema (row
  // count, then the cells) and appends the first `max_append` rows; the
  // rest are still decoded, so a corrupt tail fails the whole section,
  // then dropped. Returns the section's row count. A cell whose tag
  // contradicts its column type is Corruption (NULL fits any column). On
  // error the table is left as it was.
  Result<uint64_t> AppendSerializedRows(Reader* r,
                                        uint64_t max_append = UINT64_MAX);

  // Approximate resident bytes of the slab (columns + dictionaries).
  size_t ApproxBytes() const;

 private:
  // Transparent hashing so dictionary probes take string_view without
  // materializing a std::string per appended row.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct ColumnData {
    ValueType type = ValueType::kNull;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint32_t> codes;
    std::vector<std::string> dict;
    std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
        dict_index;
    std::vector<uint64_t> nulls;  // 1 bit per row; empty until first NULL
    bool has_nulls = false;
    // Rows appended to this column so far (may lead num_rows_ by one
    // while the current row is being built).
    size_t length = 0;
  };

  void SetNullBit(ColumnData* c, size_t row);
  // Appends one cell of column `col`; a non-NULL `v` must have its type.
  void AppendValue(size_t col, const Value& v);
  // Reads one cell of column `col`; appends it unless `append` is false.
  Status ReadCell(Reader* r, size_t col, bool append);
  // Drops every row past the first `rows` (and a partly appended row) and
  // every dictionary entry past `dict_sizes[col]`, leaving the table as it
  // was when it held that many: columns, dictionaries and null bitmaps.
  void Truncate(size_t rows, const std::vector<size_t>& dict_sizes);

  Schema schema_;
  std::vector<ColumnData> columns_;
  size_t num_rows_ = 0;
};

// Immutable window over a shared ColumnTable: either a contiguous row
// range [begin, begin+count) or an explicit selection vector of store
// rows. Copying a view copies a shared_ptr and (for selections) an index
// vector — never cell data. This is what devices hold as "their" rows,
// what predicate scans return, and what the validity-oracle rerun reads:
// the population exists once, in the store.
//
// Lifetime rule: the store is shared_ptr-owned and immutable after
// construction, so a view (and any view derived from it) keeps the slab
// alive and is safe to read from any thread.
class TableView {
 public:
  TableView() = default;
  // View over every row of `store`.
  explicit TableView(std::shared_ptr<const ColumnTable> store);
  // Contiguous window [begin, begin+count); clamped to the store size.
  TableView(std::shared_ptr<const ColumnTable> store, size_t begin,
            size_t count);
  // Explicit selection of store-row indices (order preserved).
  TableView(std::shared_ptr<const ColumnTable> store,
            std::vector<uint32_t> selection);

  size_t num_rows() const {
    return selection_.empty() ? count_ : selection_.size();
  }
  bool empty() const { return num_rows() == 0; }
  const Schema& schema() const;

  const ColumnTable& store() const { return *store_; }
  const std::shared_ptr<const ColumnTable>& store_ptr() const {
    return store_;
  }
  bool has_store() const { return store_ != nullptr; }

  // Store row index backing view row `i`.
  size_t StoreRow(size_t i) const {
    return selection_.empty() ? begin_ + i : selection_[i];
  }
  bool contiguous() const { return selection_.empty(); }
  size_t begin() const { return begin_; }

  // --- Cell access ---------------------------------------------------------
  Value ValueAt(size_t row, size_t col) const {
    return store_->ValueAt(StoreRow(row), col);
  }
  // Table-compatible named-column lookup.
  Result<Value> At(size_t row, std::string_view column) const;

  // --- Derived views (still zero-copy) -------------------------------------
  // Contiguous sub-window of this view.
  TableView Slice(size_t offset, size_t count) const;
  // Narrows to the given *view* rows (composes with an existing
  // selection).
  TableView Select(const std::vector<uint32_t>& view_rows) const;

  // --- Lazy row materialization (the wire boundary) ------------------------
  Tuple MaterializeRow(size_t row) const;
  // Full row table with this view's schema. O(num_rows) — boundary and
  // compat paths only.
  Table ToTable() const;
  // Row table restricted to the named columns, in order. The reference
  // for WireProjection, which writes the same rows without building them.
  Result<Table> ProjectToTable(const std::vector<std::string>& columns) const;

 private:
  std::shared_ptr<const ColumnTable> store_;
  size_t begin_ = 0;
  size_t count_ = 0;
  std::vector<uint32_t> selection_;
};

// A fixed column projection of a store, resolved once into its serialized
// schema section and the store column indices, that then writes rows
// straight from the columns: no Value, Tuple or Table is built. The bytes
// are exactly those of ProjectToTable(columns) followed by
// Table::Serialize — the row section of every contribution message.
class WireProjection {
 public:
  WireProjection() = default;

  // Fails when a column is not in `store_schema`.
  static Result<WireProjection> Resolve(
      const Schema& store_schema, const std::vector<std::string>& columns);

  // Schema section, row count, then the cells of every row of `view`,
  // which must be over a store with the resolved schema.
  void Write(const TableView& view, Writer* w) const;
  // The same for the single store row `row`.
  void WriteRow(const ColumnTable& store, size_t row, Writer* w) const;

 private:
  void WriteCells(const ColumnTable& store, size_t row, Writer* w) const;

  Bytes schema_bytes_;
  std::vector<uint32_t> columns_;  // store column per projected column
};

}  // namespace edgelet::data

#endif  // EDGELET_DATA_COLUMN_TABLE_H_
