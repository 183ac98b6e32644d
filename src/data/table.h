#ifndef EDGELET_DATA_TABLE_H_
#define EDGELET_DATA_TABLE_H_

#include <functional>
#include <vector>

#include "data/schema.h"
#include "data/value.h"

namespace edgelet::data {

using Tuple = std::vector<Value>;

// Row-oriented in-memory relation: the engine's *boundary* format. Wire
// messages, per-operator partitions, and aggregation outputs are small
// (C/n tuples, typically hundreds), so a simple row store is the right
// representation there. Bulk population data lives in the columnar
// ColumnTable (data/column_table.h) and is read through TableViews; rows
// are materialized from it lazily, at the device/wire boundary only —
// the engine never holds the full crowd dataset as tuples.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  // Appends a row after checking arity and per-column type (NULL fits any
  // column).
  Status Append(Tuple row);
  // Appends without validation (trusted internal paths).
  void AppendUnchecked(Tuple row) { rows_.push_back(std::move(row)); }

  void Reserve(size_t n) { rows_.reserve(n); }
  void Clear() { rows_.clear(); }

  // Value of the named column in row i.
  Result<Value> At(size_t row_index, std::string_view column) const;

  // New table with only the named columns, in order.
  Result<Table> Project(const std::vector<std::string>& columns) const;

  // New table with rows satisfying `pred`.
  Table Filter(const std::function<bool(const Tuple&)>& pred) const;

  // Appends all rows of `other`; schemas must match exactly.
  Status Concat(const Table& other);
  // Move-append: steals `other`'s rows (leaving it empty) instead of
  // copying every tuple. The fast path when the receiver is still empty is
  // a plain vector move.
  Status Concat(Table&& other);

  // Deterministic order: sorts rows lexicographically by value. Used to
  // compare distributed and centralized results independent of arrival
  // order.
  void SortRows();

  // Column as doubles (int64 widened); fails on strings/NULL.
  Result<std::vector<double>> NumericColumn(std::string_view column) const;

  void Serialize(Writer* w) const;
  static Result<Table> Deserialize(Reader* r);

  // Decodes a row section as Serialize writes it after the schema (row
  // count, then the cells) under this table's schema, and appends the
  // first `max_append` rows; the rest are still decoded, so a corrupt tail
  // fails the whole section, then dropped. Returns the section's row
  // count. On error the table is left as it was.
  Result<uint64_t> AppendSerializedRows(Reader* r,
                                        uint64_t max_append = UINT64_MAX);

  bool operator==(const Table& other) const {
    return schema_ == other.schema_ && rows_ == other.rows_;
  }

  // Pretty grid rendering (up to max_rows rows).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace edgelet::data

#endif  // EDGELET_DATA_TABLE_H_
