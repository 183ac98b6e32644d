#ifndef EDGELET_DATA_TABLE_H_
#define EDGELET_DATA_TABLE_H_

#include <vector>

#include "data/schema.h"
#include "data/value.h"

namespace edgelet::data {

using Tuple = std::vector<Value>;

// Row-oriented relation of Value tuples. The engine works on columns
// (ColumnTable / TableView, data/column_table.h); a row Table is kept for
// the places where rows are the natural shape: query results and reports
// (aggregation Finalize, the combiner's result, FinalResultMsg), the
// ContributionMsg reference that the columnar contribution encoder is
// pinned against, and the row predicate evaluator that the compiled scan
// is tested against. Its Serialize is the wire format of every table on
// the wire, columnar ones included.
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

  // Deterministic order: sorts rows lexicographically by value. Used to
  // compare distributed and centralized results independent of arrival
  // order.
  void SortRows();

  void Serialize(Writer* w) const;
  static Result<Table> Deserialize(Reader* r);

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
