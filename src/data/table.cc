#include "data/table.h"

#include <algorithm>

namespace edgelet::data {

Status Table::Append(Tuple row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.column(i).name + "': got " +
          std::string(ValueTypeToString(row[i].type())) + ", want " +
          std::string(ValueTypeToString(schema_.column(i).type)));
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Result<Value> Table::At(size_t row_index, std::string_view column) const {
  if (row_index >= rows_.size()) {
    return Status::OutOfRange("row index " + std::to_string(row_index));
  }
  auto idx = schema_.IndexOf(column);
  if (!idx.ok()) return idx.status();
  return rows_[row_index][*idx];
}

void Table::SortRows() {
  std::sort(rows_.begin(), rows_.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  });
}

void Table::Serialize(Writer* w) const {
  wire::Put(w, schema_);
  w->PutVarint(rows_.size());
  for (const auto& r : rows_) {
    for (const auto& v : r) v.Serialize(w);
  }
}

Result<Table> Table::Deserialize(Reader* r) {
  auto schema = wire::Read<Schema>(r);
  if (!schema.ok()) return schema.status();
  Table out(std::move(*schema));
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  const size_t arity = out.schema_.num_columns();
  // Every cell costs at least its tag byte; a zero-column row is charged
  // one byte too, so even an empty schema cannot loop on a hostile count.
  EDGELET_RETURN_NOT_OK(r->CheckCount(*n, arity > 0 ? arity : 1));
  out.rows_.reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    Tuple t;
    t.reserve(arity);
    for (size_t c = 0; c < arity; ++c) {
      auto v = Value::Deserialize(r);
      if (!v.ok()) return v.status();
      t.push_back(std::move(*v));
    }
    out.rows_.push_back(std::move(t));
  }
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString() + "\n";
  size_t shown = std::min(max_rows, rows_.size());
  for (size_t i = 0; i < shown; ++i) {
    for (size_t c = 0; c < rows_[i].size(); ++c) {
      if (c > 0) out += " | ";
      out += rows_[i][c].ToString();
    }
    out += "\n";
  }
  if (shown < rows_.size()) {
    out += "... (" + std::to_string(rows_.size() - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace edgelet::data
