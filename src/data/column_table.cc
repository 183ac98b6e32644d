#include "data/column_table.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace edgelet::data {

namespace {

// One cell as Value::Serialize writes it: the type tag, then the payload.
void WriteCell(const ColumnTable& store, size_t row, size_t col, Writer* w) {
  const ValueType type = store.IsNull(row, col)
                             ? ValueType::kNull
                             : store.schema().column(col).type;
  w->PutU8(static_cast<uint8_t>(type));
  switch (type) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      w->PutVarintSigned(store.Int64At(row, col));
      break;
    case ValueType::kDouble:
      w->PutDouble(store.DoubleAt(row, col));
      break;
    case ValueType::kString:
      w->PutString(store.StringAt(row, col));
      break;
  }
}

}  // namespace

ColumnTable::ColumnTable(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].type = schema_.column(c).type;
  }
}

void ColumnTable::Reserve(size_t rows) {
  for (ColumnData& c : columns_) {
    switch (c.type) {
      case ValueType::kInt64:
        c.i64.reserve(rows);
        break;
      case ValueType::kDouble:
        c.f64.reserve(rows);
        break;
      case ValueType::kString:
        c.codes.reserve(rows);
        break;
      case ValueType::kNull:
        break;
    }
  }
}

void ColumnTable::SetNullBit(ColumnData* c, size_t row) {
  if (!c->has_nulls) c->has_nulls = true;
  size_t word = row >> 6;
  if (c->nulls.size() <= word) c->nulls.resize(word + 1, 0);
  c->nulls[word] |= uint64_t{1} << (row & 63);
}

void ColumnTable::AppendInt64(size_t col, int64_t v) {
  ColumnData& c = columns_[col];
  assert(c.type == ValueType::kInt64 && c.length == num_rows_);
  c.i64.push_back(v);
  ++c.length;
}

void ColumnTable::AppendDouble(size_t col, double v) {
  ColumnData& c = columns_[col];
  assert(c.type == ValueType::kDouble && c.length == num_rows_);
  c.f64.push_back(v);
  ++c.length;
}

void ColumnTable::AppendString(size_t col, std::string_view v) {
  ColumnData& c = columns_[col];
  assert(c.type == ValueType::kString && c.length == num_rows_);
  auto it = c.dict_index.find(v);
  uint32_t code;
  if (it == c.dict_index.end()) {
    code = static_cast<uint32_t>(c.dict.size());
    c.dict.emplace_back(v);
    c.dict_index.emplace(c.dict.back(), code);
  } else {
    code = it->second;
  }
  c.codes.push_back(code);
  ++c.length;
}

void ColumnTable::AppendNull(size_t col) {
  ColumnData& c = columns_[col];
  assert(c.length == num_rows_);
  switch (c.type) {
    case ValueType::kInt64:
      c.i64.push_back(0);
      break;
    case ValueType::kDouble:
      c.f64.push_back(0.0);
      break;
    case ValueType::kString:
      c.codes.push_back(kNullCode);
      break;
    case ValueType::kNull:
      break;
  }
  SetNullBit(&c, c.length);
  ++c.length;
}

void ColumnTable::FinishRow() {
  ++num_rows_;
  for ([[maybe_unused]] const ColumnData& c : columns_) {
    assert(c.length == num_rows_ && "every column must be appended");
  }
}

Status ColumnTable::AppendTuple(const Tuple& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (!row[c].is_null() && row[c].type() != schema_.column(c).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.column(c).name + "': got " +
          std::string(ValueTypeToString(row[c].type())) + ", want " +
          std::string(ValueTypeToString(schema_.column(c).type)));
    }
  }
  for (size_t c = 0; c < row.size(); ++c) AppendValue(c, row[c]);
  FinishRow();
  return Status::OK();
}

void ColumnTable::AppendValue(size_t col, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      AppendNull(col);
      break;
    case ValueType::kInt64:
      AppendInt64(col, v.AsInt64());
      break;
    case ValueType::kDouble:
      AppendDouble(col, v.AsDouble());
      break;
    case ValueType::kString:
      AppendString(col, v.AsString());
      break;
  }
}

bool ColumnTable::ColumnAllNull(size_t col) const {
  const ColumnData& c = columns_[col];
  if (!c.has_nulls) return c.length == 0;
  size_t null_count = 0;
  for (uint64_t w : c.nulls) null_count += std::popcount(w);
  return null_count == c.length;
}

uint32_t ColumnTable::DictCode(size_t col, std::string_view s) const {
  const ColumnData& c = columns_[col];
  auto it = c.dict_index.find(s);
  return it == c.dict_index.end() ? kNullCode : it->second;
}

Value ColumnTable::ValueAt(size_t row, size_t col) const {
  const ColumnData& c = columns_[col];
  if (IsNull(row, col)) return Value::Null();
  switch (c.type) {
    case ValueType::kInt64:
      return Value(c.i64[row]);
    case ValueType::kDouble:
      return Value(c.f64[row]);
    case ValueType::kString:
      return Value(c.dict[c.codes[row]]);
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

Tuple ColumnTable::MaterializeRow(size_t row) const {
  Tuple t;
  t.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    t.push_back(ValueAt(row, c));
  }
  return t;
}

Table ColumnTable::ToTable() const {
  Table out(schema_);
  out.Reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    out.AppendUnchecked(MaterializeRow(r));
  }
  return out;
}

Result<ColumnTable> ColumnTable::FromTable(const Table& table) {
  ColumnTable out(table.schema());
  out.Reserve(table.num_rows());
  for (const Tuple& row : table.rows()) {
    EDGELET_RETURN_NOT_OK(out.AppendTuple(row));
  }
  return out;
}

void ColumnTable::Serialize(Writer* w) const {
  wire::Put(w, schema_);
  w->PutVarint(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) WriteCell(*this, r, c, w);
  }
}

Result<ColumnTable> ColumnTable::Deserialize(Reader* r) {
  auto schema = wire::Read<Schema>(r);
  if (!schema.ok()) return schema.status();
  ColumnTable out(std::move(*schema));
  auto n = out.AppendSerializedRows(r);
  if (!n.ok()) return n.status();
  return out;
}

Result<uint64_t> ColumnTable::AppendSerializedRows(Reader* r,
                                                   uint64_t max_append) {
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  const size_t arity = columns_.size();
  // Every cell costs at least its tag byte; a zero-column row is charged
  // one byte too, so even an empty schema cannot loop on a hostile count.
  EDGELET_RETURN_NOT_OK(r->CheckCount(*n, arity > 0 ? arity : 1));
  const size_t old_rows = num_rows_;
  std::vector<size_t> old_dict_sizes(arity);
  for (size_t c = 0; c < arity; ++c) {
    old_dict_sizes[c] = columns_[c].dict.size();
  }
  const uint64_t keep = std::min(*n, max_append);
  if (old_rows == 0) Reserve(keep);
  for (uint64_t i = 0; i < *n; ++i) {
    const bool append = i < keep;
    for (size_t c = 0; c < arity; ++c) {
      Status st = ReadCell(r, c, append);
      if (!st.ok()) {
        Truncate(old_rows, old_dict_sizes);
        return st;
      }
    }
    if (append) FinishRow();
  }
  return *n;
}

Status ColumnTable::ReadCell(Reader* r, size_t col, bool append) {
  auto v = Value::Deserialize(r);
  if (!v.ok()) return v.status();
  if (!v->is_null() && v->type() != columns_[col].type) {
    return Status::Corruption(
        std::string(ValueTypeToString(v->type())) + " cell in column '" +
        schema_.column(col).name + "' of type " +
        std::string(ValueTypeToString(columns_[col].type)));
  }
  if (append) AppendValue(col, *v);
  return Status::OK();
}

void ColumnTable::Truncate(size_t rows, const std::vector<size_t>& dict_sizes) {
  for (size_t col = 0; col < columns_.size(); ++col) {
    ColumnData& c = columns_[col];
    while (c.dict.size() > dict_sizes[col]) {
      c.dict_index.erase(c.dict.back());
      c.dict.pop_back();
    }
    if (c.length <= rows) continue;
    c.length = rows;
    c.i64.resize(std::min(c.i64.size(), rows));
    c.f64.resize(std::min(c.f64.size(), rows));
    c.codes.resize(std::min(c.codes.size(), rows));
    // The bitmap ends at the word holding the last NULL row.
    if ((rows >> 6) < c.nulls.size()) {
      c.nulls.resize((rows >> 6) + 1);
      c.nulls.back() &= (uint64_t{1} << (rows & 63)) - 1;
    }
    while (!c.nulls.empty() && c.nulls.back() == 0) c.nulls.pop_back();
    c.has_nulls = !c.nulls.empty();
  }
  num_rows_ = std::min(num_rows_, rows);
}

size_t ColumnTable::ApproxBytes() const {
  size_t bytes = 0;
  for (const ColumnData& c : columns_) {
    bytes += c.i64.capacity() * sizeof(int64_t);
    bytes += c.f64.capacity() * sizeof(double);
    bytes += c.codes.capacity() * sizeof(uint32_t);
    bytes += c.nulls.capacity() * sizeof(uint64_t);
    for (const std::string& s : c.dict) {
      bytes += sizeof(std::string) + s.capacity();
    }
  }
  return bytes;
}

// --- TableView --------------------------------------------------------------

TableView::TableView(std::shared_ptr<const ColumnTable> store)
    : store_(std::move(store)) {
  count_ = store_ == nullptr ? 0 : store_->num_rows();
}

TableView::TableView(std::shared_ptr<const ColumnTable> store, size_t begin,
                     size_t count)
    : store_(std::move(store)), begin_(begin), count_(count) {
  // Clamp without computing begin_ + count_, which can wrap for the
  // Slice(offset, SIZE_MAX) "rest of the view" idiom.
  size_t total = store_ == nullptr ? 0 : store_->num_rows();
  if (begin_ > total) begin_ = total;
  if (count_ > total - begin_) count_ = total - begin_;
}

TableView::TableView(std::shared_ptr<const ColumnTable> store,
                     std::vector<uint32_t> selection)
    : store_(std::move(store)), selection_(std::move(selection)) {}

const Schema& TableView::schema() const {
  static const Schema kEmpty;
  return store_ == nullptr ? kEmpty : store_->schema();
}

Result<Value> TableView::At(size_t row, std::string_view column) const {
  if (row >= num_rows()) {
    return Status::OutOfRange("row index " + std::to_string(row));
  }
  auto idx = schema().IndexOf(column);
  if (!idx.ok()) return idx.status();
  return ValueAt(row, *idx);
}

TableView TableView::Slice(size_t offset, size_t count) const {
  // Overflow-safe clamp (count may be SIZE_MAX for "the rest").
  const size_t n = num_rows();
  if (offset > n) offset = n;
  if (count > n - offset) count = n - offset;
  if (selection_.empty()) {
    return TableView(store_, begin_ + offset, count);
  }
  std::vector<uint32_t> sub(selection_.begin() + offset,
                            selection_.begin() + offset + count);
  return TableView(store_, std::move(sub));
}

TableView TableView::Select(const std::vector<uint32_t>& view_rows) const {
  std::vector<uint32_t> store_rows;
  store_rows.reserve(view_rows.size());
  for (uint32_t r : view_rows) {
    size_t store_row = StoreRow(r);
    assert(store_row <= UINT32_MAX && "selection vectors are 32-bit");
    store_rows.push_back(static_cast<uint32_t>(store_row));
  }
  return TableView(store_, std::move(store_rows));
}

Tuple TableView::MaterializeRow(size_t row) const {
  return store_->MaterializeRow(StoreRow(row));
}

Table TableView::ToTable() const {
  Table out(schema());
  out.Reserve(num_rows());
  for (size_t r = 0; r < num_rows(); ++r) {
    out.AppendUnchecked(MaterializeRow(r));
  }
  return out;
}

Result<Table> TableView::ProjectToTable(
    const std::vector<std::string>& columns) const {
  auto sub_schema = schema().Project(columns);
  if (!sub_schema.ok()) return sub_schema.status();
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const auto& c : columns) {
    auto idx = schema().IndexOf(c);
    if (!idx.ok()) return idx.status();
    indices.push_back(*idx);
  }
  Table out(std::move(*sub_schema));
  out.Reserve(num_rows());
  for (size_t r = 0; r < num_rows(); ++r) {
    size_t store_row = StoreRow(r);
    Tuple t;
    t.reserve(indices.size());
    for (size_t i : indices) t.push_back(store_->ValueAt(store_row, i));
    out.AppendUnchecked(std::move(t));
  }
  return out;
}

// --- WireProjection ---------------------------------------------------------

Result<WireProjection> WireProjection::Resolve(
    const Schema& store_schema, const std::vector<std::string>& columns) {
  auto projected = store_schema.Project(columns);
  if (!projected.ok()) return projected.status();
  WireProjection out;
  out.schema_bytes_ = wire::Encode(*projected);
  out.columns_.reserve(columns.size());
  for (const auto& c : columns) {
    out.columns_.push_back(static_cast<uint32_t>(*store_schema.IndexOf(c)));
  }
  return out;
}

void WireProjection::Write(const TableView& view, Writer* w) const {
  w->PutRaw(schema_bytes_.data(), schema_bytes_.size());
  w->PutVarint(view.num_rows());
  for (size_t r = 0; r < view.num_rows(); ++r) {
    WriteCells(view.store(), view.StoreRow(r), w);
  }
}

void WireProjection::WriteRow(const ColumnTable& store, size_t row,
                              Writer* w) const {
  w->PutRaw(schema_bytes_.data(), schema_bytes_.size());
  w->PutVarint(1);
  WriteCells(store, row, w);
}

void WireProjection::WriteCells(const ColumnTable& store, size_t row,
                                Writer* w) const {
  for (uint32_t col : columns_) WriteCell(store, row, col, w);
}

}  // namespace edgelet::data
