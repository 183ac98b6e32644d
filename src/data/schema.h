#ifndef EDGELET_DATA_SCHEMA_H_
#define EDGELET_DATA_SCHEMA_H_

#include <string>
#include <tuple>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "data/value.h"

namespace edgelet::data {

struct Column {
  std::string name;
  ValueType type = ValueType::kNull;

  template <typename M>
  static auto Fields(M& m) { return std::tie(m.name, m.type); }
  bool operator==(const Column& other) const {
    return name == other.name && type == other.type;
  }
};

// Ordered list of named, typed columns. Edgelet data is a horizontal
// partitioning of one shared schema, so every participant agrees on this.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  // Index of the named column, or NotFound.
  Result<size_t> IndexOf(std::string_view name) const;
  bool Contains(std::string_view name) const;

  // Schema restricted to `names`, in the given order.
  Result<Schema> Project(const std::vector<std::string>& names) const;

  // A column count, then each column's name and type tag.
  template <typename M>
  static auto Fields(M& m) { return std::tie(m.columns_); }

  bool operator==(const Schema& other) const {
    return columns_ == other.columns_;
  }

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace edgelet::data

#endif  // EDGELET_DATA_SCHEMA_H_
