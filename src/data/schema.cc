#include "data/schema.h"

namespace edgelet::data {

Result<size_t> Schema::IndexOf(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("column not in schema: " + std::string(name));
}

bool Schema::Contains(std::string_view name) const {
  return IndexOf(name).ok();
}

Result<Schema> Schema::Project(const std::vector<std::string>& names) const {
  std::vector<Column> cols;
  cols.reserve(names.size());
  for (const auto& name : names) {
    auto idx = IndexOf(name);
    if (!idx.ok()) return idx.status();
    cols.push_back(columns_[*idx]);
  }
  return Schema(std::move(cols));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ":";
    out += std::string(ValueTypeToString(columns_[i].type));
  }
  out += ")";
  return out;
}

}  // namespace edgelet::data
