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

void Schema::Serialize(Writer* w) const {
  w->PutVarint(columns_.size());
  for (const auto& c : columns_) {
    w->PutString(c.name);
    w->PutU8(static_cast<uint8_t>(c.type));
  }
}

Result<Schema> Schema::Deserialize(Reader* r) {
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  // A column costs at least a name length and a type tag.
  EDGELET_RETURN_NOT_OK(r->CheckCount(*n, 2));
  std::vector<Column> cols;
  cols.reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto name = r->GetString();
    if (!name.ok()) return name.status();
    auto type = r->GetU8();
    if (!type.ok()) return type.status();
    if (*type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::Corruption("invalid column type tag");
    }
    cols.push_back({std::move(*name), static_cast<ValueType>(*type)});
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
