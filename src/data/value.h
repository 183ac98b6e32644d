#ifndef EDGELET_DATA_VALUE_H_
#define EDGELET_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/serialize.h"
#include "common/status.h"

namespace edgelet::data {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};
// The last valid tag: the wire codec rejects any above it.
constexpr ValueType WireLastTag(ValueType) { return ValueType::kString; }

std::string_view ValueTypeToString(ValueType t);

// A single cell. Small tagged union; copyable. NULL compares equal to NULL
// and sorts before every non-null value (SQL-style total order for grouping).
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(v_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  // Numeric widening: int64 or double -> double. Fails on string/null.
  Result<double> ToDouble() const;

  // Renders for reports ("" for NULL).
  std::string ToString() const;

  void Serialize(Writer* w) const;
  static Result<Value> Deserialize(Reader* r);

  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  // Total order across types: NULL < int/double (by numeric value) < string.
  bool operator<(const Value& other) const;

  // Stable hash for grouping keys.
  uint64_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

}  // namespace edgelet::data

#endif  // EDGELET_DATA_VALUE_H_
