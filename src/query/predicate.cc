#include "query/predicate.h"

namespace edgelet::query {

std::string_view CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<bool> Predicate::Evaluate(const data::Tuple& row,
                                 const data::Schema& schema) const {
  auto idx = schema.IndexOf(column);
  if (!idx.ok()) return idx.status();
  const data::Value& v = row[*idx];
  if (v.is_null() || literal.is_null()) return false;
  // Comparable types: numeric with numeric, string with string.
  bool v_str = v.type() == data::ValueType::kString;
  bool l_str = literal.type() == data::ValueType::kString;
  if (v_str != l_str) {
    return Status::InvalidArgument("type mismatch in predicate on '" +
                                   column + "'");
  }
  bool lt = v < literal;
  bool gt = literal < v;
  bool eq = !lt && !gt;
  switch (op) {
    case CompareOp::kEq:
      return eq;
    case CompareOp::kNe:
      return !eq;
    case CompareOp::kLt:
      return lt;
    case CompareOp::kLe:
      return lt || eq;
    case CompareOp::kGt:
      return gt;
    case CompareOp::kGe:
      return gt || eq;
  }
  return Status::Internal("bad compare op");
}

std::string Predicate::ToString() const {
  return column + " " + std::string(CompareOpSymbol(op)) + " " +
         (literal.type() == data::ValueType::kString
              ? "'" + literal.ToString() + "'"
              : literal.ToString());
}

Result<data::Table> ApplyPredicates(const data::Table& table,
                                    const std::vector<Predicate>& predicates) {
  data::Table out(table.schema());
  for (const auto& row : table.rows()) {
    bool keep = true;
    for (const auto& p : predicates) {
      auto r = p.Evaluate(row, table.schema());
      if (!r.ok()) return r.status();
      if (!*r) {
        keep = false;
        break;
      }
    }
    if (keep) out.AppendUnchecked(row);
  }
  return out;
}

}  // namespace edgelet::query
