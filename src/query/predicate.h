#ifndef EDGELET_QUERY_PREDICATE_H_
#define EDGELET_QUERY_PREDICATE_H_

#include <string>
#include <vector>

#include "data/table.h"

namespace edgelet::query {

enum class CompareOp : uint8_t {
  kEq = 0,
  kNe = 1,
  kLt = 2,
  kLe = 3,
  kGt = 4,
  kGe = 5,
};

std::string_view CompareOpSymbol(CompareOp op);

// A single comparison against a literal (e.g. age > 65). Contributor
// devices evaluate predicates locally inside their enclave, so only
// qualifying rows ever leave the device.
struct Predicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  data::Value literal;

  // NULL never satisfies any comparison (SQL three-valued logic collapsed
  // to false).
  Result<bool> Evaluate(const data::Tuple& row,
                        const data::Schema& schema) const;

  std::string ToString() const;
};

// Conjunction of predicates applied to a table.
Result<data::Table> ApplyPredicates(const data::Table& table,
                                    const std::vector<Predicate>& predicates);

}  // namespace edgelet::query

#endif  // EDGELET_QUERY_PREDICATE_H_
