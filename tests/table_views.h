// Test inputs as the operators take them: columnar views built from row
// tables or from generated data.

#ifndef EDGELET_TESTS_TABLE_VIEWS_H_
#define EDGELET_TESTS_TABLE_VIEWS_H_

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "data/column_table.h"
#include "data/partition.h"
#include "data/table.h"

namespace edgelet::testutil {

// A view over every row of `table`.
inline data::TableView ViewOf(data::ColumnTable table) {
  return data::TableView(
      std::make_shared<const data::ColumnTable>(std::move(table)));
}

// A view over a columnar copy of a row table.
inline data::TableView ViewOf(const data::Table& table) {
  auto columns = data::ColumnTable::FromTable(table);
  if (!columns.ok()) {
    ADD_FAILURE() << columns.status().ToString();
    return data::TableView();
  }
  return ViewOf(std::move(*columns));
}

// Splits `view` by data::PartitionForKey on its INT64 column
// `key_column`, the way contributors are assigned to snapshot builders.
inline std::vector<data::TableView> HashPartitions(
    const data::TableView& view, std::string_view key_column,
    uint32_t num_partitions) {
  auto col = view.schema().IndexOf(key_column);
  if (!col.ok()) {
    ADD_FAILURE() << col.status().ToString();
    return {};
  }
  std::vector<std::vector<uint32_t>> rows(num_partitions);
  for (uint32_t r = 0; r < view.num_rows(); ++r) {
    const auto key = static_cast<uint64_t>(view.ValueAt(r, *col).AsInt64());
    rows[data::PartitionForKey(key, num_partitions)].push_back(r);
  }
  std::vector<data::TableView> out;
  for (const auto& part : rows) out.push_back(view.Select(part));
  return out;
}

}  // namespace edgelet::testutil

#endif  // EDGELET_TESTS_TABLE_VIEWS_H_
