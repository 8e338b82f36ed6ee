// Table with a primary key, optional secondary indexes and a small query
// API (predicates, grouping with aggregates, ordering, limits). Covers
// everything the CEEMS API server asks of SQLite.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "reldb/value.h"

namespace ceems::reldb {

// WHERE clause: conjunction of simple comparisons.
struct Predicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };
  std::string column;
  Op op = Op::kEq;
  Value value;
};

enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

struct Aggregate {
  AggFn fn = AggFn::kCount;
  std::string column;  // ignored for kCount
  std::string as;      // output column name
};

struct Query {
  std::vector<Predicate> where;           // ANDed
  std::vector<std::string> select;        // empty = all columns
  std::vector<std::string> group_by;      // with aggregates
  std::vector<Aggregate> aggregates;
  std::string order_by;                   // output column name
  bool descending = false;
  std::size_t limit = 0;                  // 0 = unlimited
};

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  int column_index(const std::string& name) const;
  // Typed access with bounds checks (throws std::out_of_range).
  const Value& at(std::size_t row, const std::string& column) const;
};

class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  std::size_t size() const { return rows_.size(); }

  // Insert fails (returns false) on duplicate primary key; upsert replaces.
  bool insert(Row row);
  void upsert(Row row);
  bool erase(const Value& primary_key);
  std::optional<Row> get(const Value& primary_key) const;

  // Adds a secondary index (speeds equality predicates on that column).
  void create_index(const std::string& column);
  bool has_index(const std::string& column) const;

  ResultSet execute(const Query& query) const;

  // Full scan helper for callers wanting raw rows.
  void for_each(const std::function<void(const Row&)>& fn) const;

 private:
  bool row_matches(const Row& row, const std::vector<Predicate>& where) const;
  std::vector<const Row*> candidate_rows(
      const std::vector<Predicate>& where) const;

  Schema schema_;
  int pk_index_;
  std::map<Value, std::size_t> pk_map_;  // pk -> index into rows_
  std::vector<Row> rows_;                // dense; erased rows swapped out
  // column index -> value -> set of row positions
  std::map<int, std::map<Value, std::set<std::size_t>>> indexes_;
};

}  // namespace ceems::reldb
