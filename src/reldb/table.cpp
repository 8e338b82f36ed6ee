#include "reldb/table.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ceems::reldb {

int ResultSet::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

const Value& ResultSet::at(std::size_t row, const std::string& column) const {
  int index = column_index(column);
  if (index < 0) throw std::out_of_range("no column " + column);
  return rows.at(row).at(static_cast<std::size_t>(index));
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  pk_index_ = schema_.column_index(schema_.primary_key);
  if (pk_index_ < 0)
    throw std::invalid_argument("primary key column '" + schema_.primary_key +
                                "' not in schema");
}

bool Table::insert(Row row) {
  if (row.size() != schema_.columns.size())
    throw std::invalid_argument("row width mismatch");
  const Value& pk = row[static_cast<std::size_t>(pk_index_)];
  if (pk_map_.count(pk)) return false;
  std::size_t position = rows_.size();
  pk_map_[pk] = position;
  for (auto& [column, index] : indexes_) {
    index[row[static_cast<std::size_t>(column)]].insert(position);
  }
  rows_.push_back(std::move(row));
  return true;
}

void Table::upsert(Row row) {
  if (row.size() != schema_.columns.size())
    throw std::invalid_argument("row width mismatch");
  const Value& pk = row[static_cast<std::size_t>(pk_index_)];
  auto it = pk_map_.find(pk);
  if (it == pk_map_.end()) {
    insert(std::move(row));
    return;
  }
  std::size_t position = it->second;
  for (auto& [column, index] : indexes_) {
    index[rows_[position][static_cast<std::size_t>(column)]].erase(position);
    index[row[static_cast<std::size_t>(column)]].insert(position);
  }
  rows_[position] = std::move(row);
}

bool Table::erase(const Value& primary_key) {
  auto it = pk_map_.find(primary_key);
  if (it == pk_map_.end()) return false;
  std::size_t position = it->second;
  std::size_t last = rows_.size() - 1;
  // Unindex the victim.
  for (auto& [column, index] : indexes_) {
    index[rows_[position][static_cast<std::size_t>(column)]].erase(position);
  }
  pk_map_.erase(it);
  if (position != last) {
    // Move the last row into the hole; fix its bookkeeping.
    for (auto& [column, index] : indexes_) {
      index[rows_[last][static_cast<std::size_t>(column)]].erase(last);
      index[rows_[last][static_cast<std::size_t>(column)]].insert(position);
    }
    pk_map_[rows_[last][static_cast<std::size_t>(pk_index_)]] = position;
    rows_[position] = std::move(rows_[last]);
  }
  rows_.pop_back();
  return true;
}

std::optional<Row> Table::get(const Value& primary_key) const {
  auto it = pk_map_.find(primary_key);
  if (it == pk_map_.end()) return std::nullopt;
  return rows_[it->second];
}

void Table::create_index(const std::string& column) {
  int index = schema_.column_index(column);
  if (index < 0) throw std::invalid_argument("no column " + column);
  auto& bucket = indexes_[index];
  bucket.clear();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    bucket[rows_[i][static_cast<std::size_t>(index)]].insert(i);
  }
}

bool Table::has_index(const std::string& column) const {
  return indexes_.count(schema_.column_index(column)) > 0;
}

bool Table::row_matches(const Row& row,
                        const std::vector<Predicate>& where) const {
  for (const auto& predicate : where) {
    int column = schema_.column_index(predicate.column);
    if (column < 0) return false;
    const Value& value = row[static_cast<std::size_t>(column)];
    bool ok = false;
    switch (predicate.op) {
      case Predicate::Op::kEq: ok = value == predicate.value; break;
      case Predicate::Op::kNe: ok = !(value == predicate.value); break;
      case Predicate::Op::kLt: ok = value < predicate.value; break;
      case Predicate::Op::kLe: ok = !(predicate.value < value); break;
      case Predicate::Op::kGt: ok = predicate.value < value; break;
      case Predicate::Op::kGe: ok = !(value < predicate.value); break;
    }
    if (!ok) return false;
  }
  return true;
}

std::vector<const Row*> Table::candidate_rows(
    const std::vector<Predicate>& where) const {
  // Use a secondary index for the first indexed equality predicate.
  for (const auto& predicate : where) {
    if (predicate.op != Predicate::Op::kEq) continue;
    int column = schema_.column_index(predicate.column);
    auto index_it = indexes_.find(column);
    if (index_it == indexes_.end()) continue;
    std::vector<const Row*> out;
    auto value_it = index_it->second.find(predicate.value);
    if (value_it == index_it->second.end()) return out;
    for (std::size_t position : value_it->second) {
      out.push_back(&rows_[position]);
    }
    return out;
  }
  std::vector<const Row*> out;
  out.reserve(rows_.size());
  for (const auto& row : rows_) out.push_back(&row);
  return out;
}

ResultSet Table::execute(const Query& query) const {
  std::vector<const Row*> matched;
  for (const Row* row : candidate_rows(query.where)) {
    if (row_matches(*row, query.where)) matched.push_back(row);
  }

  ResultSet result;
  if (!query.group_by.empty() || !query.aggregates.empty()) {
    // Grouped aggregation.
    std::vector<int> group_columns;
    for (const auto& name : query.group_by) {
      int index = schema_.column_index(name);
      if (index < 0) throw std::invalid_argument("no column " + name);
      group_columns.push_back(index);
      result.columns.push_back(name);
    }
    for (const auto& aggregate : query.aggregates) {
      result.columns.push_back(aggregate.as.empty() ? aggregate.column
                                                    : aggregate.as);
    }

    struct GroupState {
      Row key;
      std::vector<double> sums;
      std::vector<double> mins;
      std::vector<double> maxs;
      std::size_t count = 0;
    };
    std::map<Row, GroupState> groups;
    for (const Row* row : matched) {
      Row key;
      for (int column : group_columns)
        key.push_back((*row)[static_cast<std::size_t>(column)]);
      GroupState& group = groups[key];
      if (group.count == 0) {
        group.key = key;
        group.sums.assign(query.aggregates.size(), 0);
        group.mins.assign(query.aggregates.size(),
                          std::numeric_limits<double>::infinity());
        group.maxs.assign(query.aggregates.size(),
                          -std::numeric_limits<double>::infinity());
      }
      ++group.count;
      for (std::size_t a = 0; a < query.aggregates.size(); ++a) {
        const Aggregate& aggregate = query.aggregates[a];
        if (aggregate.fn == AggFn::kCount) continue;
        int column = schema_.column_index(aggregate.column);
        if (column < 0)
          throw std::invalid_argument("no column " + aggregate.column);
        double value = (*row)[static_cast<std::size_t>(column)].as_real();
        group.sums[a] += value;
        group.mins[a] = std::min(group.mins[a], value);
        group.maxs[a] = std::max(group.maxs[a], value);
      }
    }
    for (auto& [key, group] : groups) {
      Row out = group.key;
      for (std::size_t a = 0; a < query.aggregates.size(); ++a) {
        switch (query.aggregates[a].fn) {
          case AggFn::kCount:
            out.push_back(Value(static_cast<int64_t>(group.count)));
            break;
          case AggFn::kSum: out.push_back(Value(group.sums[a])); break;
          case AggFn::kAvg:
            out.push_back(
                Value(group.sums[a] / static_cast<double>(group.count)));
            break;
          case AggFn::kMin: out.push_back(Value(group.mins[a])); break;
          case AggFn::kMax: out.push_back(Value(group.maxs[a])); break;
        }
      }
      result.rows.push_back(std::move(out));
    }
  } else {
    // Plain projection.
    std::vector<int> projection;
    if (query.select.empty()) {
      for (std::size_t i = 0; i < schema_.columns.size(); ++i) {
        projection.push_back(static_cast<int>(i));
        result.columns.push_back(schema_.columns[i].name);
      }
    } else {
      for (const auto& name : query.select) {
        int index = schema_.column_index(name);
        if (index < 0) throw std::invalid_argument("no column " + name);
        projection.push_back(index);
        result.columns.push_back(name);
      }
    }
    for (const Row* row : matched) {
      Row out;
      out.reserve(projection.size());
      for (int column : projection)
        out.push_back((*row)[static_cast<std::size_t>(column)]);
      result.rows.push_back(std::move(out));
    }
  }

  if (!query.order_by.empty()) {
    int index = result.column_index(query.order_by);
    if (index < 0) throw std::invalid_argument("no column " + query.order_by);
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const Row& a, const Row& b) {
                       const Value& lhs = a[static_cast<std::size_t>(index)];
                       const Value& rhs = b[static_cast<std::size_t>(index)];
                       return query.descending ? rhs < lhs : lhs < rhs;
                     });
  }
  if (query.limit > 0 && result.rows.size() > query.limit) {
    result.rows.resize(query.limit);
  }
  return result;
}

void Table::for_each(const std::function<void(const Row&)>& fn) const {
  for (const auto& row : rows_) fn(row);
}

}  // namespace ceems::reldb
