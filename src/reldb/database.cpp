#include "reldb/database.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <stdexcept>

#include "common/byte_codec.h"

namespace ceems::reldb {

namespace {

using common::codec::put_str;
using common::codec::put_u64;
using common::codec::put_varint;
using common::codec::Reader;

// Strings are bounded only by the payload they sit in.
bool get_text(Reader& in, std::string* out) {
  uint64_t len = 0;
  std::string_view text;
  if (!in.get_varint(&len) || !in.get_bytes(len, &text)) return false;
  out->assign(text);
  return true;
}

// The tag is the variant index: 0 null, 1 int, 2 real, 3 text.
void put_value(std::string& out, const Value& value) {
  out.push_back(static_cast<char>(value.data.index()));
  if (value.is_int()) put_u64(out, static_cast<uint64_t>(value.as_int()));
  if (value.is_real()) put_u64(out, std::bit_cast<uint64_t>(value.as_real()));
  if (value.is_text()) put_str(out, value.as_text());
}

bool get_value(Reader& in, Value* out) {
  uint8_t tag = 0;
  uint64_t bits = 0;
  std::string text;
  if (!in.get_u8(&tag) || tag > 3) return false;
  if (tag == 0) {
    *out = Value();
  } else if (tag == 3) {
    if (!get_text(in, &text)) return false;
    *out = Value(std::move(text));
  } else {
    if (!in.get_u64(&bits)) return false;
    *out = tag == 1 ? Value(static_cast<int64_t>(bits))
                    : Value(std::bit_cast<double>(bits));
  }
  return true;
}

bool read_entry(Reader& in, WalEntry* out) {
  uint8_t op = 0;
  uint64_t count = 0;
  if (!in.get_u8(&op) || !in.get_varint(&out->seq) ||
      !get_text(in, &out->table)) {
    return false;
  }
  out->op = static_cast<WalEntry::Op>(op);
  switch (out->op) {
    case WalEntry::Op::kCreateTable:
      // Every column takes at least two bytes.
      if (!in.get_varint(&count) || count > in.remaining() / 2) return false;
      out->schema.columns.resize(static_cast<std::size_t>(count));
      for (auto& column : out->schema.columns) {
        uint8_t type = 0;
        if (!get_text(in, &column.name) || !in.get_u8(&type) ||
            type > static_cast<uint8_t>(ColumnType::kText)) {
          return false;
        }
        column.type = static_cast<ColumnType>(type);
      }
      return get_text(in, &out->schema.primary_key);
    case WalEntry::Op::kUpsert:
      // Every value takes at least its tag byte.
      if (!in.get_varint(&count) || count > in.remaining()) return false;
      out->row.resize(static_cast<std::size_t>(count));
      for (auto& value : out->row) {
        if (!get_value(in, &value)) return false;
      }
      return true;
    case WalEntry::Op::kErase:
      return get_value(in, &out->primary_key);
  }
  return false;
}

// Appends the entries of `bytes` (a log payload or a snapshot body) to
// `out`; false if one does not decode.
bool read_entries(std::string_view bytes, std::vector<WalEntry>* out) {
  Reader in(bytes);
  while (!in.done()) {
    if (!read_entry(in, &out->emplace_back())) return false;
  }
  return true;
}

std::vector<WalEntry> one(WalEntry entry) {
  std::vector<WalEntry> batch;
  batch.push_back(std::move(entry));
  return batch;
}

}  // namespace

void encode_entry(const WalEntry& entry, std::string& out) {
  out.push_back(static_cast<char>(entry.op));
  put_varint(out, entry.seq);
  put_str(out, entry.table);
  switch (entry.op) {
    case WalEntry::Op::kCreateTable:
      put_varint(out, entry.schema.columns.size());
      for (const auto& column : entry.schema.columns) {
        put_str(out, column.name);
        out.push_back(static_cast<char>(column.type));
      }
      put_str(out, entry.schema.primary_key);
      break;
    case WalEntry::Op::kUpsert:
      put_varint(out, entry.row.size());
      for (const auto& value : entry.row) put_value(out, value);
      break;
    case WalEntry::Op::kErase:
      put_value(out, entry.primary_key);
      break;
  }
}

std::optional<WalEntry> decode_entry(std::string_view payload) {
  Reader in(payload);
  WalEntry entry;
  if (!read_entry(in, &entry) || !in.done()) return std::nullopt;
  return entry;
}

std::unique_ptr<Database> Database::open(simfs::DurableDirPtr dir) {
  auto db = std::make_unique<Database>();
  if (!dir) return db;
  auto replay = [&](std::string_view bytes) { return db->replay(bytes); };
  db->log_ = simfs::RecordLog::open(
                 std::move(dir), simfs::RecordLog::kDefaultSegmentBytes,
                 replay, replay,
                 [&](std::string& out) { db->write_snapshot(out); })
                 .log;
  return db;
}

Table& Database::table_ref(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end())
    throw std::invalid_argument("no table '" + name + "'");
  return it->second;
}

const Table& Database::table_ref(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end())
    throw std::invalid_argument("no table '" + name + "'");
  return it->second;
}

std::string Database::misfit(const std::vector<WalEntry>& batch) const {
  std::map<std::string_view, const Schema*> created;  // by this batch
  for (const WalEntry& entry : batch) {
    const Schema* schema = nullptr;
    if (auto it = tables_.find(entry.table); it != tables_.end()) {
      schema = &it->second.schema();
    } else if (auto it = created.find(entry.table); it != created.end()) {
      schema = it->second;
    }
    if (entry.op == WalEntry::Op::kCreateTable) {
      if (schema) return "table '" + entry.table + "' exists";
      if (entry.schema.column_index(entry.schema.primary_key) < 0)
        return "primary key '" + entry.schema.primary_key + "' not a column";
      created.emplace(entry.table, &entry.schema);
    } else if (!schema) {
      return "no table '" + entry.table + "'";
    } else if (entry.op == WalEntry::Op::kUpsert &&
               entry.row.size() != schema->columns.size()) {
      return "row width mismatch";
    }
  }
  return "";
}

void Database::commit(std::vector<WalEntry> batch) {
  std::unique_lock lock(mu_);
  commit_locked(batch);
}

void Database::commit_locked(std::vector<WalEntry>& batch) {
  if (batch.empty()) return;
  if (std::string why = misfit(batch); !why.empty())
    throw std::invalid_argument(why);
  uint64_t seq = seq_;
  for (WalEntry& entry : batch) entry.seq = ++seq;
  if (log_) {
    payload_.clear();
    for (const WalEntry& entry : batch) encode_entry(entry, payload_);
    if (payload_.size() > simfs::RecordLog::kMaxPayloadBytes)
      throw std::invalid_argument("batch exceeds the log record limit");
    // Auto-checkpoint instead of rotating into a second segment, and
    // start a new generation after a failed sync. If the snapshot cannot
    // be installed, a full log rotates and loses nothing, and a failed
    // one refuses this batch too.
    if (log_->full() || log_->failed()) checkpoint_locked();
    // On failure the log has already cut the record away, so it can
    // never replay.
    if (!log_->flush_to(log_->append(payload_)))
      throw std::runtime_error("units DB log sync failed");
  }
  for (WalEntry& entry : batch) apply(entry);
  seq_ = seq;
}

void Database::apply(WalEntry& entry) {
  switch (entry.op) {
    case WalEntry::Op::kCreateTable:
      tables_.emplace(entry.table, Table(std::move(entry.schema)));
      break;
    case WalEntry::Op::kUpsert:
      table_ref(entry.table).upsert(std::move(entry.row));
      break;
    case WalEntry::Op::kErase:
      table_ref(entry.table).erase(entry.primary_key);
      break;
  }
}

bool Database::replay(std::string_view bytes) {
  std::vector<WalEntry> batch;
  if (!read_entries(bytes, &batch) || !misfit(batch).empty()) return false;
  for (WalEntry& entry : batch) apply(entry);
  if (!batch.empty()) seq_ = batch.back().seq;
  return true;
}

void Database::create_table(const std::string& name, Schema schema) {
  std::unique_lock lock(mu_);
  if (tables_.count(name)) return;  // idempotent, helps reopen
  auto batch = one({.op = WalEntry::Op::kCreateTable,
                    .table = name,
                    .schema = std::move(schema)});
  commit_locked(batch);
}

bool Database::has_table(const std::string& name) const {
  std::shared_lock lock(mu_);
  return tables_.count(name) > 0;
}

void Database::upsert(const std::string& table, Row row) {
  commit(one(
      {.op = WalEntry::Op::kUpsert, .table = table, .row = std::move(row)}));
}

bool Database::erase(const std::string& table, const Value& primary_key) {
  std::unique_lock lock(mu_);
  if (!table_ref(table).get(primary_key)) return false;
  auto batch = one({.op = WalEntry::Op::kErase,
                    .table = table,
                    .primary_key = primary_key});
  commit_locked(batch);
  return true;
}

std::optional<Row> Database::get(const std::string& table,
                                 const Value& primary_key) const {
  std::shared_lock lock(mu_);
  return table_ref(table).get(primary_key);
}

ResultSet Database::query(const std::string& table, const Query& query) const {
  std::shared_lock lock(mu_);
  return table_ref(table).execute(query);
}

std::size_t Database::table_size(const std::string& table) const {
  std::shared_lock lock(mu_);
  return table_ref(table).size();
}

const Schema* Database::table_schema(const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second.schema();
}

void Database::create_index(const std::string& table,
                            const std::string& column) {
  std::unique_lock lock(mu_);
  table_ref(table).create_index(column);
}

bool Database::has_index(const std::string& table,
                         const std::string& column) const {
  std::shared_lock lock(mu_);
  return table_ref(table).has_index(column);
}

bool Database::checkpoint() {
  std::unique_lock lock(mu_);
  return !log_ || checkpoint_locked();
}

bool Database::checkpoint_locked() {
  return log_->checkpoint([this](std::string& out) { write_snapshot(out); });
}

bool Database::backup_to(simfs::DurableDir& dir) const {
  std::shared_lock lock(mu_);
  if (log_) return log_->ship_to(dir);
  // Above every segment already in `dir`, so none replays over the backup.
  uint64_t floor = 1;
  for (const std::string& name : dir.list()) {
    if (auto seq = simfs::RecordLog::parse_segment_name(name))
      floor = std::max(floor, *seq + 1);
  }
  return simfs::install_log_snapshot(
      dir, floor, [this](std::string& out) { write_snapshot(out); });
}

void Database::write_snapshot(std::string& out) const {
  WalEntry entry;
  entry.seq = seq_;
  entry.op = WalEntry::Op::kCreateTable;
  for (const auto& [name, table] : tables_) {
    entry.table = name;
    entry.schema = table.schema();
    encode_entry(entry, out);
  }
  entry.op = WalEntry::Op::kUpsert;
  for (const auto& [name, table] : tables_) {
    entry.table = name;
    table.for_each([&](const Row& row) {
      entry.row = row;
      encode_entry(entry, out);
    });
  }
}

uint64_t Database::last_seq() const {
  std::shared_lock lock(mu_);
  return seq_;
}

std::vector<WalEntry> Database::entries_since(uint64_t after) const {
  std::shared_lock lock(mu_);
  std::vector<WalEntry> out;
  if (log_) {
    log_->read_payloads(
        [&](std::string_view payload) { return read_entries(payload, &out); });
  }
  std::erase_if(out, [after](const WalEntry& entry) {
    return entry.seq <= after;
  });
  return out;
}

}  // namespace ceems::reldb
