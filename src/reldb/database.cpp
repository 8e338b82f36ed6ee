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
  auto restore = [&](std::string_view body) {
    if (db->replay(body, /*tail=*/false)) return true;
    db->tables_.clear();
    db->seq_ = 0;
    return false;
  };
  db->log_ =
      simfs::RecordLog::open(
          std::move(dir), simfs::RecordLog::kDefaultSegmentBytes, restore,
          [&](std::string_view payload) {
            return db->replay(payload, /*tail=*/true);
          },
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

std::string Database::misfit(const WalEntry& entry) const {
  if (entry.op == WalEntry::Op::kCreateTable) {
    return entry.schema.column_index(entry.schema.primary_key) < 0
               ? "primary key '" + entry.schema.primary_key + "' not a column"
               : "";
  }
  auto it = tables_.find(entry.table);
  if (it == tables_.end()) return "no table '" + entry.table + "'";
  if (entry.op == WalEntry::Op::kUpsert &&
      entry.row.size() != it->second.schema().columns.size())
    return "row width mismatch";
  return "";
}

void Database::commit(WalEntry entry) {
  if (std::string why = misfit(entry); !why.empty())
    throw std::invalid_argument(why);
  entry.seq = seq_ + 1;
  if (log_) {
    payload_.clear();
    encode_entry(entry, payload_);
    if (payload_.size() > simfs::RecordLog::kMaxPayloadBytes)
      throw std::invalid_argument("mutation exceeds the log record limit");
    // Auto-checkpoint instead of rotating into a second segment; if the
    // snapshot cannot be installed the log rotates and loses nothing.
    if (log_->full()) checkpoint_locked();
    if (!log_->flush_to(log_->append(payload_))) {
      // The record may still reach the disk with a later sync; a
      // snapshot of the applied state makes sure it never replays.
      checkpoint_locked();
      throw std::runtime_error("units DB log sync failed");
    }
  }
  apply(entry);
  seq_ = entry.seq;
  tail_.push_back(std::move(entry));
}

void Database::apply(const WalEntry& entry) {
  switch (entry.op) {
    case WalEntry::Op::kCreateTable:
      tables_.emplace(entry.table, Table(entry.schema));
      break;
    case WalEntry::Op::kUpsert:
      table_ref(entry.table).upsert(entry.row);
      break;
    case WalEntry::Op::kErase:
      table_ref(entry.table).erase(entry.primary_key);
      break;
  }
}

bool Database::replay(std::string_view bytes, bool tail) {
  Reader in(bytes);
  while (!in.done()) {
    WalEntry entry;
    if (!read_entry(in, &entry) || !misfit(entry).empty()) return false;
    apply(entry);
    seq_ = entry.seq;
    if (tail) tail_.push_back(std::move(entry));
  }
  return true;
}

void Database::create_table(const std::string& name, Schema schema) {
  std::unique_lock lock(mu_);
  if (tables_.count(name)) return;  // idempotent, helps reopen
  WalEntry entry;
  entry.op = WalEntry::Op::kCreateTable;
  entry.table = name;
  entry.schema = std::move(schema);
  commit(std::move(entry));
}

bool Database::has_table(const std::string& name) const {
  std::shared_lock lock(mu_);
  return tables_.count(name) > 0;
}

void Database::upsert(const std::string& table, Row row) {
  std::unique_lock lock(mu_);
  WalEntry entry;
  entry.op = WalEntry::Op::kUpsert;
  entry.table = table;
  entry.row = std::move(row);
  commit(std::move(entry));
}

bool Database::erase(const std::string& table, const Value& primary_key) {
  std::unique_lock lock(mu_);
  if (!table_ref(table).get(primary_key)) return false;
  WalEntry entry;
  entry.op = WalEntry::Op::kErase;
  entry.table = table;
  entry.primary_key = primary_key;
  commit(std::move(entry));
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
  // Above every segment already in `dir`, so none replays over the backup.
  uint64_t floor = 1;
  for (const std::string& name : dir.list()) {
    if (auto seq = simfs::RecordLog::parse_segment_name(name))
      floor = std::max(floor, *seq + 1);
  }
  std::shared_lock lock(mu_);
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
  for (const auto& entry : tail_) {
    if (entry.seq > after) out.push_back(entry);
  }
  return out;
}

std::size_t Replicator::sync() {
  std::size_t shipped = 0;
  for (const auto& entry : primary_.entries_since(shipped_)) {
    switch (entry.op) {
      case WalEntry::Op::kCreateTable:
        replica_.create_table(entry.table, entry.schema);
        break;
      case WalEntry::Op::kUpsert:
        replica_.upsert(entry.table, entry.row);
        break;
      case WalEntry::Op::kErase:
        replica_.erase(entry.table, entry.primary_key);
        break;
    }
    shipped_ = entry.seq;
    ++shipped;
  }
  return shipped;
}

}  // namespace ceems::reldb
