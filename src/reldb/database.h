// Database: named tables + write-ahead log + backups + Litestream-style
// replication.
//
// Concurrency contract (mirrors the paper's SQLite justification, §II-D):
// exactly one writer thread — the API server's updater — mutates the
// database; any number of reader threads query concurrently. A
// shared_mutex enforces it: queries take shared locks, mutations exclusive.
//
// Durability. Opened over a simfs::DurableDir, the database logs every
// mutation through the stack's one record log (simfs/record_log.h): the
// mutation is validated, logged and made durable, and only then applied.
// When the log would rotate into a second segment the database
// checkpoints itself (SQLite's auto-checkpoint), so open() restores the
// snapshot and replays at most one segment.
//
// A log payload is one entry: u8 op | varint seq | str table, then
//   create: varint columns | (str name | u8 type)... | str primary key
//   upsert: varint values | value...      erase: value
// with value = u8 variant index | i64 / f64 bits / str, so every value
// round-trips bit for bit (NaN payloads, -0.0, all of int64, any bytes).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "reldb/table.h"
#include "simfs/record_log.h"

namespace ceems::reldb {

struct WalEntry {
  enum class Op { kCreateTable = 1, kUpsert = 2, kErase = 3 };
  uint64_t seq = 0;
  Op op = Op::kUpsert;
  std::string table;
  // kCreateTable: schema; kUpsert: row; kErase: primary key.
  Schema schema;
  Row row;
  Value primary_key;
};

// Appends the encoding of `entry` to `out`.
void encode_entry(const WalEntry& entry, std::string& out);
// Decodes a payload that must be exactly one entry; nullopt when it is
// truncated or corrupt.
std::optional<WalEntry> decode_entry(std::string_view payload);

class Database {
 public:
  // In-memory only (no durability).
  Database() = default;

  // The database kept in `dir`, recovered by simfs::RecordLog::open()
  // (snapshot, replay with torn-tail repair, a checkpoint after damage);
  // every later mutation is logged there. nullptr = in-memory.
  static std::unique_ptr<Database> open(simfs::DurableDirPtr dir);

  // Mutations throw std::invalid_argument when they do not fit (unknown
  // table, row width, primary key not a column) and std::runtime_error
  // when the log cannot be made durable; either way nothing is logged
  // or applied.
  void create_table(const std::string& name, Schema schema);
  bool has_table(const std::string& name) const;

  void upsert(const std::string& table, Row row);
  bool erase(const std::string& table, const Value& primary_key);

  std::optional<Row> get(const std::string& table,
                         const Value& primary_key) const;
  ResultSet query(const std::string& table, const Query& query) const;
  std::size_t table_size(const std::string& table) const;
  const Schema* table_schema(const std::string& table) const;
  // Indexes live in memory only: they are neither logged nor snapshotted.
  void create_index(const std::string& table, const std::string& column);
  bool has_index(const std::string& table, const std::string& column) const;

  // Folds the log into a snapshot and truncates it; false (log intact)
  // if the snapshot could not be installed. No-op when in-memory.
  bool checkpoint();

  // Punctual backup (§II-C "in-built punctual backup solution"): installs
  // the checkpoint snapshot of the current state into `dir`; restore via
  // open(dir).
  bool backup_to(simfs::DurableDir& dir) const;

  uint64_t last_seq() const;
  // Entries with seq > after (replication pull): the mutations since
  // open(), replayed or new. Kept in memory.
  std::vector<WalEntry> entries_since(uint64_t after) const;

 private:
  // Why `entry` does not fit the current tables; empty if it does.
  std::string misfit(const WalEntry& entry) const;
  // Checks, logs and applies one mutation. Caller holds mu_ exclusively.
  void commit(WalEntry entry);
  void apply(const WalEntry& entry);
  // Applies the entries encoded in `bytes` (a log payload or a snapshot
  // body), keeping them in the replication tail if `tail`; false at the
  // first one that does not decode or fit, which is not applied.
  bool replay(std::string_view bytes, bool tail);
  bool checkpoint_locked();
  // The snapshot body of checkpoints and backups: one create entry per
  // table and one upsert entry per row, each carrying the last seq.
  void write_snapshot(std::string& out) const;
  Table& table_ref(const std::string& name);
  const Table& table_ref(const std::string& name) const;

  mutable std::shared_mutex mu_;
  std::map<std::string, Table> tables_;
  std::vector<WalEntry> tail_;  // in-memory tail for replication
  uint64_t seq_ = 0;
  std::unique_ptr<simfs::RecordLog> log_;  // null when in-memory
  std::string payload_;                    // encode scratch
};

// Litestream analogue: continuously ships the primary's WAL tail into a
// replica Database. sync() is cheap and idempotent; call it on a timer.
class Replicator {
 public:
  Replicator(const Database& primary, Database& replica)
      : primary_(primary), replica_(replica) {}

  // Applies all new entries; returns how many were shipped.
  std::size_t sync();

 private:
  const Database& primary_;
  Database& replica_;
  uint64_t shipped_ = 0;
};

}  // namespace ceems::reldb
