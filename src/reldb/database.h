// Database: named tables + write-ahead log + log-shipping backups
// (Litestream-style replication).
//
// Concurrency contract (mirrors the paper's SQLite justification, §II-D):
// exactly one writer thread — the API server's updater — mutates the
// database; any number of reader threads query concurrently. A
// shared_mutex enforces it: queries take shared locks, mutations exclusive.
//
// Durability. Opened over a simfs::DurableDir, the database logs every
// commit through the stack's one record log (simfs/record_log.h): a
// batch of entries is validated, logged as one record and made durable
// with one sync, and only then applied — a SQLite transaction, a LevelDB
// WriteBatch. The log is the only record of the writes: replay applies a
// record all or nothing, and backup_to() ships the log's files. When the
// log would rotate into a second segment the database checkpoints itself
// (SQLite's auto-checkpoint), so open() restores the snapshot and replays
// at most one segment.
//
// A log payload is one or more entries back to back (the snapshot body
// is the same concatenation), each: u8 op | varint seq | str table, then
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
#include <vector>

#include "reldb/table.h"
#include "simfs/record_log.h"

namespace ceems::reldb {

struct WalEntry {
  enum class Op { kCreateTable = 1, kUpsert = 2, kErase = 3 };
  uint64_t seq = 0;
  Op op = Op::kUpsert;
  std::string table;
  // kCreateTable: schema; kUpsert: row; kErase: primary key. The `{}`
  // lets a designated initializer leave out the two that do not apply.
  Schema schema{};
  Row row{};
  Value primary_key{};
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

  // Commits `batch` as one unit: each entry is checked against the
  // tables as the entries before it leave them, then the batch is logged
  // as one record, made durable with one sync and applied. Entries get
  // consecutive seqs (the seq they carry is ignored). Throws
  // std::invalid_argument when an entry does not fit (unknown or existing
  // table, row width, primary key not a column) and std::runtime_error
  // when the log cannot be made durable; either way nothing is logged or
  // applied. An empty batch is a no-op.
  void commit(std::vector<WalEntry> batch);

  // One-entry commits. create_table is a no-op for an existing table,
  // and erase returns false, logging nothing, for an absent key.
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

  // Replication and punctual backup (§II-C), one call: brings `dir` up
  // to this database so that open(dir) restores it, the way `litestream
  // restore` does. A durable database ships its log's files
  // (simfs::RecordLog::ship_to), so calling it again ships only new bytes
  // and `dir` never holds a mutation that was not acknowledged; an
  // in-memory one installs a snapshot of its current state.
  bool backup_to(simfs::DurableDir& dir) const;

  uint64_t last_seq() const;
  // Entries with seq > after among those still in the log (logged since
  // the last checkpoint, replayed or new), decoded from its segments;
  // none when in-memory.
  std::vector<WalEntry> entries_since(uint64_t after) const;

 private:
  // Why `batch` does not fit the tables as it leaves them; empty if it
  // fits.
  std::string misfit(const std::vector<WalEntry>& batch) const;
  // Checks, logs and applies a batch. Caller holds mu_ exclusively.
  void commit_locked(std::vector<WalEntry>& batch);
  void apply(WalEntry& entry);  // moves the schema or row out of `entry`
  // Applies the entries encoded in `bytes` (a log payload or a snapshot
  // body) if every one decodes and fits; false, having applied nothing,
  // otherwise.
  bool replay(std::string_view bytes);
  bool checkpoint_locked();
  // The snapshot body of checkpoints and backups: one create entry per
  // table and one upsert entry per row, each carrying the last seq.
  void write_snapshot(std::string& out) const;
  Table& table_ref(const std::string& name);
  const Table& table_ref(const std::string& name) const;

  mutable std::shared_mutex mu_;
  std::map<std::string, Table> tables_;
  uint64_t seq_ = 0;
  std::unique_ptr<simfs::RecordLog> log_;  // null when in-memory
  std::string payload_;                    // encode scratch
};

}  // namespace ceems::reldb
