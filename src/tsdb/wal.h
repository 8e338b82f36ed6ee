// Write-ahead log for the hot TSDB — the durability half of the ingest
// path. Every mutation (sample batches from scrapers and the rule
// engine, retention purges, series deletions) is one payload of the
// shared simfs::RecordLog (framing, group commit, torn-tail repair and
// the checkpoint snapshot file live there), made durable *before* it is
// applied to the in-memory store.
//
// Payloads are a u8 record type + body. Batch bodies use a series
// dictionary (the Prometheus WAL idiom): the first record that carries
// a series emits a definition (ref + label strings), later records carry
// only the varint ref, a zigzag delta timestamp and the raw f64 bits — a
// steady-state sample costs ~11 bytes and zero allocations. The
// dictionary lives for one WAL generation (until a checkpoint truncates
// the log), and refs follow log order: a batch is encoded and appended
// under one lock.
//
// A shared "commit lock" is held across [log → apply]; the checkpoint
// takes it exclusively, so a snapshot is a consistent cut. A mutation
// whose log commit fails is not applied (the store reports 0), and the
// failure lasts until the next checkpoint starts a new generation.
// DurableTsdb ties it together: open() is simfs::RecordLog::open() with
// the store's snapshot and payload codecs; checkpoint() installs
// snapshot v2 atomically and truncates the log.
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "metrics/labels.h"
#include "metrics/model.h"
#include "metrics/symbols.h"
#include "simfs/record_log.h"
#include "tsdb/storage.h"

namespace ceems::tsdb {

struct WalOptions {
  // Rotate to a new segment once the current one exceeds this many bytes.
  std::size_t segment_bytes = simfs::RecordLog::kDefaultSegmentBytes;
};

struct WalStats : simfs::RecordLog::Stats {
  uint64_t batches = 0;  // kBatch records
  uint64_t samples = 0;  // samples logged across all batches
};

class Wal {
 public:
  // Record payload types (first payload byte).
  static constexpr uint8_t kBatchRecord = 1;
  static constexpr uint8_t kPurgeRecord = 2;
  static constexpr uint8_t kDeleteRecord = 3;

  // Starts a fresh generation: opens (and syncs) segment `start_seq`.
  Wal(simfs::DurableDirPtr dir, uint64_t start_seq, WalOptions options = {});
  // Logs into `log`, a generation simfs::RecordLog::open() started.
  explicit Wal(std::unique_ptr<simfs::RecordLog> log);

  // Commit ordering between writers and the checkpoint. Writers hold the
  // shared guard across [log_* → store apply]; checkpoint holds the
  // barrier across [snapshot → truncate], so it observes no half-applied
  // mutation and truncates no unapplied record.
  using CommitGuard = std::shared_lock<std::shared_mutex>;
  using Barrier = std::unique_lock<std::shared_mutex>;
  CommitGuard commit_shared() { return CommitGuard(commit_mu_); }
  Barrier commit_barrier() { return Barrier(commit_mu_); }

  // Logs a sample batch and returns once it is durable (group commit);
  // false if it could not be made durable, and the caller must then not
  // apply it. Caller holds a CommitGuard.
  bool log_batch(const metrics::SampleRef* samples, std::size_t count);
  bool log_purge(common::TimestampMs cutoff);
  bool log_delete(const std::vector<metrics::LabelMatcher>& matchers);

  // Installs a snapshot (body from `write_body`) and truncates the log
  // into a new generation with an empty series dictionary; false, with
  // the log untouched, if the snapshot could not be installed. Caller
  // holds the Barrier.
  bool checkpoint(const simfs::RecordLog::BodyWriter& write_body);

  // Sequence number of the segment currently being written.
  uint64_t current_seq() const;

  WalStats stats() const;

 private:
  // Appends payload_ to the log and waits for it to be durable. Takes
  // `lock` (on mu_) and releases it before the group commit.
  bool commit(std::unique_lock<std::mutex>& lock);

  std::unique_ptr<simfs::RecordLog> log_;

  // Writers shared, checkpoint exclusive. Ordered before mu_.
  std::shared_mutex commit_mu_;

  // Guards the dictionary, the encode scratch and the counters; ordered
  // before the log's own mutex.
  mutable std::mutex mu_;
  // Series → ref for the current generation. Keyed by full interned
  // label set (fingerprint-collision safe).
  std::unordered_map<metrics::InternedLabels, uint64_t,
                     metrics::InternedLabelsHash>
      dict_;
  uint64_t next_ref_ = 1;
  // Encode scratch, reused under mu_ so steady-state logging is
  // allocation-free.
  std::string payload_;
  std::string defs_;
  std::string samples_buf_;
  uint64_t batches_ = 0;
  uint64_t samples_ = 0;
};

struct WalReplayResult : simfs::LogScan {
  uint64_t samples_appended = 0;  // accepted by the store
};

// Replays every segment with sequence >= seq_floor into `store`, which
// must NOT have a WAL attached (records would be re-logged). Records are
// fully decoded and validated before any sample is applied, so a corrupt
// record never applies partially; the invalid tail is durably truncated
// away (see simfs::scan_log).
WalReplayResult replay_wal(simfs::DurableDir& dir, uint64_t seq_floor,
                           TimeSeriesStore& store);

// Snapshot + WAL lifecycle for one TimeSeriesStore. The record log's
// snapshot file wraps the store's v2 snapshot with the WAL sequence floor
// it covers; segments below the floor are already folded into the
// snapshot and are never replayed.
class DurableTsdb {
 public:
  struct OpenResult {
    std::size_t snapshot_samples = 0;  // restored from the snapshot file
    WalReplayResult replay;
  };

  DurableTsdb(StorePtr store, simfs::DurableDirPtr dir,
              WalOptions options = {});
  ~DurableTsdb();

  // Clears the store, recovers it through simfs::RecordLog::open() —
  // snapshot, replay with torn-tail repair, a checkpoint after damage —
  // and attaches the new WAL generation. Call exactly once, before any
  // writes; also serves in-place crash recovery on a live StorePtr —
  // readers holding the same shared_ptr see the recovered state.
  OpenResult open();

  // Consistent cut: atomically installs a snapshot of the current store
  // state and truncates the WAL. Concurrent writers block for the
  // duration (commit barrier). Returns false if the snapshot could not
  // be installed (the WAL is then left untouched — no data loss).
  bool checkpoint();

  Wal& wal() { return *wal_; }

 private:
  StorePtr store_;
  simfs::DurableDirPtr dir_;
  WalOptions options_;
  std::shared_ptr<Wal> wal_;
};

}  // namespace ceems::tsdb
