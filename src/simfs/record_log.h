// RecordLog — the stack's one write-ahead framing, shared by the hot
// TSDB's WAL (tsdb/wal.h) and the units DB (reldb/database.h). Callers
// log opaque payloads; replay hands them back in order.
//
// Framing. A segment file ("wal-<seq>.log") starts with an 8-byte magic
// + 1-byte version + 8-byte sequence header; each record after it is
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// Group commit. Writers append under a short mutex, then wait for their
// record's LSN to become durable; the first waiter becomes the flush
// leader and syncs everything appended so far, so N concurrent writers
// coalesce into one fsync-equivalent. A failed sync fails its whole
// group and every commit after it until a checkpoint starts a new
// generation: after a failed fsync nothing buffered can be trusted. Each
// such failure truncates the log back to the end of the last
// acknowledged record, so no record of a failed generation can reach the
// disk with a later sync and replay after a crash.
//
// Recovery. scan_log() walks segments in sequence order and stops at the
// first invalid frame (bad length, CRC mismatch, short read, or a body
// the caller cannot decode): a torn tail is detected, reported and
// truncated away — never partially applied.
//
// Checkpoint. The snapshot file ("snapshot" = "CEEMSDUR1" + u64 sequence
// floor + caller body) is installed atomically; segments below the floor
// are folded into it and deleted, and replay skips them.
//
// Lifecycle. RecordLog::open() is the one way a durable store comes up.
// The commit rule that goes with it: a mutation whose flush_to() fails
// is not applied.
//
// Shipping. ship_to() mirrors the durable files into another directory
// (Litestream's model: the snapshot and the log segments, not a list of
// mutations kept in memory), so open() over the copy restores the store.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simfs/durable_dir.h"

namespace ceems::simfs {

struct LogScan {
  uint64_t records_applied = 0;
  uint64_t next_seq = 1;  // above every segment: where a new writer starts
  // A trailing invalid frame was found and everything from it on was
  // discarded — the expected signature of a crash mid-append.
  bool torn_tail = false;
  // Non-empty when replay stopped before the tail (corrupt interior
  // segment) — recovery still proceeds with the valid prefix.
  std::string error;
};

class RecordLog {
 public:
  static constexpr std::size_t kDefaultSegmentBytes = 4u << 20;
  // Hard cap on one record's payload; anything larger on disk is treated
  // as corruption during replay.
  static constexpr std::size_t kMaxPayloadBytes = 1u << 26;

  struct Stats {
    uint64_t records = 0;   // framed records appended
    uint64_t groups = 0;    // durable flush groups (fsync-equivalents)
    uint64_t segments = 0;  // segments created by this writer
    uint64_t bytes = 0;     // framed bytes appended
  };

  // Appends a snapshot body to the string it is given.
  using BodyWriter = std::function<void(std::string&)>;
  // Applies one snapshot body or log payload; false, having applied
  // nothing, for bytes it cannot decode.
  using PayloadFn = std::function<bool(std::string_view)>;

  struct Recovery {
    std::unique_ptr<RecordLog> log;  // the new generation
    LogScan scan;
    std::string snapshot_error;  // non-empty: the snapshot was unusable
  };

  // Brings up the store kept in `dir`: hands the snapshot body to
  // `restore` and every later payload to `apply` (repairing a torn
  // tail), then starts a new generation. After an unusable snapshot or
  // a damaged interior segment it checkpoints the recovered state (body
  // from `write_body`), so nothing past the damage can replay over later
  // writes; if that checkpoint cannot be installed, every commit fails
  // until a later checkpoint succeeds.
  static Recovery open(DurableDirPtr dir, std::size_t segment_bytes,
                       const PayloadFn& restore, const PayloadFn& apply,
                       const BodyWriter& write_body);

  // Starts a fresh generation: opens (and syncs) segment `start_seq`.
  RecordLog(DurableDirPtr dir, uint64_t start_seq,
            std::size_t segment_bytes = kDefaultSegmentBytes);

  // Frames `payload` into the current segment (rotating first if full)
  // and returns its LSN. Call flush_to(lsn) exactly once per LSN.
  uint64_t append(std::string_view payload);
  // Group commit: true once the record `lsn` is durable, false if a sync
  // failed in this generation.
  bool flush_to(uint64_t lsn);
  // True when the next append() would rotate into a new segment.
  bool full() const;
  // True when a sync failed in this generation: every commit fails until
  // a checkpoint starts the next one.
  bool failed() const;

  // Installs a snapshot (body from `write_body`) covering everything
  // logged so far, deletes every segment and starts the next generation.
  // No append may be in flight. False, with the log untouched, if the
  // snapshot could not be installed.
  bool checkpoint(const BodyWriter& write_body);

  // Hands every payload still in the log (the segments the last snapshot
  // does not cover) to `fn`, in log order, until `fn` returns false or a
  // frame is invalid. Repairs nothing. No append may be in flight.
  void read_payloads(const PayloadFn& fn) const;

  // Brings `replica` up to this log's durable files: the snapshot when
  // the replica's copy differs, the segment bytes it lacks (a segment
  // whose copy is not a prefix of ours is replaced), and no segment we
  // have deleted. open() over `replica` then restores what this log
  // acknowledged. False if a file could not be written. No append may be
  // in flight.
  bool ship_to(DurableDir& replica) const;

  // Sequence number of the segment currently being written.
  uint64_t current_seq() const;
  Stats stats() const;

  static std::string segment_name(uint64_t seq);
  // Parses "wal-<seq>.log"; nullopt for other names.
  static std::optional<uint64_t> parse_segment_name(std::string_view name);

 private:
  // Opens segment seq_ (header append). Caller holds mu_.
  void open_segment_locked();
  // Cuts the log back to the end of the last acknowledged record,
  // removing any segment rotated into since. Caller holds mu_.
  void truncate_to_acked_locked();

  DurableDirPtr dir_;
  std::size_t segment_limit_;

  mutable std::mutex mu_;
  std::condition_variable flush_cv_;
  uint64_t seq_ = 0;
  std::string segment_;            // current segment file name
  std::size_t segment_bytes_ = 0;  // bytes appended to current segment
  uint64_t next_lsn_ = 0;
  uint64_t flushed_lsn_ = 0;  // records up to it need no more flushing
  uint64_t durable_lsn_ = 0;  // flush_to() succeeds at or below it
  // Where the last acknowledged record ends: segment and byte offset.
  uint64_t acked_seq_ = 0;
  std::size_t acked_bytes_ = 0;
  // The oldest segment replay reads: the snapshot covers those below.
  uint64_t floor_ = 0;
  bool flush_in_progress_ = false;
  bool sync_failed_ = false;  // since the generation started
  // Segments with appended-but-unsynced bytes; the flush leader drains it.
  std::vector<std::string> dirty_segments_;
  // Frame scratch, reused under mu_ so steady-state logging is
  // allocation-free.
  std::string frame_;
  Stats stats_;
};

// Hands every payload of the segments with sequence >= seq_floor to
// `apply`, in log order. `apply` returns false, having applied nothing,
// for a body it cannot decode; that ends the scan like a bad frame. An
// invalid tail is durably truncated away, so the next writer appends
// after the last valid record.
LogScan scan_log(DurableDir& dir, uint64_t seq_floor,
                 const RecordLog::PayloadFn& apply);

// Atomically installs a snapshot covering every segment below `floor`.
bool install_log_snapshot(DurableDir& dir, uint64_t floor,
                          const RecordLog::BodyWriter& write_body);

}  // namespace ceems::simfs
