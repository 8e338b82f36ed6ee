// Label-indexed in-memory time-series storage — the Prometheus TSDB
// analogue. Series are identified by their full label set; an inverted
// index (label name/value symbols → series ids) accelerates matcher
// evaluation. Samples per series live in Gorilla-compressed chunks
// (tsdb/chunk.h): a run of immutable sealed chunks plus a small mutable
// head, cutting steady-state memory to a few bytes per sample while
// keeping queries bit-identical to the raw representation.
//
// Label strings are interned once in the process-wide SymbolTable
// (metrics/symbols.h); series carry small vectors of 32-bit symbol ids
// with a precomputed fingerprint, so the scrape→storage hot path hashes
// and compares ids, not strings. A series stores no string labels at all,
// and select() builds none: its views carry the series' InternedLabels,
// sorted in string-label order by InternedLabels::operator<, which reads
// the lock-free SymbolTable::text() only where two ids differ. An
// instant selector reads through select_newest() instead, which takes
// one sample per series under the shard lock and builds no views. Only
// snapshot_bytes() writes label strings. Fingerprints are not trusted to
// be unique: series ids are distinct from fingerprints, and every lookup
// verifies the full symbol vector, so colliding label sets get distinct
// series instead of aliasing.
//
// Memory layout per shard: series live in a slot vector (a series id is
// its slot index) whose freed slots are reused; the fingerprint hash is
// an array of bucket heads chained through the slots, so it holds one id
// inline per bucket and costs no node per series; the inverted index
// (tsdb/posting_index.h) keeps each posting list as sorted ids in a flat
// table, small lists in place. A new series therefore costs its symbol
// vector, its head buffer and a few bytes of slot, bucket and postings —
// and StorageStats::approx_bytes counts each of those.
//
// Concurrency: the series map is sharded by label-set fingerprint into
// kShardCount lock-striped shards, each with its own shared_mutex and
// inverted index. An append batch takes each shard lock it touches once,
// and a sample touches exactly one shard, so writers on many threads
// (a scrape sweep's per-shard tasks, rule workers) scale with cores
// instead of serialising on one mutex.
// Reads take per-shard shared locks in sequence; a select() that overlaps
// a concurrent write may see the new sample in one shard but not another —
// the same head-block semantics Prometheus exposes to queriers. Sealed
// chunks are immutable and handed to readers by shared_ptr, so a
// SeriesView stays valid after the shard lock is released and decoding
// runs on the reader's thread.
//
// The same Queryable interface is implemented by the long-term store, so
// the PromQL engine runs unchanged over either — mirroring how Thanos
// serves the Prometheus remote-read API.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "metrics/labels.h"
#include "metrics/model.h"
#include "metrics/symbols.h"
#include "tsdb/chunk.h"
#include "tsdb/posting_index.h"

namespace ceems::tsdb {

using common::TimestampMs;
using metrics::InternedLabels;
using metrics::LabelMatcher;
using metrics::Labels;

// One series' newest sample in a span, as Queryable::select_newest()
// returns it.
struct NewestSample {
  InternedLabels labels;
  SamplePoint sample;
};

// Anything the PromQL engine can query.
class Queryable {
 public:
  virtual ~Queryable() = default;
  // All series matching every matcher, restricted to samples in
  // [min_t, max_t] inclusive, sorted by labels (string order). Views are
  // cheap to copy (symbol vector plus chunk refcounts); call samples()
  // only where the full sample vector is actually consumed. Every
  // returned view has at least one sample in range.
  virtual std::vector<SeriesView> select(
      const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
      TimestampMs max_t) const = 0;
  // The instant selector's read: for each series select() would return,
  // its labels and its newest sample in [min_t, max_t], in select()'s
  // order. A staleness marker is returned like any other sample. Must
  // equal select() followed by taking each view's last sample, bit for
  // bit; this default does exactly that. A store overrides it to read
  // one sample per series without building the views.
  virtual std::vector<NewestSample> select_newest(
      const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
      TimestampMs max_t) const;
  // Bucket widths (ms, ascending) of pre-aggregated resolution levels this
  // source maintains. Raw-only sources return {} and the resolution-aware
  // planner never engages for them.
  virtual std::vector<int64_t> agg_resolutions() const { return {}; }
  // Aggregate buckets at exactly `resolution_ms` for series matching every
  // matcher, restricted to buckets whose end timestamp lies in
  // [min_end, max_end] (both expected to be multiples of the resolution).
  // Returns nullopt unless the level covers that whole span exactly —
  // complete on the right (compaction cursor has passed max_end) and
  // unpurged on the left — so a present-but-bucketless series means "no
  // raw samples there", never "not aggregated yet". Views are sorted by
  // labels, the same order select() emits.
  virtual std::optional<std::vector<AggSeriesView>> select_agg(
      int64_t resolution_ms, const std::vector<LabelMatcher>& matchers,
      TimestampMs min_end, TimestampMs max_end) const {
    (void)resolution_ms;
    (void)matchers;
    (void)min_end;
    (void)max_end;
    return std::nullopt;
  }
};

struct StorageStats {
  std::size_t num_series = 0;
  std::size_t num_samples = 0;
  // Real per-store footprint: sealed chunk bytes, head and sealed-list
  // capacities, per-series symbol vectors, the series slots (free ones
  // too), the fingerprint buckets and the inverted index (its entries and
  // posting capacities). Allocator headers and rounding are not counted.
  std::size_t approx_bytes = 0;
  // Footprint of the process-wide SymbolTable. Shared by every store in
  // the process, so it is reported separately: summing approx_bytes
  // across stores stays correct, and symbol_bytes must be added once at
  // most per process, not per store.
  std::size_t symbol_bytes = 0;
  // Live samples append_refs rejected at or below the watermark, since
  // the store was created.
  std::size_t out_of_bounds = 0;
};

class Wal;       // tsdb/wal.h
class Selector;  // tsdb/selector.h

class TimeSeriesStore final : public Queryable {
 public:
  // Lock stripes; power of two so shard_of() is a mask.
  static constexpr std::size_t kShardCount = 16;

  // The one sample-write entry point. Appends a batch of samples, each
  // creating its series on first sight; a sample older than its series'
  // newest is dropped (out-of-order, as in Prometheus) and a duplicate
  // timestamp overwrites. With a WAL attached the whole batch is one
  // durable record, logged before it is applied; a batch the WAL could
  // not make durable is not applied (returns 0), as Prometheus' head
  // appender rolls back on a WAL error. Samples are grouped by shard so
  // each shard lock is taken once per batch; the caller's label pointers
  // must stay valid for the call. Returns the number of samples accepted.
  // A sample at or below the watermark is out of bounds: it is neither
  // logged nor applied, only counted in StorageStats::out_of_bounds.
  std::size_t append_refs(const metrics::SampleRef* samples,
                          std::size_t count);

  // WAL replay's write, and the apply step of append_refs: applies a
  // batch with no logging and no watermark check. Outside append_refs
  // only recovery calls it, for batches the log already holds.
  std::size_t replay_refs(const metrics::SampleRef* samples,
                          std::size_t count);

  // Out-of-bounds watermark, Prometheus' head minValidTime: the newest
  // timestamp a reader already treats as final (the long-term store's
  // sync cursor). Only ever raised, by advance_watermark(). clear(), WAL
  // replay and snapshot restore neither check nor reset it, so a store
  // recovered in place keeps rejecting what it rejected before.
  // kNoWatermark until the first raise.
  TimestampMs watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  static constexpr TimestampMs kNoWatermark = INT64_MIN;

  // Attaches (or detaches, with nullptr) a write-ahead log: every
  // mutation is then logged and made durable (group commit) before it is
  // applied, under the WAL's shared commit lock, and a mutation whose log
  // commit fails is not applied. Call only while no
  // writer is active — at startup, or quiesced during crash recovery.
  void set_wal(std::shared_ptr<Wal> wal);
  Wal* wal() const { return wal_.load(std::memory_order_acquire); }

  std::vector<SeriesView> select(const std::vector<LabelMatcher>& matchers,
                                 TimestampMs min_t,
                                 TimestampMs max_t) const override;
  // Reads each matched series' newest sample under its shard lock
  // (ChunkedSeries::newest_between): no slices, no head copy.
  std::vector<NewestSample> select_newest(
      const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
      TimestampMs max_t) const override;

  // One series' interned labels and its slices in a span.
  struct InternedSlices {
    InternedLabels labels;
    std::vector<ChunkSlice> slices;
  };
  // Every series with samples in [min_t, max_t], in no particular order:
  // the long-term fold's read, which keys its ladder by interned labels
  // and so needs neither string labels nor a sorted result.
  std::vector<InternedSlices> select_interned(TimestampMs min_t,
                                              TimestampMs max_t) const;

  // Drops samples older than `cutoff` from all series; removes series that
  // become empty. Returns the number of samples dropped.
  std::size_t purge_before(TimestampMs cutoff);

  // Deletes whole matching series (the API server's cardinality cleanup of
  // §II-C: metrics of jobs shorter than the cutoff are removed wholesale).
  std::size_t delete_series(const std::vector<LabelMatcher>& matchers);

  // Drops every series and sample. The WAL attachment is untouched; crash
  // recovery detaches first, clears, then replays. In-place reset means
  // every holder of this StorePtr (scraper, rules, API) sees the
  // recovered state without re-wiring.
  void clear();

  StorageStats stats() const;

  // Newest sample timestamp across all series, or nullopt when empty.
  std::optional<TimestampMs> max_time() const;

  // Replication cursor step: counts the samples at/after `since` and the
  // newest timestamp among them (kNoWatermark when there are none), then
  // raises the watermark to that timestamp. Atomic with respect to
  // append_refs, which holds the same gate from its check to its apply:
  // no sample at or below the new watermark can land uncounted, even from
  // a batch that was already in flight. Takes each shard's shared lock in
  // turn; decodes only sealed chunks that straddle `since`.
  struct SinceCount {
    std::size_t samples = 0;
    TimestampMs newest = kNoWatermark;
  };
  SinceCount advance_watermark(TimestampMs since);

  // Durability: a compact binary snapshot of every series ("CEEMSTSDB2":
  // u64-length-prefixed labels, sealed chunks written compressed as-is,
  // then the raw head), shard by shard in series-id order. Holds every
  // shard lock for the duration, so the snapshot is a consistent cut.
  // The WAL checkpoint (tsdb/wal.h) wraps these bytes in its
  // atomically-installed snapshot file.
  std::string snapshot_bytes() const;
  // Loads a snapshot into this (empty or compatible) store; restoring into
  // an empty store adopts sealed chunks without re-encoding. Returns
  // samples restored, or nullopt when the bytes are truncated or corrupt
  // (every chunk is decode-verified against its header). A nullopt return
  // leaves the store unmodified: the whole snapshot is parsed and
  // validated into scratch structures before any series is created or
  // appended to.
  std::optional<std::size_t> restore_from_bytes(std::string_view bytes);

  static std::size_t shard_of(uint64_t fingerprint) {
    return static_cast<std::size_t>(fingerprint) & (kShardCount - 1);
  }

 private:
  // A series' slot index in its shard. 32 bits is far more series than a
  // shard can hold in memory.
  using SeriesId = PostingIndex::Id;
  static constexpr SeriesId kNoSeries = UINT32_MAX;

  struct StoredSeries {
    // The series' only label copy: symbol ids plus fingerprint. String
    // labels are built from it on demand, never stored.
    InternedLabels ilabels;
    ChunkedSeries data;
    // Next slot in this series' fingerprint bucket, or kNoSeries.
    SeriesId next_in_bucket = kNoSeries;
    // False for a freed slot (listed in Shard::free_slots).
    bool live = false;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    // Series by id. A freed slot is reused by a later series, but only
    // after erase_series_locked() has taken its id out of every posting.
    std::vector<StoredSeries> slots;
    std::vector<SeriesId> free_slots;
    // Fingerprint hash over the slots: bucket → first slot, chained
    // through StoredSeries::next_in_bucket. Power-of-two size, at most one
    // live series per bucket on average; lookup verifies label equality
    // along the chain, so colliding fingerprints just share it.
    std::vector<SeriesId> buckets;
    // Inverted index over interned symbols: (name, value) → ascending
    // series ids. Emptied lists are dropped.
    PostingIndex index;
    std::size_t num_samples = 0;

    std::size_t num_series() const {
      return slots.size() - free_slots.size();
    }
  };

  // Bucket of a fingerprint in a table of `num_buckets` (a power of two).
  // Multiplicative mixing: the low fingerprint bits already chose the
  // shard, so they cannot choose the bucket too.
  static std::size_t bucket_of(uint64_t fingerprint, std::size_t num_buckets) {
    return static_cast<std::size_t>((fingerprint * 0x9E3779B97F4A7C15ULL) >>
                                    32) &
           (num_buckets - 1);
  }

  // Finds the series for `labels` via its fingerprint bucket, verifying
  // label equality. Caller holds at least a shared lock.
  static const StoredSeries* find_series_locked(const Shard& shard,
                                                const InternedLabels& labels);
  // Same, creating the series (and its index entries) when absent. Caller
  // holds the exclusive lock. The reference is valid until the next
  // series is created in the shard.
  StoredSeries& get_or_create_locked(Shard& shard,
                                     const InternedLabels& labels);
  // Appends into `shard`; caller holds the shard's exclusive lock.
  bool append_locked(Shard& shard, const InternedLabels& labels, TimestampMs t,
                     double v);
  // Removes the given live, distinct series: their bucket links, their
  // ids from every posting list (one pass per list touched), then frees
  // their slots. Caller holds the exclusive lock; does not touch
  // num_samples.
  static void erase_series_locked(Shard& shard,
                                  const std::vector<SeriesId>& ids);

  // Calls read(stored, out) for each series matching `matchers`, shard by
  // shard under its shared lock, then sorts `out` by labels: the walk
  // behind select() and select_newest().
  template <typename View, typename Read>
  std::vector<View> select_sorted(const std::vector<LabelMatcher>& matchers,
                                  Read&& read) const;

  // Calls fn(id) for each series in `shard` matching the selector, in
  // ascending id order, without collecting the ids. Caller holds at least
  // a shared lock on the shard.
  template <typename Fn>
  static void for_each_match(const Shard& shard, const Selector& selector,
                             Fn&& fn);

  std::array<Shard, kShardCount> shards_;

  // append_refs holds the gate shared from its watermark check to its
  // apply; advance_watermark holds it exclusively. Ordered before the
  // WAL's commit lock and the shard locks.
  std::shared_mutex watermark_gate_;
  // Written only under the exclusive gate; atomic for watermark().
  std::atomic<TimestampMs> watermark_{kNoWatermark};
  std::atomic<std::size_t> out_of_bounds_{0};

  // Owner keeps the Wal alive; the raw pointer is what the hot path
  // loads (one relaxed-ish atomic read per batch, no refcount traffic).
  std::shared_ptr<Wal> wal_owner_;
  std::atomic<Wal*> wal_{nullptr};
};

using StorePtr = std::shared_ptr<TimeSeriesStore>;

}  // namespace ceems::tsdb
