// Long-term store — the Thanos analogue of Fig. 1. Like the Thanos
// querier, it serves recent data from the hot TSDB itself and only history
// from its own storage: a ladder of pre-aggregated resolution levels
// (e.g. 5m → 1h). There is no second raw copy. sync_from() advances a
// cursor over the hot store and raises the hot store's out-of-bounds
// watermark to it, so nothing at or below the cursor changes underneath a
// reader (a late live sample is rejected there, as Prometheus' head
// rejects one below minValidTime). Cursor-driven compaction folds the hot
// samples of every bucket the cursor has passed into per-bucket
// {count, sum, min, max, first, last, inc} columns (tsdb/chunk.h
// AggBucket), then purges the hot store past the downsample horizon, so
// `downsample_after_ms` is the stack's hot retention; each level enforces
// its own retention. It implements Queryable two ways: select() splices a
// last-per-bucket history synthesised from the finest level with the hot
// store's samples in (purge boundary, cursor] (so the PromQL engine and
// the HTTP API work unchanged), and select_agg() hands the
// resolution-aware planner whole bucket columns when a level covers the
// requested span exactly.
//
// A read past the ladder's horizon pays only for the series it returns.
// select() reads history only when its span starts at or before the purge
// boundary; otherwise it returns the hot store's views as they are. Each
// level keys its series by the hot series' interned labels (hashed by
// fingerprint, compared by symbol vector, so colliding fingerprints stay
// distinct), so compaction folds without building string labels. History
// reads and select_agg() scan the level once, evaluating matchers on
// symbols (tsdb/selector.h); the matched series keep their interned
// labels and are sorted in string-label order, as the hot store's are.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>

#include "tsdb/storage.h"

namespace ceems::tsdb {

// One rung of the resolution ladder.
struct AggLevelConfig {
  // Bucket width. Levels must be listed in ascending width and each
  // coarser width a multiple of every finer one (5m → 1h), so one purge
  // boundary can align to the whole ladder.
  int64_t resolution_ms = 5 * common::kMillisPerMinute;
  // Retention of this level's buckets (0 = infinite). Coarser levels
  // typically keep more history than finer ones.
  int64_t retention_ms = 0;
};

struct LongTermConfig {
  // Hot samples older than this are purged from the hot store on the next
  // compaction (the finest ladder level takes over as their history): the
  // hot retention of a stack that owns this store.
  int64_t downsample_after_ms = 2 * common::kMillisPerHour;
  // Resolution ladder, finest first; by default one 5-minute level kept
  // forever.
  std::vector<AggLevelConfig> levels{AggLevelConfig{}};
};

// Counters for how queries were served. select() splices the synthesised
// history with the hot store's still-compressed chunks; spliced_points_copied
// counts samples that had to be decoded and filtered because a hot slice
// overlapped the history — zero under the compaction invariant (hot reads
// start past a boundary the ladder has fully aggregated), so a nonzero value
// flags a horizon bug. The agg counters are per ladder level, index-aligned
// with agg_resolutions(): how many select_agg() calls each level answered and
// how many bucket rows it returned — points_scanned is the headline number the
// resolution-aware planner drives down versus raw_points_scanned.
struct LongTermSelectStats {
  // Ladder series whose labels select() and select_agg() checked against
  // the matchers: 0 for a read past the purge boundary, the whole level
  // for one that reaches history.
  uint64_t ladder_series_visited = 0;
  uint64_t chunk_backed_views = 0;
  uint64_t spliced_views = 0;
  uint64_t spliced_points_copied = 0;
  // select() traffic: calls and total samples in the returned views.
  uint64_t raw_selects = 0;
  uint64_t raw_points_scanned = 0;
  // select_agg() traffic: refusals (no such level / incomplete coverage),
  // and per-level hits / bucket rows returned.
  uint64_t agg_rejects = 0;
  std::vector<uint64_t> level_hits;
  std::vector<uint64_t> level_points_scanned;
};

class LongTermStore final : public Queryable {
 public:
  // Reads recent samples through `hot` and owns its retention. Throws
  // std::invalid_argument when `hot` is null.
  explicit LongTermStore(StorePtr hot, LongTermConfig config = {});

  // Advances the cursor to the newest hot sample and raises the hot
  // store's watermark to it; copies nothing. Returns the number of hot
  // samples newer than the old cursor. Throws std::invalid_argument
  // unless `hot` is the store this one reads through.
  std::size_t sync_from(const TimeSeriesStore& hot);

  // Timestamp of the newest sample synced so far (-1 before the first
  // sample).
  TimestampMs sync_cursor() const;

  // Advances every level's compaction cursor to the newest bucket
  // boundary the cursor has passed, folds the hot samples in between into
  // aggregate buckets, purges the hot store past the downsample horizon
  // (aligned down to the coarsest bucket boundary), and applies per-level
  // retention.
  void compact(common::TimestampMs now);

  std::vector<SeriesView> select(const std::vector<LabelMatcher>& matchers,
                                 TimestampMs min_t,
                                 TimestampMs max_t) const override;
  // A span that stays past the purge boundary reads the hot store's
  // select_newest() over (purge boundary, cursor], as select() reads its
  // views; a span that reaches history takes the default.
  std::vector<NewestSample> select_newest(
      const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
      TimestampMs max_t) const override;

  std::vector<int64_t> agg_resolutions() const override;
  std::optional<std::vector<AggSeriesView>> select_agg(
      int64_t resolution_ms, const std::vector<LabelMatcher>& matchers,
      TimestampMs min_end, TimestampMs max_end) const override;

  // This store's own footprint, which is the ladder's: recent samples are
  // counted by the hot store. symbol_bytes is the process-wide table.
  StorageStats stats() const;
  // Always empty: recent samples live only in the hot store. Kept only
  // because perfbench reports it as longterm.bytes; it goes when the
  // benchmark next changes.
  StorageStats raw_stats() const { return {}; }
  // Aggregate-ladder footprint (num_samples counts bucket rows).
  StorageStats downsampled_stats() const;
  LongTermSelectStats select_stats() const;

 private:
  using SeriesMap = std::unordered_map<InternedLabels, AggChunkedSeries,
                                       metrics::InternedLabelsHash>;

  struct AggLevel {
    AggLevelConfig config;
    // Keyed by the hot series' interned labels. Reads sort what they
    // match by string labels, so iteration order never reaches a caller.
    SeriesMap series;
    // Buckets with end <= cursor_ms are complete and immutable.
    TimestampMs cursor_ms = INT64_MIN;
    // Buckets with end <= purged_end_ms may have been dropped by
    // retention; coverage below this line cannot be promised.
    TimestampMs purged_end_ms = INT64_MIN;
    std::size_t num_buckets = 0;
  };

  // Calls fn for each series of `level` that `selector` matches and
  // counts the visits in select_stats_. Caller holds mu_.
  template <typename Fn>
  void for_each_match(const AggLevel& level, const Selector& selector,
                      Fn&& fn) const;

  // Largest boundary <= t aligned to every level's resolution.
  TimestampMs align_down_all_levels(TimestampMs t) const;
  // True when select() over [min_t, max_t] reads synthesised history.
  // Caller holds mu_.
  bool reaches_history(TimestampMs min_t, TimestampMs max_t) const;
  // Oldest timestamp read through the hot store: syncs start at t = 0,
  // and the hot store is purged up to hot_purged_end_. Caller holds mu_.
  TimestampMs hot_floor() const;

  const StorePtr hot_;
  LongTermConfig config_;
  // Lock order: mu_, then the hot store's watermark gate (sync only) or
  // its WAL's shared commit lock (purge only), then hot shard locks. Hot
  // writers never take mu_.
  mutable std::mutex mu_;
  std::vector<AggLevel> levels_;  // ascending resolution
  TimestampMs sync_cursor_ = -1;
  // Compaction purged hot samples with t <= this (INT64_MIN: none yet).
  TimestampMs hot_purged_end_ = INT64_MIN;
  mutable LongTermSelectStats select_stats_;  // guarded by mu_
};

}  // namespace ceems::tsdb
