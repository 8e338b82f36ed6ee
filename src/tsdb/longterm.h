// Long-term store — the Thanos analogue of Fig. 1. The hot TSDB keeps raw
// high-resolution samples on "local disk"; this store replicates them and,
// like the Thanos compactor, maintains a ladder of pre-aggregated
// resolution levels (e.g. raw → 5m → 1h): cursor-driven compaction folds
// raw samples into per-bucket {count, sum, min, max, first, last, inc}
// columns (tsdb/chunk.h AggBucket) as soon as a bucket can no longer
// receive samples, raw data past the downsample horizon is purged, and
// each level enforces its own retention. It implements Queryable two ways:
// select() merges a last-per-bucket history synthesised from the finest
// aggregate level with the raw tail (so the PromQL engine and the HTTP API
// work unchanged), and select_agg() hands the resolution-aware planner
// whole bucket columns when a level covers the requested span exactly.
#pragma once

#include <memory>
#include <mutex>

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
  // Raw samples older than this get aggregated away on the next
  // compaction (the finest ladder level takes over as their history).
  int64_t downsample_after_ms = 2 * common::kMillisPerHour;
  // Resolution ladder, finest first; by default one 5-minute level kept
  // forever.
  std::vector<AggLevelConfig> levels{AggLevelConfig{}};
};

// Counters for how queries were served. select() splices the synthesised
// history with still-compressed raw chunks; spliced_points_copied counts
// samples that had to be decoded and filtered because a raw slice
// overlapped the history — zero under the compaction invariant (raw is
// only purged up to a boundary the ladder has fully aggregated), so a
// nonzero value flags a horizon bug. The agg counters are per ladder
// level, index-aligned with agg_resolutions(): how many select_agg()
// calls each level answered and how many bucket rows it returned —
// points_scanned is the headline number the resolution-aware planner
// drives down versus raw_points_scanned.
struct LongTermSelectStats {
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
  explicit LongTermStore(LongTermConfig config = {});

  // Pulls new samples from the hot store (everything newer than the last
  // sync cursor), one append batch per hot shard, and advances the cursor
  // to the newest sample copied. Returns samples copied. Relies on the
  // replication invariant that pulls observe globally non-decreasing
  // timestamps: a hot sample at or before the cursor is never pulled, so
  // completed aggregate buckets never reopen.
  //
  // Lock order: mu_, then one hot shard's shared lock, then the matching
  // raw_ shard's exclusive lock. Nothing takes a hot shard lock while
  // holding a raw_ shard lock, and hot-store writers never touch this
  // store, so the order cannot invert.
  std::size_t sync_from(const TimeSeriesStore& hot);

  // Timestamp of the newest sample replicated so far (-1 before the
  // first sample).
  TimestampMs sync_cursor() const;

  // Advances every level's compaction cursor to the newest bucket
  // boundary the synced data has fully passed, folds the raw samples in
  // between into aggregate buckets, purges raw data past the downsample
  // horizon (aligned down to the coarsest bucket boundary), and applies
  // per-level retention.
  void compact(common::TimestampMs now);

  std::vector<SeriesView> select(const std::vector<LabelMatcher>& matchers,
                                 TimestampMs min_t,
                                 TimestampMs max_t) const override;

  std::vector<int64_t> agg_resolutions() const override;
  std::optional<std::vector<AggSeriesView>> select_agg(
      int64_t resolution_ms, const std::vector<LabelMatcher>& matchers,
      TimestampMs min_end, TimestampMs max_end) const override;

  // Raw shard versions followed by one counter per ladder level, so
  // query-result cache entries over this store invalidate when either
  // side mutates.
  std::vector<uint64_t> version_signature() const override;

  StorageStats stats() const;
  StorageStats raw_stats() const { return raw_.stats(); }
  // Aggregate-ladder footprint (num_samples counts bucket rows).
  StorageStats downsampled_stats() const;
  LongTermSelectStats select_stats() const;

 private:
  struct AggLevel {
    AggLevelConfig config;
    // Keyed by the full label set (ordered, so every read is
    // deterministic), like the merged select() output.
    std::map<Labels, AggChunkedSeries> series;
    // Buckets with end <= cursor_ms are complete and immutable.
    TimestampMs cursor_ms = INT64_MIN;
    // Buckets with end <= purged_end_ms may have been dropped by
    // retention; coverage below this line cannot be promised.
    TimestampMs purged_end_ms = INT64_MIN;
    std::size_t num_buckets = 0;
    uint64_t version = 0;  // bumped on every mutation of this level
  };

  // Largest boundary <= t aligned to every level's resolution.
  TimestampMs align_down_all_levels(TimestampMs t) const;

  LongTermConfig config_;
  mutable std::mutex mu_;
  TimeSeriesStore raw_;
  std::vector<AggLevel> levels_;  // ascending resolution
  TimestampMs sync_cursor_ = -1;
  TimestampMs raw_purged_end_ = INT64_MIN;  // raw samples with t <= this are gone
  mutable LongTermSelectStats select_stats_;  // guarded by mu_
};

}  // namespace ceems::tsdb
