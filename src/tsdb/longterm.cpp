#include "tsdb/longterm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "metrics/model.h"
#include "tsdb/selector.h"

namespace ceems::tsdb {

namespace {

template <typename View>
void sort_by_labels(std::vector<View>& views) {
  std::sort(views.begin(), views.end(), [](const View& a, const View& b) {
    return a.labels < b.labels;
  });
}

// A freshly-opened bucket: min/max start as NaN ("no non-NaN sample seen
// yet"), sum starts at 0 so the bucket fold is the same left fold the
// engine's sum_over_time runs.
AggBucket open_bucket(TimestampMs end) {
  AggBucket bucket;
  bucket.t = end;
  bucket.min = std::numeric_limits<double>::quiet_NaN();
  bucket.max = bucket.min;
  return bucket;
}

// Folds one raw sample into an open bucket. Mirrors the engine's window
// folds exactly (DESIGN.md §10): staleness markers touch only marker_t
// (range windows filter them before folding), sum is a left fold in time
// order, min/max keep the earliest strict extremum over non-NaN samples
// (NaN while none seen), and inc is the positive-delta fold
// counter_increase() computes over the bucket's sample pairs.
void fold_sample(AggBucket& bucket, TimestampMs t, double v) {
  if (metrics::is_stale_marker(v)) {
    bucket.marker_t = t;
    return;
  }
  bucket.marker_t = 0;
  if (bucket.count == 0) {
    bucket.first_t = t;
    bucket.first_v = v;
  } else {
    double delta = v - bucket.last_v;
    bucket.inc += delta >= 0 ? delta : v;
  }
  if (!std::isnan(v)) {
    if (std::isnan(bucket.min)) {
      bucket.min = v;
      bucket.max = v;
    } else {
      if (v < bucket.min) bucket.min = v;
      if (bucket.max < v) bucket.max = v;
    }
  }
  bucket.sum += v;
  bucket.last_t = t;
  bucket.last_v = v;
  ++bucket.count;
}

}  // namespace

LongTermStore::LongTermStore(StorePtr hot, LongTermConfig config)
    : hot_(std::move(hot)), config_(std::move(config)) {
  if (!hot_) {
    throw std::invalid_argument("LongTermStore: no hot store to read through");
  }
  std::vector<AggLevelConfig> ladder = config_.levels;
  ladder.erase(std::remove_if(
                   ladder.begin(), ladder.end(),
                   [](const AggLevelConfig& l) { return l.resolution_ms <= 0; }),
               ladder.end());
  std::sort(ladder.begin(), ladder.end(),
            [](const AggLevelConfig& a, const AggLevelConfig& b) {
              return a.resolution_ms < b.resolution_ms;
            });
  levels_.reserve(ladder.size());
  for (const auto& level_config : ladder) {
    AggLevel level;
    level.config = level_config;
    levels_.push_back(std::move(level));
  }
  select_stats_.level_hits.assign(levels_.size(), 0);
  select_stats_.level_points_scanned.assign(levels_.size(), 0);
}

std::size_t LongTermStore::sync_from(const TimeSeriesStore& hot) {
  if (&hot != hot_.get()) {
    throw std::invalid_argument(
        "LongTermStore::sync_from: not the store it reads through");
  }
  std::lock_guard lock(mu_);
  // The replication invariant: every hot sample newer than the cursor is
  // counted, the cursor moves to the newest of them, and the watermark
  // keeps anything at or below the cursor from arriving later — so a span
  // a reader has seen, or a bucket compaction has folded, never changes.
  TimeSeriesStore::SinceCount fresh =
      hot_->advance_watermark(sync_cursor_ + 1);
  if (fresh.samples > 0) sync_cursor_ = fresh.newest;
  return fresh.samples;
}

TimestampMs LongTermStore::sync_cursor() const {
  std::lock_guard lock(mu_);
  return sync_cursor_;
}

TimestampMs LongTermStore::hot_floor() const {
  if (hot_purged_end_ == INT64_MIN) return 0;
  return std::max<TimestampMs>(0, hot_purged_end_ + 1);
}

bool LongTermStore::reaches_history(TimestampMs min_t,
                                    TimestampMs max_t) const {
  return !levels_.empty() && hot_purged_end_ != INT64_MIN && min_t <= max_t &&
         min_t <= hot_purged_end_;
}

TimestampMs LongTermStore::align_down_all_levels(TimestampMs t) const {
  // For a nested ladder (each coarser width a multiple of the finer ones)
  // one pass floors to the coarsest boundary and the loop exits after the
  // verification sweep; for non-nested widths it walks down to the nearest
  // common boundary.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& level : levels_) {
      const int64_t res = level.config.resolution_ms;
      TimestampMs aligned = floor_div(t, res) * res;
      if (aligned != t) {
        t = aligned;
        changed = true;
      }
    }
  }
  return t;
}

void LongTermStore::compact(common::TimestampMs now) {
  std::lock_guard lock(mu_);

  // 1. Advance each level's cursor to the newest bucket boundary the
  //    synced data has fully passed and fold the hot samples in between.
  //    The hot store's watermark is what makes a bucket whose end the
  //    cursor passed final: no sample at or before sync_cursor_ can
  //    arrive later.
  if (sync_cursor_ >= 0) {
    for (auto& level : levels_) {
      const int64_t res = level.config.resolution_ms;
      TimestampMs target = floor_div(sync_cursor_, res) * res;
      if (level.cursor_ms != INT64_MIN && target <= level.cursor_ms) continue;
      TimestampMs from = level.cursor_ms == INT64_MIN
                             ? hot_floor()
                             : std::max(hot_floor(), level.cursor_ms + 1);
      // Folds on the hot series' interned labels: no string label set is
      // built, and a known series costs one fingerprint-hashed lookup.
      for (auto& view : hot_->select_interned(from, target)) {
        AggChunkedSeries& series =
            level.series.try_emplace(std::move(view.labels)).first->second;
        AggBucket bucket;
        bool open = false;
        for (const auto& sample : decode_slices(view.slices)) {
          TimestampMs end = agg_bucket_end(sample.t, res);
          if (open && end != bucket.t) {
            if (series.append(bucket)) ++level.num_buckets;
            open = false;
          }
          if (!open) {
            bucket = open_bucket(end);
            open = true;
          }
          fold_sample(bucket, sample.t, sample.v);
        }
        if (open && series.append(bucket)) ++level.num_buckets;
      }
      level.cursor_ms = target;
    }
  }

  // 2. Purge the hot store past the downsample horizon, aligned down to a
  //    boundary every level has both reached and can represent — so the
  //    finest level's last-per-bucket synthesis seamlessly takes over as
  //    the history select() serves.
  TimestampMs boundary = now - config_.downsample_after_ms;
  for (const auto& level : levels_) {
    if (level.cursor_ms == INT64_MIN) {
      boundary = INT64_MIN;
      break;
    }
    boundary = std::min(boundary, level.cursor_ms);
  }
  if (boundary != INT64_MIN) boundary = align_down_all_levels(boundary);
  if (boundary != INT64_MIN &&
      (hot_purged_end_ == INT64_MIN || boundary > hot_purged_end_)) {
    hot_->purge_before(boundary + 1);  // keep only t > boundary: a sample at
                                       // exactly the boundary lives in the
                                       // bucket ending there
    hot_purged_end_ = boundary;
  }

  // 3. Per-level retention: drop buckets whose end is older than the
  //    horizon. purged_end_ms only advances when something was actually
  //    dropped — an untouched empty span still has exact (vacuous)
  //    coverage.
  for (auto& level : levels_) {
    if (level.config.retention_ms <= 0) continue;
    TimestampMs keep_from = now - level.config.retention_ms;
    std::size_t dropped = 0;
    for (auto it = level.series.begin(); it != level.series.end();) {
      dropped += it->second.drop_before(keep_from);
      if (it->second.empty()) {
        it = level.series.erase(it);
      } else {
        ++it;
      }
    }
    if (dropped > 0) {
      level.num_buckets -= dropped;
      level.purged_end_ms = std::max(level.purged_end_ms, keep_from - 1);
    }
  }
}

template <typename Fn>
void LongTermStore::for_each_match(const AggLevel& level,
                                   const Selector& selector, Fn&& fn) const {
  if (!selector.satisfiable()) return;
  for (const auto& [labels, series] : level.series) {
    ++select_stats_.ladder_series_visited;
    if (selector.matches(labels)) fn(labels, series);
  }
}

std::vector<SeriesView> LongTermStore::select(
    const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
    TimestampMs max_t) const {
  std::lock_guard lock(mu_);
  ++select_stats_.raw_selects;

  // History the hot store no longer holds, synthesised from the finest
  // aggregate level as one last-sample-per-bucket point each — the same
  // shape the old single-level downsample produced, including a trailing
  // staleness marker when the bucket ended with one. Only a span that
  // starts at or before the purge boundary can reach it.
  std::vector<SeriesView> history;
  if (reaches_history(min_t, max_t)) {
    const AggLevel& finest = levels_.front();
    const int64_t res = finest.config.resolution_ms;
    // agg_bucket_end(max_t) >= max_t, so a max_t at or past the purge
    // boundary ends the history there; skipping the call keeps an
    // open-ended max_t (INT64_MAX) from overflowing the bucket arithmetic.
    TimestampMs hi_end = max_t >= hot_purged_end_
                             ? hot_purged_end_
                             : std::min(hot_purged_end_,
                                        agg_bucket_end(max_t, res));
    for_each_match(
        finest, Selector(matchers),
        [&](const InternedLabels& labels, const AggChunkedSeries& series) {
          std::vector<SamplePoint> points;
          for (const auto& bucket : series.buckets_between(min_t, hi_end)) {
            SamplePoint point;
            if (bucket.marker_t != 0) {
              point = {bucket.marker_t, metrics::stale_marker()};
            } else if (bucket.count > 0) {
              point = {bucket.last_t, bucket.last_v};
            } else {
              continue;
            }
            if (point.t < min_t || point.t > max_t) continue;
            points.push_back(point);
          }
          if (points.empty()) return;
          history.push_back(
              SeriesView::owned(labels, std::move(points)));
        });
    sort_by_labels(history);
  }

  // Recent samples: the hot store's, past the purge boundary and up to
  // the cursor. The watermark keeps that span immutable, so it reads
  // exactly what a copy taken at each sync would hold. The hot store's
  // views are label-sorted with one view per label set.
  std::vector<SeriesView> fine;
  const TimestampMs lo = std::max(min_t, hot_floor());
  const TimestampMs hi = std::min(max_t, sync_cursor_);
  if (lo <= hi) fine = hot_->select(matchers, lo, hi);

  std::vector<SeriesView> out;
  std::size_t spliced_count = 0;
  // Merge the two sorted runs per label set: synthesised history
  // followed by the hot tail. Compared by the full label set, not its
  // fingerprint — two distinct label sets whose fingerprints collide
  // must stay distinct series. Straddling series are spliced
  // slice-wise: hot reads start past a boundary the ladder has fully
  // aggregated, so every hot slice is strictly newer than the history's
  // end and rides along still-compressed — no materialisation, no
  // decode. The decode-and-filter branch below only fires if that
  // invariant is ever broken.
  out.reserve(history.size() + fine.size());
  auto h = history.begin();
  auto f = fine.begin();
  while (h != history.end() || f != fine.end()) {
    if (f == fine.end() || (h != history.end() && h->labels < f->labels)) {
      out.push_back(std::move(*h++));
      continue;
    }
    if (h == history.end() || f->labels < h->labels) {
      out.push_back(std::move(*f++));
      continue;
    }
    ++spliced_count;
    SeriesView& dst = *h;
    TimestampMs newest = dst.slices.back().max_time();
    dst.slices.reserve(dst.slices.size() + f->slices.size());
    for (auto& slice : f->slices) {
      if (slice.min_time() > newest) {
        newest = slice.max_time();
        dst.slices.push_back(std::move(slice));
        continue;
      }
      // Overlap: decode (if needed) and keep only strictly newer points.
      std::vector<SamplePoint> points;
      if (slice.chunk) {
        auto decoded = slice.chunk->decode();
        if (decoded) points = std::move(*decoded);
      } else {
        points = std::move(slice.points);
      }
      std::vector<SamplePoint> kept;
      for (const auto& sample : points) {
        if (sample.t > newest) kept.push_back(sample);
      }
      select_stats_.spliced_points_copied += kept.size();
      if (!kept.empty()) {
        newest = kept.back().t;
        dst.slices.push_back(ChunkSlice{nullptr, std::move(kept)});
      }
    }
    out.push_back(std::move(*h++));
    ++f;
  }
  select_stats_.spliced_views += spliced_count;
  select_stats_.chunk_backed_views += out.size() - spliced_count;
  for (const auto& view : out) {
    select_stats_.raw_points_scanned += view.sample_count();
  }
  return out;
}

std::vector<NewestSample> LongTermStore::select_newest(
    const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
    TimestampMs max_t) const {
  {
    std::lock_guard lock(mu_);
    if (!reaches_history(min_t, max_t)) {
      ++select_stats_.raw_selects;
      std::vector<NewestSample> out;
      const TimestampMs lo = std::max(min_t, hot_floor());
      const TimestampMs hi = std::min(max_t, sync_cursor_);
      if (lo <= hi) out = hot_->select_newest(matchers, lo, hi);
      // One sample read per series.
      select_stats_.chunk_backed_views += out.size();
      select_stats_.raw_points_scanned += out.size();
      return out;
    }
  }
  return Queryable::select_newest(matchers, min_t, max_t);
}

std::vector<int64_t> LongTermStore::agg_resolutions() const {
  std::vector<int64_t> out;
  out.reserve(levels_.size());
  for (const auto& level : levels_) out.push_back(level.config.resolution_ms);
  return out;
}

std::optional<std::vector<AggSeriesView>> LongTermStore::select_agg(
    int64_t resolution_ms, const std::vector<LabelMatcher>& matchers,
    TimestampMs min_end, TimestampMs max_end) const {
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const AggLevel& level = levels_[i];
    if (level.config.resolution_ms != resolution_ms) continue;
    // Exact coverage only: complete on the right (cursor has passed the
    // last requested bucket) and unpurged on the left.
    if (level.cursor_ms == INT64_MIN || max_end > level.cursor_ms ||
        min_end <= level.purged_end_ms) {
      break;
    }
    std::vector<AggSeriesView> out;
    std::size_t rows = 0;
    for_each_match(
        level, Selector(matchers),
        [&](const InternedLabels& labels, const AggChunkedSeries& series) {
          auto buckets = series.buckets_between(min_end, max_end);
          if (buckets.empty()) return;
          rows += buckets.size();
          out.push_back({labels, std::move(buckets)});
        });
    sort_by_labels(out);
    ++select_stats_.level_hits[i];
    select_stats_.level_points_scanned[i] += rows;
    return out;
  }
  ++select_stats_.agg_rejects;
  return std::nullopt;
}

LongTermSelectStats LongTermStore::select_stats() const {
  std::lock_guard lock(mu_);
  return select_stats_;
}

StorageStats LongTermStore::downsampled_stats() const {
  std::lock_guard lock(mu_);
  StorageStats out;
  for (const auto& level : levels_) {
    out.num_series = std::max(out.num_series, level.series.size());
    out.num_samples += level.num_buckets;
    for (const auto& [labels, series] : level.series) {
      out.approx_bytes += series.approx_bytes();
    }
  }
  return out;
}

StorageStats LongTermStore::stats() const {
  StorageStats out = downsampled_stats();
  out.symbol_bytes = metrics::SymbolTable::global().approx_bytes();
  return out;
}

}  // namespace ceems::tsdb
