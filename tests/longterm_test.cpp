#include <gtest/gtest.h>

#include <limits>

#include "tsdb/longterm.h"
#include "tsdb/promql_eval.h"
#include "append_one.h"

namespace ceems::tsdb {
namespace {

using common::kMillisPerHour;
using common::kMillisPerMinute;

Labels named(const std::string& name, const std::string& host) {
  return Labels{{"hostname", host}}.with_name(name);
}

TEST(LongTerm, SyncPullsOnlyNewSamples) {
  TimeSeriesStore hot;
  LongTermStore lt;
  append_one(hot, named("m", "n1"), 1000, 1);
  append_one(hot, named("m", "n1"), 2000, 2);
  EXPECT_EQ(lt.sync_from(hot), 2u);
  append_one(hot, named("m", "n1"), 3000, 3);
  EXPECT_EQ(lt.sync_from(hot), 1u);  // incremental
  EXPECT_EQ(lt.sync_from(hot), 0u);  // idempotent

  auto series = lt.select({}, 0, 10000);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].samples().size(), 3u);
}

TEST(LongTerm, HotRetentionSurvivesInLongTerm) {
  // The hot TSDB can purge aggressively once data is replicated (Fig. 1).
  TimeSeriesStore hot;
  LongTermStore lt;
  for (int i = 0; i < 10; ++i) {
    append_one(hot, named("m", "n1"), i * 1000, i);
  }
  lt.sync_from(hot);
  hot.purge_before(8000);
  EXPECT_EQ(hot.stats().num_samples, 2u);
  EXPECT_EQ(lt.select({}, 0, 20000)[0].samples().size(), 10u);
}

TEST(LongTerm, CompactionDownsamplesOldData) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 0}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  // 2 h of 30 s samples.
  for (int i = 0; i < 240; ++i) {
    append_one(hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(hot);
  lt.compact(2 * kMillisPerHour);

  // First hour: 12 downsampled points (one per 5 min); second hour: raw.
  auto series = lt.select({}, 0, 2 * kMillisPerHour);
  ASSERT_EQ(series.size(), 1u);
  std::size_t old_points = 0;
  for (const auto& sample : series[0].samples()) {
    if (sample.t < kMillisPerHour) ++old_points;
  }
  EXPECT_EQ(old_points, 12u);
  EXPECT_EQ(series[0].samples().size(), 12u + 120u);
  // Buckets are left-open (t-res, t] so aligned PromQL windows tile whole
  // buckets; last-per-bucket keeps counter semantics: the sample exactly
  // on a boundary IS the bucket-end value.
  EXPECT_DOUBLE_EQ(series[0].samples()[0].v, 0);   // t=0, its own bucket
  EXPECT_DOUBLE_EQ(series[0].samples()[1].v, 10);  // t=300000, sample #10
}

TEST(LongTerm, CompactionPreservesCounterIncrease) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 0}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (int i = 0; i < 240; ++i) {
    append_one(hot, named("joules", "n1"), i * 30000, i * 300.0);  // 10 W
  }
  lt.sync_from(hot);

  promql::Engine engine;
  auto before = engine.eval(lt, "increase(joules[1h])", 2 * kMillisPerHour);
  lt.compact(2 * kMillisPerHour);
  auto after = engine.eval(lt, "increase(joules[1h])", 2 * kMillisPerHour);
  ASSERT_EQ(before.vector.size(), 1u);
  ASSERT_EQ(after.vector.size(), 1u);
  EXPECT_NEAR(before.vector[0].value, after.vector[0].value, 1e-9);

  // Increase over the downsampled epoch is also intact (coarser grid, same
  // cumulative counter).
  // 10 J/s counter; the 5-min grid trims the observed span to ~50.5 min.
  auto old_epoch = engine.eval(lt, "increase(joules[55m])", kMillisPerHour);
  ASSERT_EQ(old_epoch.vector.size(), 1u);
  EXPECT_GT(old_epoch.vector[0].value, 28000.0);
  EXPECT_LT(old_epoch.vector[0].value, 33000.0);
}

TEST(LongTerm, RetentionDropsAncientData) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 24 * kMillisPerHour}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  append_one(hot, named("m", "n1"), 0, 1);
  append_one(hot, named("m", "n1"), 30 * kMillisPerHour, 2);
  lt.sync_from(hot);
  lt.compact(30 * kMillisPerHour);
  auto series = lt.select({}, 0, 40 * kMillisPerHour);
  ASSERT_EQ(series.size(), 1u);
  // Sample at t=0 is beyond 24 h retention at t=30 h.
  EXPECT_EQ(series[0].samples().size(), 1u);
  EXPECT_EQ(series[0].samples()[0].t, 30 * kMillisPerHour);
}

TEST(LongTerm, SelectMergesAcrossEpochBoundary) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.levels = {{10 * kMillisPerMinute, 0}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (int i = 0; i < 240; ++i) {
    append_one(hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(hot);
  lt.compact(2 * kMillisPerHour);
  auto series = lt.select({}, 0, 3 * kMillisPerHour);
  ASSERT_EQ(series.size(), 1u);
  // Strictly increasing timestamps across the merge.
  for (std::size_t i = 1; i < series[0].samples().size(); ++i) {
    EXPECT_GT(series[0].samples()[i].t, series[0].samples()[i - 1].t);
  }
}

TEST(LongTerm, OpenEndedSelectKeepsDownsampledHistory) {
  // max_t = INT64_MAX ("everything") must serve the same history as a
  // finite bound past the newest sample; the bucket-end arithmetic on
  // such a bound must not overflow.
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.levels = {{10 * kMillisPerMinute, 0}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (int i = 0; i < 240; ++i) {
    append_one(hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(hot);
  lt.compact(2 * kMillisPerHour);
  auto bounded = lt.select({}, 0, 3 * kMillisPerHour);
  auto open = lt.select({}, 0, std::numeric_limits<common::TimestampMs>::max());
  ASSERT_EQ(bounded.size(), 1u);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].samples().front().t, bounded[0].samples().front().t);
  EXPECT_EQ(open[0].sample_count(), bounded[0].sample_count());
}

TEST(LongTerm, SplicedPointsStayZeroUnderCompactionCadence) {
  // The compaction invariant: raw data is only purged up to a boundary the
  // whole ladder has aggregated past, so the synthesised history and the
  // raw tail never overlap and select() splices no decoded points. Run a
  // realistic cadence — scrape, sync, compact every 10 min, aggressive hot
  // retention — and check the counter stays at zero end to end.
  LongTermConfig config;
  config.downsample_after_ms = common::kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 0}, {kMillisPerHour, 0}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  TimestampMs t = 0;
  for (int cycle = 0; cycle < 72; ++cycle) {
    TimestampMs cycle_end = TimestampMs{cycle + 1} * 10 * kMillisPerMinute;
    for (; t < cycle_end; t += 30000) {
      append_one(hot, named("m", "n1"), t, static_cast<double>(t / 30000));
      append_one(hot, named("m", "n2"), t, 7.0);
    }
    lt.sync_from(hot);
    lt.compact(cycle_end);
    hot.purge_before(cycle_end - 20 * kMillisPerMinute);
  }

  auto series = lt.select({}, 0, 12 * common::kMillisPerHour);
  ASSERT_EQ(series.size(), 2u);
  for (const auto& view : series) {
    const auto& samples = view.samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_EQ(samples.front().t, 0);
    EXPECT_EQ(samples.back().t, t - 30000);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_GT(samples[i].t, samples[i - 1].t);
    }
  }
  auto stats = lt.select_stats();
  EXPECT_EQ(stats.spliced_points_copied, 0u);
  EXPECT_GT(stats.raw_points_scanned, 0u);
}

TEST(LongTerm, PerLevelRetentionPurgesExactHorizons) {
  LongTermConfig config;
  config.downsample_after_ms = common::kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 2 * common::kMillisPerHour},
                   {kMillisPerHour, 10 * common::kMillisPerHour}};
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (TimestampMs t = 0; t <= 12 * common::kMillisPerHour; t += 30000) {
    append_one(hot, named("m", "n1"), t, 1);
  }
  lt.sync_from(hot);
  lt.compact(12 * common::kMillisPerHour);

  // 5m level keeps exactly the bucket ends in [10h, 12h] (25 rows), the
  // 1h level exactly [2h, 12h] (11 rows).
  auto fine = lt.select_agg(5 * kMillisPerMinute, {},
                            10 * common::kMillisPerHour,
                            12 * common::kMillisPerHour);
  ASSERT_TRUE(fine.has_value());
  ASSERT_EQ(fine->size(), 1u);
  EXPECT_EQ((*fine)[0].buckets.size(), 25u);
  EXPECT_EQ((*fine)[0].buckets.front().t, 10 * common::kMillisPerHour);
  EXPECT_EQ((*fine)[0].buckets.back().t, 12 * common::kMillisPerHour);

  auto coarse = lt.select_agg(kMillisPerHour, {}, 2 * common::kMillisPerHour,
                              12 * common::kMillisPerHour);
  ASSERT_TRUE(coarse.has_value());
  ASSERT_EQ(coarse->size(), 1u);
  EXPECT_EQ((*coarse)[0].buckets.size(), 11u);
  EXPECT_EQ((*coarse)[0].buckets.front().t, 2 * common::kMillisPerHour);

  // One bucket past either horizon: coverage can no longer be promised.
  EXPECT_FALSE(lt.select_agg(5 * kMillisPerMinute, {},
                             10 * common::kMillisPerHour - 5 * kMillisPerMinute,
                             12 * common::kMillisPerHour)
                   .has_value());
  EXPECT_FALSE(lt.select_agg(kMillisPerHour, {}, kMillisPerHour,
                             12 * common::kMillisPerHour)
                   .has_value());
  EXPECT_EQ(lt.downsampled_stats().num_samples, 25u + 11u);
}

TEST(LongTerm, StatsReflectBothTiers) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  LongTermStore lt(config);
  TimeSeriesStore hot;
  for (int i = 0; i < 240; ++i) {
    append_one(hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(hot);
  StorageStats before = lt.stats();
  lt.compact(2 * kMillisPerHour);
  StorageStats after = lt.stats();
  EXPECT_EQ(before.num_samples, 240u);
  EXPECT_LT(after.num_samples, before.num_samples);  // downsampling shrank it
  EXPECT_GT(lt.downsampled_stats().num_samples, 0u);
}

}  // namespace
}  // namespace ceems::tsdb
