#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>

#include "simfs/durable_dir.h"
#include "tsdb/longterm.h"
#include "tsdb/promql_eval.h"
#include "tsdb/wal.h"
#include "append_one.h"

namespace ceems::tsdb {
namespace {

using common::kMillisPerHour;
using common::kMillisPerMinute;

Labels named(const std::string& name, const std::string& host) {
  return Labels{{"hostname", host}}.with_name(name);
}

// Every sample of every series, in select() order.
std::string digest(const Queryable& store) {
  std::string out;
  for (const auto& view :
       store.select({}, std::numeric_limits<TimestampMs>::min(),
                    std::numeric_limits<TimestampMs>::max())) {
    out += view.labels.to_string() + ":";
    for (const auto& sample : view.samples()) {
      out += " " + std::to_string(sample.t) + "=" + std::to_string(sample.v);
    }
    out += "\n";
  }
  return out;
}

TEST(LongTerm, SyncPullsOnlyNewSamples) {
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot);
  append_one(*hot, named("m", "n1"), 1000, 1);
  append_one(*hot, named("m", "n1"), 2000, 2);
  EXPECT_EQ(lt.sync_from(*hot), 2u);
  append_one(*hot, named("m", "n1"), 3000, 3);
  EXPECT_EQ(lt.sync_from(*hot), 1u);  // incremental
  EXPECT_EQ(lt.sync_from(*hot), 0u);  // idempotent

  auto series = lt.select({}, 0, 10000);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].samples().size(), 3u);

  // Samples past the cursor stay invisible until a sync covers them.
  append_one(*hot, named("m", "n1"), 4000, 4);
  EXPECT_EQ(lt.select({}, 0, 10000)[0].samples().size(), 3u);
  EXPECT_EQ(lt.sync_from(*hot), 1u);
  EXPECT_EQ(lt.select({}, 0, 10000)[0].samples().size(), 4u);

  // It reads through exactly one hot store.
  TimeSeriesStore other;
  EXPECT_THROW(lt.sync_from(other), std::invalid_argument);
  EXPECT_THROW(LongTermStore(nullptr), std::invalid_argument);
}

TEST(LongTerm, HotRetentionSurvivesInLongTerm) {
  // Compaction owns the hot store's retention (Fig. 1): it purges hot
  // samples past the downsample horizon, and their history lives on in
  // the long-term ladder.
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 0}};
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  for (int i = 0; i < 240; ++i) {
    append_one(*hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(*hot);
  lt.compact(2 * kMillisPerHour);

  // The hot store keeps only t > 1 h: 119 samples.
  EXPECT_EQ(hot->stats().num_samples, 119u);
  EXPECT_TRUE(hot->select({}, 0, kMillisPerHour).empty());
  // Long-term still starts at t = 0: 13 bucket points up to the horizon,
  // then the hot store's 119.
  auto series = lt.select({}, 0, 2 * kMillisPerHour);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].samples().front().t, 0);
  EXPECT_EQ(series[0].sample_count(), 13u + 119u);
}

TEST(LongTerm, CompactionDownsamplesOldData) {
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 0}};
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  // 2 h of 30 s samples.
  for (int i = 0; i < 240; ++i) {
    append_one(*hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(*hot);
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
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  for (int i = 0; i < 240; ++i) {
    append_one(*hot, named("joules", "n1"), i * 30000, i * 300.0);  // 10 W
  }
  lt.sync_from(*hot);

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
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  append_one(*hot, named("m", "n1"), 0, 1);
  append_one(*hot, named("m", "n1"), 30 * kMillisPerHour, 2);
  lt.sync_from(*hot);
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
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  for (int i = 0; i < 240; ++i) {
    append_one(*hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(*hot);
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
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  for (int i = 0; i < 240; ++i) {
    append_one(*hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(*hot);
  lt.compact(2 * kMillisPerHour);
  auto bounded = lt.select({}, 0, 3 * kMillisPerHour);
  auto open = lt.select({}, 0, std::numeric_limits<common::TimestampMs>::max());
  ASSERT_EQ(bounded.size(), 1u);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].samples().front().t, bounded[0].samples().front().t);
  EXPECT_EQ(open[0].sample_count(), bounded[0].sample_count());
}

TEST(LongTerm, SplicedPointsStayZeroUnderCompactionCadence) {
  // The compaction invariant: the hot store is only purged (and read
  // from) past a boundary the whole ladder has aggregated, so the
  // synthesised history and the hot tail never overlap and select()
  // splices no decoded points. Run a realistic cadence — scrape, sync,
  // compact every 10 min, which purges the hot store past the 1 h
  // horizon — and check the counter stays at zero end to end.
  LongTermConfig config;
  config.downsample_after_ms = common::kMillisPerHour;
  config.levels = {{5 * kMillisPerMinute, 0}, {kMillisPerHour, 0}};
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  TimestampMs t = 0;
  for (int cycle = 0; cycle < 72; ++cycle) {
    TimestampMs cycle_end = TimestampMs{cycle + 1} * 10 * kMillisPerMinute;
    for (; t < cycle_end; t += 30000) {
      append_one(*hot, named("m", "n1"), t, static_cast<double>(t / 30000));
      append_one(*hot, named("m", "n2"), t, 7.0);
    }
    lt.sync_from(*hot);
    lt.compact(cycle_end);
  }
  // The hot store keeps only (11 h, 12 h): the horizon aligned to 1 h.
  EXPECT_EQ(hot->stats().num_samples, 2u * 119);

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
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  for (TimestampMs t = 0; t <= 12 * common::kMillisPerHour; t += 30000) {
    append_one(*hot, named("m", "n1"), t, 1);
  }
  lt.sync_from(*hot);
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
  // Recent samples are counted by the hot store and history by the
  // ladder: long-term stats count only the ladder, so the two tiers sum
  // without counting a sample twice.
  LongTermConfig config;
  config.downsample_after_ms = kMillisPerHour;
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  for (int i = 0; i < 240; ++i) {
    append_one(*hot, named("m", "n1"), i * 30000, i);
  }
  lt.sync_from(*hot);
  StorageStats before = lt.stats();
  EXPECT_EQ(before.num_samples, 0u);
  EXPECT_EQ(before.approx_bytes, 0u);
  EXPECT_EQ(hot->stats().num_samples, 240u);

  lt.compact(2 * kMillisPerHour);
  StorageStats after = lt.stats();
  // 5-minute buckets ending at 0, 5m, ..., 115m (the cursor's bucket).
  EXPECT_EQ(after.num_samples, 24u);
  EXPECT_EQ(after.num_samples, lt.downsampled_stats().num_samples);
  EXPECT_GT(after.approx_bytes, 0u);
  EXPECT_EQ(hot->stats().num_samples, 119u);  // t > 1 h
  EXPECT_EQ(lt.raw_stats().num_samples, 0u);
  EXPECT_EQ(lt.raw_stats().approx_bytes, 0u);
}

TEST(LongTerm, CompactionPurgesHotPastHorizon) {
  // The purge boundary is now - downsample_after, capped by every level's
  // cursor and aligned down to the coarsest bucket width; the hot store
  // keeps exactly the samples after it, and only ever loses more.
  LongTermConfig config;
  config.downsample_after_ms = 20 * kMillisPerMinute;
  config.levels = {{5 * kMillisPerMinute, 0}, {15 * kMillisPerMinute, 0}};
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  for (TimestampMs t = 0; t <= kMillisPerHour; t += 30000) {
    append_one(*hot, named("m", "n1"), t, static_cast<double>(t / 30000));
  }
  EXPECT_EQ(lt.sync_from(*hot), 121u);
  const std::string full = digest(lt);

  lt.compact(47 * kMillisPerMinute);  // 27 min, aligned down to 15 min
  EXPECT_TRUE(hot->select({}, 0, 15 * kMillisPerMinute).empty());
  EXPECT_EQ(hot->stats().num_samples, 90u);  // (15 min, 60 min]
  lt.compact(40 * kMillisPerMinute);  // an older horizon purges nothing
  EXPECT_EQ(hot->stats().num_samples, 90u);
  lt.compact(kMillisPerHour);  // 40 min, aligned down to 30 min
  EXPECT_EQ(hot->stats().num_samples, 60u);  // (30 min, 60 min]

  // Nothing newer than the horizon left the hot store, and long-term
  // reads still start at t = 0 with the ladder spliced in seamlessly.
  auto views = lt.select({}, 0, kMillisPerHour);
  ASSERT_EQ(views.size(), 1u);
  const auto samples = views[0].samples();
  EXPECT_EQ(samples.front().t, 0);
  EXPECT_EQ(samples.back().t, kMillisPerHour);
  // 7 five-minute bucket points (ends 0 .. 30 min) + 60 hot samples.
  EXPECT_EQ(samples.size(), 7u + 60u);
  EXPECT_NE(digest(lt), full);
  EXPECT_EQ(lt.select_stats().spliced_points_copied, 0u);
}

TEST(LongTerm, LateSampleBehindCursorIsRejected) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto hot = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(hot, dir);
  durable.open();
  LongTermStore lt(hot);
  append_one(*hot, named("m", "n1"), 1000, 1);
  append_one(*hot, named("m", "n1"), 2000, 2);
  EXPECT_EQ(hot->watermark(), TimeSeriesStore::kNoWatermark);
  EXPECT_EQ(lt.sync_from(*hot), 2u);
  EXPECT_EQ(hot->watermark(), 2000);

  // Live: a fresh series' sample at or behind the cursor is out of
  // bounds — neither logged nor applied, only counted. A mixed batch
  // keeps its in-bounds samples.
  const uint64_t logged = durable.wal().stats().samples;
  EXPECT_FALSE(append_one(*hot, named("m", "late"), 1500, 9));
  EXPECT_FALSE(append_one(*hot, named("m", "late"), 2000, 9));
  metrics::InternedLabels n2(named("m", "n2"));
  metrics::InternedLabels n3(named("m", "n3"));
  metrics::SampleRef batch[] = {{&n2, 1999, 5}, {&n3, 2001, 6}};
  EXPECT_EQ(hot->append_refs(batch, 2), 1u);
  EXPECT_EQ(hot->stats().out_of_bounds, 3u);
  EXPECT_EQ(durable.wal().stats().samples, logged + 1);
  EXPECT_EQ(lt.sync_from(*hot), 1u);
  const std::string live = digest(lt);
  EXPECT_EQ(lt.select({{"hostname", metrics::LabelMatcher::Op::kEq, "late"}},
                      0, 10000)
                .size(),
            0u);

  // WAL replay after a crash re-applies samples at or below the
  // watermark, and the watermark survives the in-place reopen.
  dir->crash();
  auto replayed = durable.open();
  EXPECT_EQ(replayed.replay.samples_appended, 3u);
  EXPECT_EQ(digest(lt), live);
  EXPECT_EQ(hot->watermark(), 2001);

  // So does snapshot restore: reopen from a checkpoint, the durable
  // set-up's path after a warm-up sync.
  ASSERT_TRUE(durable.checkpoint());
  auto restored = durable.open();
  EXPECT_EQ(restored.snapshot_samples, 3u);
  EXPECT_EQ(digest(lt), live);
  EXPECT_FALSE(append_one(*hot, named("m", "late"), 2001, 9));
  EXPECT_TRUE(append_one(*hot, named("m", "late"), 2002, 9));

  // clear() keeps the watermark; replay_refs skips it.
  hot->set_wal(nullptr);
  hot->clear();
  EXPECT_EQ(hot->watermark(), 2001);
  metrics::InternedLabels n1(named("m", "n1"));
  metrics::SampleRef old_sample{&n1, 1000, 1};
  EXPECT_EQ(hot->append_refs(&old_sample, 1), 0u);
  EXPECT_EQ(hot->replay_refs(&old_sample, 1), 1u);
}

TEST(LongTerm, CachedQuerySeesSyncedSample) {
  // A sync widens long-term reads without mutating the hot store, so the
  // version signature carries the cursor: a cached range query must be
  // recomputed once the sync covers a new sample.
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot);
  append_one(*hot, named("m", "n1"), 1000, 1);
  lt.sync_from(*hot);
  append_one(*hot, named("m", "n1"), 2000, 2);

  promql::Engine engine;  // query-result cache on
  auto before = engine.eval_range(lt, "m", 1000, 2000, 1000);
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(before[0].samples.size(), 2u);
  EXPECT_DOUBLE_EQ(before[0].samples.back().v, 1);  // 2000 not synced yet
  EXPECT_DOUBLE_EQ(
      engine.eval_range(lt, "m", 1000, 2000, 1000)[0].samples.back().v, 1);
  EXPECT_EQ(engine.cache_stats().hits, 1u);

  lt.sync_from(*hot);
  auto after = engine.eval_range(lt, "m", 1000, 2000, 1000);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_DOUBLE_EQ(after[0].samples.back().v, 2);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
}

TEST(LongTerm, SelectRacesAppendSyncAndCompact) {
  // Readers go through the hot store while writers append to it and the
  // syncer advances the cursor, raises the watermark, folds and purges.
  // Every read must stay time-ordered and monotone (the counters only
  // grow), and nothing may race (the TSan job runs this).
  constexpr int kWriters = 2;
  constexpr int kSeries = 16;
  constexpr int kSteps = 200;
  constexpr int64_t kStepMs = 15000;
  LongTermConfig config;
  config.downsample_after_ms = 5 * kMillisPerMinute;
  config.levels = {{kMillisPerMinute, 0}, {5 * kMillisPerMinute, 0}};
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);

  std::atomic<int> writers_done{0};
  std::atomic<int> step{0};
  std::atomic<int> syncs{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<metrics::InternedLabels> labels;
      for (int s = 0; s < kSeries; ++s) {
        labels.emplace_back(
            named("ctr", "w" + std::to_string(w) + "s" + std::to_string(s)));
      }
      std::vector<metrics::SampleRef> batch;
      for (int i = 1; i <= kSteps; ++i) {
        batch.clear();
        for (const auto& series : labels) {
          batch.push_back({&series, i * kStepMs, i * 10.0});
        }
        // Paced to the syncer so syncs, folds and purges interleave with
        // ingestion for the whole run.
        while (syncs.load() < i / 4) std::this_thread::yield();
        hot->append_refs(batch.data(), batch.size());
        int seen = step.load();
        while (seen < i && !step.compare_exchange_weak(seen, i)) {
        }
      }
      writers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_done.load() < kWriters) {
      lt.sync_from(*hot);
      lt.compact(step.load() * kStepMs);
      syncs.fetch_add(1);
    }
  });
  std::atomic<bool> torn{false};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      promql::Engine engine;
      while (writers_done.load() < kWriters) {
        for (const auto& view : lt.select(
                 {{"__name__", metrics::LabelMatcher::Op::kEq, "ctr"}}, 0,
                 std::numeric_limits<TimestampMs>::max())) {
          auto samples = view.samples();
          for (std::size_t i = 1; i < samples.size(); ++i) {
            if (samples[i - 1].t >= samples[i].t ||
                samples[i - 1].v > samples[i].v) {
              torn.store(true);
            }
          }
        }
        const int64_t end = step.load() * kStepMs;
        for (int64_t res : lt.agg_resolutions()) {
          lt.select_agg(res, {}, (end / res - 4) * res, (end / res) * res);
        }
        engine.eval_range(lt, "sum(ctr)", std::max<int64_t>(0, end - 600000),
                          end, 60000);
        lt.stats();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(torn.load());

  lt.sync_from(*hot);
  lt.compact(kSteps * kStepMs);
  EXPECT_EQ(lt.sync_cursor(), kSteps * kStepMs);
  // Compaction purged the hot store past the horizon and folded it.
  EXPECT_TRUE(hot->select({}, 0, kSteps * kStepMs - 10 * kMillisPerMinute)
                  .empty());
  EXPECT_GT(lt.downsampled_stats().num_samples, 0u);
  auto views = lt.select({}, 0, kSteps * kStepMs);
  EXPECT_FALSE(views.empty());
  for (const auto& view : views) {
    auto samples = view.samples();
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_LT(samples[i - 1].t, samples[i].t);
    }
  }
}

}  // namespace
}  // namespace ceems::tsdb
