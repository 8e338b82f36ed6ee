#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <random>
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
    out += view.labels.to_labels().to_string() + ":";
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

TEST(LongTerm, RangeQuerySeesSyncedSample) {
  // A sync widens long-term reads without mutating the hot store: the
  // string-form range query sees a new sample once the sync covers it.
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot);
  append_one(*hot, named("m", "n1"), 1000, 1);
  lt.sync_from(*hot);
  append_one(*hot, named("m", "n1"), 2000, 2);

  promql::Engine engine;
  auto before = engine.eval_range(lt, "m", 1000, 2000, 1000);
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(before[0].samples.size(), 2u);
  EXPECT_DOUBLE_EQ(before[0].samples.back().v, 1);  // 2000 not synced yet

  lt.sync_from(*hot);
  auto after = engine.eval_range(lt, "m", 1000, 2000, 1000);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_DOUBLE_EQ(after[0].samples.back().v, 2);
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

// ---------- which ladder series a read visits ----------

// Three metrics over five hosts, folded into a 5m level and purged from
// the hot store past a 10 min horizon at t = 40 min.
struct LadderFixture {
  static constexpr int kHosts = 5;
  static constexpr TimestampMs kNow = 40 * kMillisPerMinute;
  std::shared_ptr<TimeSeriesStore> hot = std::make_shared<TimeSeriesStore>();
  std::unique_ptr<LongTermStore> lt;

  LadderFixture() {
    LongTermConfig config;
    config.downsample_after_ms = 10 * kMillisPerMinute;
    config.levels = {{5 * kMillisPerMinute, 0}};
    lt = std::make_unique<LongTermStore>(hot, config);
    for (TimestampMs t = 0; t <= kNow; t += 30000) {
      for (const char* metric : {"cpu", "mem", "power"}) {
        for (int h = 0; h < kHosts; ++h) {
          append_one(*hot, named(metric, "n" + std::to_string(h)), t, 1);
        }
      }
    }
    lt->sync_from(*hot);
    lt->compact(kNow);
  }

  uint64_t visited_by(const std::function<void()>& read) const {
    const uint64_t before = lt->select_stats().ladder_series_visited;
    read();
    return lt->select_stats().ladder_series_visited - before;
  }
};

using Op = metrics::LabelMatcher::Op;

TEST(LongTermLadderVisits, RecentSelectVisitsNoLadderSeries) {
  LadderFixture f;
  std::vector<SeriesView> views;
  EXPECT_EQ(f.visited_by([&] {
              views = f.lt->select({{"__name__", Op::kEq, "cpu"}},
                                   f.kNow - 5 * kMillisPerMinute, f.kNow);
            }),
            0u);
  EXPECT_EQ(views.size(), static_cast<std::size_t>(f.kHosts));
  // A nameless read past the purge boundary skips the ladder too.
  EXPECT_EQ(f.visited_by([&] {
              f.lt->select({}, f.kNow - 5 * kMillisPerMinute, f.kNow);
            }),
            0u);
}

TEST(LongTermLadderVisits, HistorySelectScansTheFinestLevel) {
  LadderFixture f;
  std::vector<SeriesView> views;
  // A read that reaches history checks every series of the finest level
  // once, whichever metric it names.
  EXPECT_EQ(f.visited_by([&] {
              views = f.lt->select({{"__name__", Op::kEq, "cpu"},
                                    {"hostname", Op::kEq, "n1"}},
                                   0, f.kNow);
            }),
            3u * f.kHosts);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].samples().front().t, 0);  // history reached
  EXPECT_EQ(f.visited_by([&] {
              f.lt->select_agg(5 * kMillisPerMinute,
                               {{"__name__", Op::kEq, "mem"}},
                               5 * kMillisPerMinute, 30 * kMillisPerMinute);
            }),
            3u * f.kHosts);
  // A name no series was ever given matches nothing and visits nothing.
  EXPECT_EQ(f.visited_by([&] {
              f.lt->select({{"__name__", Op::kEq, "no_such_metric"}}, 0,
                           f.kNow);
            }),
            0u);
}

TEST(LongTermLadderVisits, NamelessSelectorVisitsWholeLevel) {
  LadderFixture f;
  std::vector<SeriesView> views;
  EXPECT_EQ(f.visited_by([&] {
              views = f.lt->select({{"hostname", Op::kEq, "n2"}}, 0, f.kNow);
            }),
            3u * f.kHosts);
  EXPECT_EQ(views.size(), 3u);
  EXPECT_EQ(f.visited_by([&] {
              f.lt->select_agg(5 * kMillisPerMinute, {}, 5 * kMillisPerMinute,
                               30 * kMillisPerMinute);
            }),
            3u * f.kHosts);
}

// ---------- differential: reads against the full scan ----------

// The long-term store as it read before its ladder was keyed by interned
// labels: a std::map<Labels, ...> per level, every read a full scan with
// string matchers, and select() merging history and the hot tail through
// a std::map. Kept verbatim as the oracle.
class FullScanLongTerm {
 public:
  FullScanLongTerm(StorePtr hot, LongTermConfig config)
      : hot_(std::move(hot)), config_(std::move(config)) {
    for (const auto& level_config : config_.levels) {
      levels_.push_back(Level{level_config, {}, INT64_MIN, INT64_MIN});
    }
  }

  void sync_from() {
    TimeSeriesStore::SinceCount fresh =
        hot_->advance_watermark(sync_cursor_ + 1);
    if (fresh.samples > 0) sync_cursor_ = fresh.newest;
  }

  void compact(TimestampMs now) {
    if (sync_cursor_ >= 0) {
      for (auto& level : levels_) {
        const int64_t res = level.config.resolution_ms;
        TimestampMs target = floor_div(sync_cursor_, res) * res;
        if (level.cursor_ms != INT64_MIN && target <= level.cursor_ms) continue;
        TimestampMs from = level.cursor_ms == INT64_MIN
                               ? hot_floor()
                               : std::max(hot_floor(), level.cursor_ms + 1);
        for (const auto& view : hot_->select({}, from, target)) {
          auto& series = level.series[view.labels.to_labels()];
          AggBucket bucket;
          bool open = false;
          for (const auto& sample : view.samples()) {
            TimestampMs end = agg_bucket_end(sample.t, res);
            if (open && end != bucket.t) {
              series.append(bucket);
              open = false;
            }
            if (!open) {
              bucket = open_bucket(end);
              open = true;
            }
            fold_sample(bucket, sample.t, sample.v);
          }
          if (open) series.append(bucket);
        }
        level.cursor_ms = target;
      }
    }
    TimestampMs boundary = now - config_.downsample_after_ms;
    for (const auto& level : levels_) {
      if (level.cursor_ms == INT64_MIN) {
        boundary = INT64_MIN;
        break;
      }
      boundary = std::min(boundary, level.cursor_ms);
    }
    if (boundary != INT64_MIN) {
      // Every test ladder is nested: one floor to the coarsest width.
      const int64_t coarsest = levels_.back().config.resolution_ms;
      boundary = floor_div(boundary, coarsest) * coarsest;
    }
    if (boundary != INT64_MIN &&
        (hot_purged_end_ == INT64_MIN || boundary > hot_purged_end_)) {
      hot_->purge_before(boundary + 1);
      hot_purged_end_ = boundary;
    }
    for (auto& level : levels_) {
      if (level.config.retention_ms <= 0) continue;
      TimestampMs keep_from = now - level.config.retention_ms;
      std::size_t dropped = 0;
      for (auto it = level.series.begin(); it != level.series.end();) {
        dropped += it->second.drop_before(keep_from);
        it = it->second.empty() ? level.series.erase(it) : std::next(it);
      }
      if (dropped > 0) {
        level.purged_end_ms = std::max(level.purged_end_ms, keep_from - 1);
      }
    }
  }

  std::vector<SeriesView> select(const std::vector<LabelMatcher>& matchers,
                                 TimestampMs min_t, TimestampMs max_t) const {
    std::map<Labels, SeriesView> merged;
    if (hot_purged_end_ != INT64_MIN && min_t <= max_t) {
      const Level& finest = levels_.front();
      const int64_t res = finest.config.resolution_ms;
      TimestampMs hi_end = max_t >= hot_purged_end_
                               ? hot_purged_end_
                               : std::min(hot_purged_end_,
                                          agg_bucket_end(max_t, res));
      for (const auto& [labels, series] : finest.series) {
        if (!matches_all(matchers, labels)) continue;
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
        if (points.empty()) continue;
        merged.emplace(labels, SeriesView::owned(labels, std::move(points)));
      }
    }
    std::vector<SeriesView> fine;
    const TimestampMs lo = std::max(min_t, hot_floor());
    const TimestampMs hi = std::min(max_t, sync_cursor_);
    if (lo <= hi) fine = hot_->select(matchers, lo, hi);
    for (auto& view : fine) {
      auto it = merged.find(view.labels.to_labels());
      if (it == merged.end()) {
        Labels key = view.labels.to_labels();
        merged.emplace(std::move(key), std::move(view));
        continue;
      }
      SeriesView& dst = it->second;
      TimestampMs newest = dst.slices.back().max_time();
      for (auto& slice : view.slices) {
        if (slice.min_time() > newest) {
          newest = slice.max_time();
          dst.slices.push_back(std::move(slice));
          continue;
        }
        std::vector<SamplePoint> kept;
        for (const auto& sample : decode_slices({slice})) {
          if (sample.t > newest) kept.push_back(sample);
        }
        if (!kept.empty()) {
          newest = kept.back().t;
          dst.slices.push_back(ChunkSlice{nullptr, std::move(kept)});
        }
      }
    }
    std::vector<SeriesView> out;
    for (auto& [key, view] : merged) out.push_back(std::move(view));
    return out;
  }

  std::optional<std::vector<AggSeriesView>> select_agg(
      int64_t resolution_ms, const std::vector<LabelMatcher>& matchers,
      TimestampMs min_end, TimestampMs max_end) const {
    for (const Level& level : levels_) {
      if (level.config.resolution_ms != resolution_ms) continue;
      if (level.cursor_ms == INT64_MIN || max_end > level.cursor_ms ||
          min_end <= level.purged_end_ms) {
        break;
      }
      std::vector<AggSeriesView> out;
      for (const auto& [labels, series] : level.series) {
        if (!matches_all(matchers, labels)) continue;
        auto buckets = series.buckets_between(min_end, max_end);
        if (buckets.empty()) continue;
        out.push_back({labels, std::move(buckets)});
      }
      return out;
    }
    return std::nullopt;
  }

  TimestampMs hot_purged_end() const { return hot_purged_end_; }

 private:
  struct Level {
    AggLevelConfig config;
    std::map<Labels, AggChunkedSeries> series;
    TimestampMs cursor_ms;
    TimestampMs purged_end_ms;
  };

  static bool matches_all(const std::vector<LabelMatcher>& matchers,
                          const Labels& labels) {
    for (const auto& matcher : matchers) {
      if (!matcher.matches(labels)) return false;
    }
    return true;
  }

  static AggBucket open_bucket(TimestampMs end) {
    AggBucket bucket;
    bucket.t = end;
    bucket.min = std::numeric_limits<double>::quiet_NaN();
    bucket.max = bucket.min;
    return bucket;
  }

  static void fold_sample(AggBucket& bucket, TimestampMs t, double v) {
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

  TimestampMs hot_floor() const {
    if (hot_purged_end_ == INT64_MIN) return 0;
    return std::max<TimestampMs>(0, hot_purged_end_ + 1);
  }

  StorePtr hot_;
  LongTermConfig config_;
  std::vector<Level> levels_;
  TimestampMs sync_cursor_ = -1;
  TimestampMs hot_purged_end_ = INT64_MIN;
};

// Bitwise: labels, slice boundaries and every sample's bits, in order.
std::string select_digest(const std::vector<SeriesView>& views) {
  std::string out;
  for (const auto& view : views) {
    out += view.labels.to_labels().to_string() + "\n";
    for (const auto& slice : view.slices) {
      out += " |";
      for (const auto& sample : decode_slices({slice})) {
        out += " " + std::to_string(sample.t) + "=" +
               std::to_string(std::bit_cast<uint64_t>(sample.v));
      }
    }
    out += "\n";
  }
  return out;
}

std::string agg_digest(const std::optional<std::vector<AggSeriesView>>& views) {
  if (!views) return "nullopt";
  std::string out;
  auto bits = [](double v) {
    return std::to_string(std::bit_cast<uint64_t>(v)) + ",";
  };
  for (const auto& view : *views) {
    out += view.labels.to_labels().to_string() + "\n";
    for (const auto& b : view.buckets) {
      out += " " + std::to_string(b.t) + ":" + std::to_string(b.count) + "," +
             bits(b.sum) + bits(b.min) + bits(b.max) + bits(b.first_v) +
             bits(b.last_v) + bits(b.inc) + std::to_string(b.first_t) + "," +
             std::to_string(b.last_t) + "," + std::to_string(b.marker_t);
    }
    out += "\n";
  }
  return out;
}

// Random =, !=, =~, !~ and nameless selectors over spans before, across
// and after the purge boundary, through several compactions, hot purges
// and per-level retention drops, with series that come and go (and end
// in staleness markers). Every read must equal the full scan's bit for
// bit, in the same order.
TEST(LongTermSelectDifferential, IndexedSelectMatchesFullScan) {
  constexpr int64_t kStepMs = 30000;
  constexpr int kSteps = 480;  // 4 h
  LongTermConfig config;
  config.downsample_after_ms = 30 * kMillisPerMinute;
  config.levels = {{5 * kMillisPerMinute, 2 * kMillisPerHour},
                   {30 * kMillisPerMinute, 3 * kMillisPerHour}};
  auto hot = std::make_shared<TimeSeriesStore>();
  auto oracle_hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  FullScanLongTerm oracle(oracle_hot, config);

  const std::vector<std::string> names = {"cpu", "mem", "power", "io"};
  const std::vector<std::string> hosts = {"n0", "n1", "n2", "n3"};
  std::mt19937_64 rng(20260917);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // A series lives for a random stretch of steps; some have no uuid and
  // one has no name at all.
  struct Live {
    metrics::InternedLabels labels;
    int from, to;
    double value = 0;
  };
  std::vector<Live> lives;
  for (int i = 0; i < 64; ++i) {
    Labels labels{{"hostname", hosts[pick(hosts.size())]},
                  {"job", i % 3 == 0 ? "node" : "ceems"}};
    if (i % 4 != 0) labels = labels.with("uuid", std::to_string(i % 9));
    if (i != 7) labels = labels.with_name(names[pick(names.size())]);
    int from = static_cast<int>(pick(kSteps / 2));
    int to = from + 20 + static_cast<int>(pick(kSteps));
    lives.push_back({metrics::InternedLabels(labels), from, to});
  }

  const std::vector<std::string> values = {
      "cpu", "mem", "power", "io", "n0", "n1", "n3", "node", "ceems",
      "3", "7", "", "absent-value", "cpu|mem", "n[12]", ".*", ".+", "c.*",
      "1|2|3"};
  const std::vector<std::string> label_names = {"__name__", "hostname", "job",
                                                "uuid", "no_such_label"};
  auto random_matchers = [&] {
    std::vector<LabelMatcher> matchers;
    const std::size_t n = pick(4);
    for (std::size_t i = 0; i < n; ++i) {
      const Op op = static_cast<Op>(pick(4));
      const std::string& name = label_names[pick(label_names.size())];
      matchers.push_back({name, op, values[pick(values.size())]});
    }
    return matchers;
  };

  int reads = 0, history_reads = 0, agg_answers = 0;
  auto check_reads = [&](TimestampMs now) {
    // Before the first purge every span is "after" it.
    const TimestampMs boundary =
        std::max<TimestampMs>(oracle.hot_purged_end(), 0);
    for (int q = 0; q < 12; ++q) {
      auto matchers = random_matchers();
      TimestampMs min_t, max_t;
      switch (pick(6)) {
        case 0:  // entirely before the purge boundary
          min_t = static_cast<TimestampMs>(pick(static_cast<std::size_t>(
              std::max<TimestampMs>(1, boundary))));
          max_t = std::max<TimestampMs>(min_t, boundary - 1);
          break;
        case 1:  // straddling it
          min_t = std::max<TimestampMs>(0, boundary - 40 * kMillisPerMinute);
          max_t = now;
          break;
        case 2:  // after it
          min_t = boundary + 1 + static_cast<TimestampMs>(pick(600000));
          max_t = now;
          break;
        case 3:  // open-ended
          min_t = 0;
          max_t = std::numeric_limits<TimestampMs>::max();
          break;
        case 4:  // starting on or just before it
          min_t = std::max<TimestampMs>(
              0, boundary - static_cast<TimestampMs>(pick(12) * 30000 +
                                                     pick(2)));
          max_t = boundary + static_cast<TimestampMs>(pick(1800000));
          break;
        default:  // off-grid, possibly empty
          min_t = static_cast<TimestampMs>(pick(static_cast<std::size_t>(now)));
          max_t = min_t + static_cast<TimestampMs>(pick(3 * kMillisPerHour));
          break;
      }
      SCOPED_TRACE("select [" + std::to_string(min_t) + ", " +
                   std::to_string(max_t) + "] at " + std::to_string(now));
      EXPECT_EQ(select_digest(lt.select(matchers, min_t, max_t)),
                select_digest(oracle.select(matchers, min_t, max_t)));
      ++reads;
      if (oracle.hot_purged_end() != INT64_MIN && min_t <= boundary) {
        ++history_reads;
      }

      for (const auto& level : config.levels) {
        const int64_t res = level.resolution_ms;
        const TimestampMs max_end =
            floor_div(now, res) * res -
            static_cast<TimestampMs>(pick(3)) * res;
        const TimestampMs min_end =
            max_end - static_cast<TimestampMs>(pick(30)) * res;
        auto got = lt.select_agg(res, matchers, min_end, max_end);
        auto want = oracle.select_agg(res, matchers, min_end, max_end);
        EXPECT_EQ(agg_digest(got), agg_digest(want))
            << "select_agg " << res << " [" << min_end << ", " << max_end
            << "]";
        if (got) ++agg_answers;
      }
    }
  };

  for (int step = 0; step <= kSteps; ++step) {
    const TimestampMs t = step * kStepMs;
    std::vector<metrics::SampleRef> batch;
    for (auto& live : lives) {
      if (step < live.from || step > live.to) continue;
      if (step == live.to) {
        batch.push_back({&live.labels, t, metrics::stale_marker()});
        continue;
      }
      live.value += static_cast<double>(pick(5));
      if (pick(40) == 0) live.value = 0;  // counter reset
      batch.push_back({&live.labels, t, live.value});
    }
    hot->append_refs(batch.data(), batch.size());
    oracle_hot->append_refs(batch.data(), batch.size());
    if (step % 6 == 0) {
      lt.sync_from(*hot);
      oracle.sync_from();
    }
    if (step % 10 == 0) {
      lt.compact(t);
      oracle.compact(t);
    }
    if (step > 0 && step % 40 == 0) check_reads(t);
  }
  EXPECT_GT(history_reads, 20);
  EXPECT_GT(agg_answers, 20);
  EXPECT_GT(reads, history_reads);
  // Retention dropped whole series from the ladder along the way.
  std::size_t ever = 0;
  for (const auto& live : lives) ever += live.from <= kSteps ? 1 : 0;
  EXPECT_LT(lt.downsampled_stats().num_series, ever);
}

// History selects and select_agg race a compaction that inserts ladder
// series as new ones appear and erases them through retention as they
// age out. Reads stay label-sorted and time-ordered,
// and nothing may race (the TSan job runs this).
TEST(LongTerm, HistoryReadsRaceLadderInsertAndRetention) {
  constexpr int kSteps = 240;
  constexpr int64_t kStepMs = 15000;
  LongTermConfig config;
  config.downsample_after_ms = 3 * kMillisPerMinute;
  config.levels = {{kMillisPerMinute, 6 * kMillisPerMinute},
                   {5 * kMillisPerMinute, 12 * kMillisPerMinute}};
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);

  std::atomic<int> step{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Each metric's series rotate every 40 steps (10 min), so retention
    // keeps erasing the ones that stopped.
    std::vector<metrics::SampleRef> batch;
    std::vector<metrics::InternedLabels> labels;
    for (int i = 1; i <= kSteps; ++i) {
      labels.clear();
      batch.clear();
      for (int m = 0; m < 3; ++m) {
        for (int s = 0; s < 4; ++s) {
          labels.emplace_back(named("m" + std::to_string(m),
                                    "g" + std::to_string(i / 40) + "s" +
                                        std::to_string(s)));
        }
      }
      for (const auto& series : labels) {
        batch.push_back({&series, i * kStepMs, i * 1.0});
      }
      hot->append_refs(batch.data(), batch.size());
      lt.sync_from(*hot);
      if (i % 4 == 0) lt.compact(i * kStepMs);
      step.store(i);
    }
    done.store(true);
  });
  std::atomic<bool> disordered{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load()) {
        const std::string metric = "m" + std::to_string(r);
        auto views = lt.select({{"__name__", Op::kEq, metric}}, 0,
                               std::numeric_limits<TimestampMs>::max());
        auto regex_views =
            lt.select({{"__name__", Op::kRegexMatch, "m[12]"}}, 0,
                      step.load() * kStepMs);
        for (const auto* run : {&views, &regex_views}) {
          for (std::size_t i = 0; i < run->size(); ++i) {
            if (i > 0 && !((*run)[i - 1].labels < (*run)[i].labels)) {
              disordered.store(true);
            }
            auto samples = (*run)[i].samples();
            for (std::size_t k = 1; k < samples.size(); ++k) {
              if (samples[k - 1].t >= samples[k].t) disordered.store(true);
            }
          }
        }
        const int64_t end = step.load() * kStepMs;
        for (int64_t res : lt.agg_resolutions()) {
          auto agg = lt.select_agg(res, {{"__name__", Op::kEq, metric}},
                                   (end / res - 3) * res, (end / res) * res);
          if (!agg) continue;
          for (std::size_t i = 1; i < agg->size(); ++i) {
            if (!((*agg)[i - 1].labels < (*agg)[i].labels)) {
              disordered.store(true);
            }
          }
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(disordered.load());
  // Series from the first rotations were folded, then erased.
  EXPECT_TRUE(lt.select({{"hostname", Op::kEq, "g0s0"}}, 0,
                        kSteps * kStepMs)
                  .empty());
  EXPECT_GT(lt.downsampled_stats().num_series, 0u);
  EXPECT_GT(lt.select_stats().ladder_series_visited, 0u);
}

}  // namespace
}  // namespace ceems::tsdb
