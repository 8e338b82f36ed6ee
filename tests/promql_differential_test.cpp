// Differential suite for the streaming range evaluator: every PromQL
// function evaluated over randomised series — staleness markers, counter
// resets, NaN values, irregular scrape intervals, series that appear and
// disappear mid-range — through both the streaming path and the per-step
// oracle, asserting bit-identical Values across serial/pooled execution
// and hot-store/long-term sources. Plus the decode-count regression: a
// streaming range query decodes each overlapping chunk at most once.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "metrics/model.h"
#include "tsdb/longterm.h"
#include "tsdb/promql_eval.h"
#include "tsdb/storage.h"
#include "append_one.h"

namespace ceems::tsdb {
namespace {

using metrics::Labels;
using promql::Engine;
using promql::EngineOptions;

uint64_t bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// ---------- randomised fixture data ----------

constexpr int64_t kStep = 15000;  // 15 s nominal scrape interval
constexpr TimestampMs kDataEnd = 120 * 60 * 1000;  // 2 h of data

// Random gauges and counters with enough samples per series to span
// multiple sealed chunks (120 samples/chunk; ~480 samples per series
// here). Gauges take NaN excursions and staleness markers; counters reset.
// Some series start late or end early, so selectors see series appear and
// disappear across the range.
std::shared_ptr<TimeSeriesStore> make_random_store(uint64_t seed) {
  common::Rng rng(seed);
  auto store = std::make_shared<TimeSeriesStore>();
  for (int h = 0; h < 3; ++h) {
    for (int s = 0; s < 4; ++s) {
      Labels gauge_labels = Labels{{"hostname", "n" + std::to_string(h)},
                                   {"uuid", std::to_string(s)}}
                                .with_name("power_watts");
      Labels counter_labels = Labels{{"hostname", "n" + std::to_string(h)},
                                     {"uuid", std::to_string(s)}}
                                  .with_name("energy_joules_total");
      TimestampMs start = rng.chance(0.25)
                              ? rng.uniform_int(0, kDataEnd / 3)
                              : 0;
      TimestampMs stop = rng.chance(0.25)
                             ? rng.uniform_int(2 * kDataEnd / 3, kDataEnd)
                             : kDataEnd;
      double gauge = rng.uniform(50, 300);
      double counter = 0;
      for (TimestampMs t = start; t <= stop;) {
        gauge += rng.normal(0, 5);
        double gauge_value = gauge;
        if (rng.chance(0.01)) gauge_value = std::nan("");
        if (rng.chance(0.01)) gauge_value = metrics::stale_marker();
        append_one(*store, gauge_labels, t, gauge_value);

        counter += rng.uniform(0, 40);
        if (rng.chance(0.01)) counter = rng.uniform(0, 10);  // reset
        double counter_value =
            rng.chance(0.005) ? metrics::stale_marker() : counter;
        append_one(*store, counter_labels, t, counter_value);

        // Irregular interval: jitter plus occasional scrape gaps.
        t += kStep + rng.uniform_int(-2000, 2000);
        if (rng.chance(0.03)) t += kStep * rng.uniform_int(2, 8);
      }
    }
  }
  return store;
}

// Long-term store built from the hot store, compacted so roughly the
// first half is downsampled — plenty of series straddle the horizon.
std::shared_ptr<LongTermStore> make_longterm(StorePtr hot) {
  LongTermConfig config;
  config.downsample_after_ms = kDataEnd / 2;
  config.levels = {{5 * 60 * 1000, 0}};
  auto lt = std::make_shared<LongTermStore>(hot, config);
  lt->sync_from(*hot);
  lt->compact(kDataEnd);
  return lt;
}

// The query corpus: every range function, selectors (with offset, regex
// matchers, stale-sensitive instant lookups), aggregations, binary ops,
// and the call zoo the evaluator supports.
std::vector<std::string> query_corpus() {
  std::vector<std::string> queries = {
      "power_watts",
      "power_watts{hostname=\"n1\"}",
      "power_watts{hostname=~\"n[01]\"}",
      "power_watts offset 10m",
      "sum(power_watts)",
      "sum by (hostname) (power_watts)",
      "avg by (hostname) (power_watts)",
      "topk(3, power_watts)",
      "quantile(0.9, power_watts)",
      "power_watts > 150",
      "power_watts * 2 + 1",
      "power_watts / on(hostname, uuid) energy_joules_total",
      "sum by (hostname) (rate(energy_joules_total[2m]))",
      "label_replace(power_watts, \"node\", \"$1\", \"hostname\", "
      "\"n(.*)\")",
      "predict_linear(power_watts[5m], 600)",
      "absent(power_watts{hostname=\"nope\"})",
      "clamp(power_watts, 100, 200)",
      "scalar(sum(power_watts)) * 2",
      "-power_watts",
  };
  const char* range_funcs[] = {
      "rate",          "irate",           "increase",
      "delta",         "idelta",          "deriv",
      "resets",        "changes",         "avg_over_time",
      "sum_over_time", "min_over_time",   "max_over_time",
      "count_over_time", "last_over_time", "stddev_over_time"};
  for (const char* func : range_funcs) {
    queries.push_back(std::string(func) + "(power_watts[2m])");
    queries.push_back(std::string(func) + "(energy_joules_total[4m])");
    queries.push_back("sum by (hostname) (" + std::string(func) +
                      "(power_watts[90s]))");
    queries.push_back(std::string(func) +
                      "(power_watts[3m] offset 5m)");
  }
  return queries;
}

void expect_bit_identical(const std::vector<Series>& oracle,
                          const std::vector<Series>& streaming,
                          const std::string& query) {
  SCOPED_TRACE("query: " + query);
  ASSERT_EQ(oracle.size(), streaming.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    SCOPED_TRACE("series " + std::to_string(i) + ": " +
                 oracle[i].labels.to_string());
    ASSERT_EQ(oracle[i].labels, streaming[i].labels);
    ASSERT_EQ(oracle[i].samples.size(), streaming[i].samples.size());
    for (std::size_t k = 0; k < oracle[i].samples.size(); ++k) {
      ASSERT_EQ(oracle[i].samples[k].t, streaming[i].samples[k].t)
          << "sample " << k;
      ASSERT_EQ(bits(oracle[i].samples[k].v), bits(streaming[i].samples[k].v))
          << "sample " << k << ": oracle " << oracle[i].samples[k].v
          << " vs streaming " << streaming[i].samples[k].v;
    }
  }
}

Engine make_engine(bool streaming, std::shared_ptr<common::ThreadPool> pool) {
  EngineOptions options;
  options.streaming_range = streaming;
  options.pool = std::move(pool);
  options.min_parallel_steps = 4;  // force the chunked path in pooled runs
  options.query_cache_capacity = 0;
  return Engine(options);
}

void run_corpus(const Queryable& source) {
  auto pool = std::make_shared<common::ThreadPool>(4, "diff-eval");
  Engine oracle_serial = make_engine(false, nullptr);
  Engine stream_serial = make_engine(true, nullptr);
  Engine stream_pooled = make_engine(true, pool);
  Engine oracle_pooled = make_engine(false, pool);

  constexpr TimestampMs kStart = 60 * 1000;
  constexpr int64_t kQueryStep = 47 * 1000;  // off-grid on purpose
  for (const std::string& query : query_corpus()) {
    auto expr = promql::parse(query);
    auto oracle = oracle_serial.eval_range(source, expr, kStart, kDataEnd,
                                           kQueryStep);
    auto streaming = stream_serial.eval_range(source, expr, kStart, kDataEnd,
                                              kQueryStep);
    expect_bit_identical(oracle, streaming, query + " [serial]");
    auto streaming_mt = stream_pooled.eval_range(source, expr, kStart,
                                                 kDataEnd, kQueryStep);
    expect_bit_identical(oracle, streaming_mt, query + " [pooled stream]");
    auto oracle_mt = oracle_pooled.eval_range(source, expr, kStart, kDataEnd,
                                              kQueryStep);
    expect_bit_identical(oracle, oracle_mt, query + " [pooled oracle]");
  }
}

TEST(PromqlDifferential, HotStoreAllFunctions) {
  for (uint64_t seed : {11u, 42u, 1337u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto store = make_random_store(seed);
    run_corpus(*store);
  }
}

TEST(PromqlDifferential, LongTermStoreAllFunctions) {
  for (uint64_t seed : {7u, 99u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto store = make_random_store(seed);
    auto lt = make_longterm(store);
    run_corpus(*lt);
  }
}

// A stale marker as the newest sample must drop the series from instant
// selectors on both paths — checked explicitly at the step grid around the
// marker, not just via the random sweep.
TEST(PromqlDifferential, StalenessEndsSeries) {
  auto store = std::make_shared<TimeSeriesStore>();
  Labels labels = Labels{{"hostname", "n0"}}.with_name("m");
  for (int i = 0; i < 200; ++i) {
    double v = i == 150 ? metrics::stale_marker() : i * 1.0;
    append_one(*store, labels, int64_t{i} * kStep, v);
  }
  Engine oracle = make_engine(false, nullptr);
  Engine streaming = make_engine(true, nullptr);
  auto expr = promql::parse("m");
  auto a = oracle.eval_range(*store, expr, 0, 200 * kStep, kStep);
  auto b = streaming.eval_range(*store, expr, 0, 200 * kStep, kStep);
  expect_bit_identical(a, b, "staleness instant");
  // The marker step itself must be absent.
  ASSERT_EQ(a.size(), 1u);
  for (const auto& sample : a[0].samples) {
    EXPECT_NE(sample.t, int64_t{150} * kStep);
  }

  auto rate_expr = promql::parse("rate(m[2m])");
  auto ra = oracle.eval_range(*store, rate_expr, 0, 200 * kStep, kStep);
  auto rb = streaming.eval_range(*store, rate_expr, 0, 200 * kStep, kStep);
  expect_bit_identical(ra, rb, "staleness rate");
}

// ---------- resolution-aware planner differential ----------

// Integer-valued random fixture for planner bit-identity: with integer
// sample values every partial sum the aggregate buckets regroup is exact
// (doubles are exact integers far below 2^53), so the planned fold and
// the raw fold agree bit for bit, not merely approximately. Staleness
// markers, counter resets, irregular scrape intervals and late/early
// series all stay in; NaN excursions are left out because NaN propagation
// is not associative at the bit level. The last sample lands exactly on
// kDataEnd so every ladder level's cursor reaches the end of the grid.
std::shared_ptr<TimeSeriesStore> make_integer_store(uint64_t seed) {
  common::Rng rng(seed);
  auto store = std::make_shared<TimeSeriesStore>();
  for (int h = 0; h < 3; ++h) {
    for (int s = 0; s < 3; ++s) {
      Labels gauge_labels = Labels{{"hostname", "n" + std::to_string(h)},
                                   {"uuid", std::to_string(s)}}
                                .with_name("power_watts");
      Labels counter_labels = Labels{{"hostname", "n" + std::to_string(h)},
                                     {"uuid", std::to_string(s)}}
                                  .with_name("energy_joules_total");
      TimestampMs start =
          rng.chance(0.25) ? rng.uniform_int(0, kDataEnd / 3) : 0;
      double counter = 0;
      TimestampMs t = start;
      while (true) {
        double gauge_value = static_cast<double>(rng.uniform_int(50, 300));
        if (rng.chance(0.01)) gauge_value = metrics::stale_marker();
        append_one(*store, gauge_labels, t, gauge_value);

        counter += static_cast<double>(rng.uniform_int(0, 40));
        if (rng.chance(0.01)) counter = 1;  // reset
        double counter_value =
            rng.chance(0.005) ? metrics::stale_marker() : counter;
        append_one(*store, counter_labels, t, counter_value);
        if (t >= kDataEnd) break;
        t += kStep + rng.uniform_int(-2000, 2000);
        if (rng.chance(0.03)) t += kStep * rng.uniform_int(2, 8);
        if (t > kDataEnd) t = kDataEnd;  // pin the grid end
      }
    }
  }
  return store;
}

// Two-level ladder (5m -> 1h) with raw kept forever, so the raw paths stay
// meaningful oracles over the whole range even after compaction.
std::shared_ptr<LongTermStore> make_ladder_store(StorePtr hot) {
  LongTermConfig config;
  config.downsample_after_ms = 365LL * 24 * 60 * 60 * 1000;
  config.levels = {{5 * 60 * 1000, 0}, {60 * 60 * 1000, 0}};
  auto lt = std::make_shared<LongTermStore>(hot, config);
  lt->sync_from(*hot);
  lt->compact(kDataEnd);
  return lt;
}

uint64_t total_level_hits(const LongTermStore& lt) {
  uint64_t total = 0;
  for (uint64_t hits : lt.select_stats().level_hits) total += hits;
  return total;
}

// Every plannable window function, aligned and unaligned: bit-identical
// results planner-on vs planner-off, with the level-hit counters proving
// aligned queries were served from the ladder and unaligned ones fell
// back to raw.
TEST(PromqlDifferential, ResolutionAwarePlannerBitIdentical) {
  const char* funcs[] = {"sum_over_time", "avg_over_time",  "min_over_time",
                         "max_over_time", "count_over_time", "rate",
                         "increase"};
  EngineOptions on_options;
  on_options.query_cache_capacity = 0;
  Engine planner_on(on_options);
  EngineOptions off_options = on_options;
  off_options.resolution_aware = false;
  Engine planner_off(off_options);
  Engine oracle = make_engine(false, nullptr);  // per-step, always raw

  constexpr int64_t kFiveMin = 5 * 60 * 1000;
  for (uint64_t seed : {3u, 21u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto store = make_integer_store(seed);
    auto lt = make_ladder_store(store);
    for (const char* func : funcs) {
      for (const char* metric : {"power_watts", "energy_joules_total"}) {
        for (bool aligned : {true, false}) {
          // Aligned: range, step and start all multiples of the 5m bucket
          // width (offset included). Unaligned: off-grid range and step.
          std::string range = aligned ? "30m" : "7m";
          std::string offset = aligned ? " offset 10m" : " offset 3m";
          int64_t step_ms = aligned ? kFiveMin : 47 * 1000;
          TimestampMs start = aligned ? 45 * 60 * 1000 : 44 * 60 * 1000 + 13;
          std::string query = std::string(func) + "(" + metric + "[" + range +
                              "]" + offset + ")";
          SCOPED_TRACE("query: " + query);
          auto expr = promql::parse(query);

          auto expected = oracle.eval_range(*lt, expr, start, kDataEnd,
                                            step_ms);
          auto off = planner_off.eval_range(*lt, expr, start, kDataEnd,
                                            step_ms);
          uint64_t hits_before = total_level_hits(*lt);
          auto on = planner_on.eval_range(*lt, expr, start, kDataEnd,
                                          step_ms);
          uint64_t hits_after = total_level_hits(*lt);
          expect_bit_identical(expected, off, query + " [planner off]");
          expect_bit_identical(expected, on, query + " [planner on]");
          if (aligned) {
            EXPECT_GT(hits_after, hits_before)
                << query << " should be served from the aggregate ladder";
          } else {
            EXPECT_EQ(hits_after, hits_before)
                << query << " must take the raw fallback";
          }
        }
      }
    }
  }
}

// Top-level instant queries go through the same planner: aligned instants
// hit the ladder, unaligned ones and non-plannable functions fall back.
TEST(PromqlDifferential, ResolutionAwareInstantQueries) {
  auto store = make_integer_store(17);
  auto lt = make_ladder_store(store);
  EngineOptions on_options;
  on_options.query_cache_capacity = 0;
  Engine planner_on(on_options);
  EngineOptions off_options = on_options;
  off_options.resolution_aware = false;
  Engine planner_off(off_options);

  struct Case {
    const char* query;
    TimestampMs at;
    bool planned;
  };
  const Case cases[] = {
      {"sum by (hostname) (increase(energy_joules_total[1h]))", kDataEnd,
       true},
      {"avg_over_time(power_watts[30m])", kDataEnd - 5 * 60 * 1000, true},
      {"max_over_time(power_watts[2h])", kDataEnd, true},  // 1h level
      {"rate(energy_joules_total[30m])", kDataEnd - 17, false},  // unaligned t
      {"rate(energy_joules_total[17m])", kDataEnd, false},  // unaligned range
      {"last_over_time(power_watts[30m])", kDataEnd, false},  // not plannable
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("query: ") + c.query);
    auto expr = promql::parse(c.query);
    auto expected = planner_off.eval(*lt, expr, c.at);
    uint64_t hits_before = total_level_hits(*lt);
    auto got = planner_on.eval(*lt, expr, c.at);
    uint64_t hits_after = total_level_hits(*lt);
    ASSERT_EQ(expected.kind, got.kind);
    ASSERT_EQ(expected.vector.size(), got.vector.size());
    for (std::size_t i = 0; i < expected.vector.size(); ++i) {
      EXPECT_EQ(expected.vector[i].labels, got.vector[i].labels);
      EXPECT_EQ(bits(expected.vector[i].value), bits(got.vector[i].value))
          << "series " << expected.vector[i].labels.to_string();
    }
    if (c.planned) {
      EXPECT_GT(hits_after, hits_before);
    } else {
      EXPECT_EQ(hits_after, hits_before);
    }
  }
}

// The coarsest covering level wins: a 2h-range query aligned to the hour
// must be answered from the 1h level, not the 5m one.
TEST(PromqlDifferential, PlannerPrefersCoarsestCoveringLevel) {
  auto store = make_integer_store(29);
  auto lt = make_ladder_store(store);
  EngineOptions options;
  options.query_cache_capacity = 0;
  Engine engine(options);
  auto before = lt->select_stats();
  auto value =
      engine.eval(*lt, "sum_over_time(power_watts[2h])", kDataEnd);
  auto after = lt->select_stats();
  ASSERT_FALSE(value.vector.empty());
  ASSERT_EQ(after.level_hits.size(), 2u);
  EXPECT_EQ(after.level_hits[0], before.level_hits[0]);  // 5m untouched
  EXPECT_GT(after.level_hits[1], before.level_hits[1]);  // 1h served it
  // And the bucket rows scanned are a sliver of the raw samples.
  EXPECT_GT(after.level_points_scanned[1], before.level_points_scanned[1]);
}

// ---------- decode-count regression ----------

// Each sealed chunk overlapping a streaming range query decodes at most
// once; the per-step oracle re-decodes per step and must sit far above
// that. This is the O(steps x window) -> O(samples) claim, measured.
TEST(PromqlDecodeCount, AtMostOncePerRangeQuery) {
  auto store = std::make_shared<TimeSeriesStore>();
  constexpr int kSeries = 8;
  constexpr int kSamples = 600;  // 5 sealed chunks per series
  for (int s = 0; s < kSeries; ++s) {
    Labels labels = Labels{{"uuid", std::to_string(s)}}.with_name("m");
    for (int i = 0; i < kSamples; ++i) {
      append_one(*store, labels, int64_t{i} * kStep, i * 1.0);
    }
  }
  std::size_t sealed_chunks = 0;
  for (const auto& view :
       store->select({}, 0, int64_t{kSamples} * kStep)) {
    for (const auto& slice : view.slices) {
      if (slice.chunk) ++sealed_chunks;
    }
  }
  ASSERT_GE(sealed_chunks, kSeries * 4u);

  auto expr = promql::parse("sum(rate(m[5m]))");
  constexpr TimestampMs kEnd = int64_t{kSamples} * kStep;

  Engine streaming = make_engine(true, nullptr);
  uint64_t before = chunk_decode_count();
  auto result = streaming.eval_range(*store, expr, 0, kEnd, kStep);
  uint64_t streaming_decodes = chunk_decode_count() - before;
  ASSERT_FALSE(result.empty());
  // One select() pass may decode the two boundary chunks per series inside
  // the store, then the query decodes each distinct chunk at most once.
  EXPECT_LE(streaming_decodes, sealed_chunks + 2 * kSeries);

  Engine oracle = make_engine(false, nullptr);
  before = chunk_decode_count();
  auto oracle_result = oracle.eval_range(*store, expr, 0, kEnd, kStep);
  uint64_t oracle_decodes = chunk_decode_count() - before;
  expect_bit_identical(oracle_result, result, "decode-count query");

  // The headline: >= 5x fewer decodes than the per-step evaluator.
  EXPECT_GE(oracle_decodes, 5 * std::max<uint64_t>(streaming_decodes, 1));
}

// Pooled streaming must hold the same decode bound: the parallel prefill
// decodes each distinct chunk once, and step-chunk evaluators share the
// prepared arrays without touching chunks again.
TEST(PromqlDecodeCount, PooledStreamingSameBound) {
  auto store = std::make_shared<TimeSeriesStore>();
  for (int s = 0; s < 4; ++s) {
    Labels labels = Labels{{"uuid", std::to_string(s)}}.with_name("m");
    for (int i = 0; i < 600; ++i) {
      append_one(*store, labels, int64_t{i} * kStep, i * 1.0);
    }
  }
  std::size_t sealed_chunks = 0;
  for (const auto& view : store->select({}, 0, int64_t{600} * kStep)) {
    for (const auto& slice : view.slices) {
      if (slice.chunk) ++sealed_chunks;
    }
  }
  auto pool = std::make_shared<common::ThreadPool>(4, "decode-test");
  Engine streaming = make_engine(true, pool);
  auto expr = promql::parse("avg_over_time(m[10m])");
  uint64_t before = chunk_decode_count();
  auto result =
      streaming.eval_range(*store, expr, 0, int64_t{600} * kStep, kStep);
  uint64_t decodes = chunk_decode_count() - before;
  ASSERT_FALSE(result.empty());
  EXPECT_LE(decodes, sealed_chunks + 2 * 4);
}

}  // namespace
}  // namespace ceems::tsdb
