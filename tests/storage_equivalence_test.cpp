// Differential test: the chunked TimeSeriesStore against a deliberately
// naive uncompressed reference store. Both ingest identical workloads
// (the shapes tsdb_concurrency_test uses: regular scrape grids, jittered
// timestamps, duplicates, rejections, NaN/Inf values, purges); every
// select() and every PromQL eval_range() must then agree bit-for-bit.
// This is the acceptance gate for the Gorilla chunk pipeline: compression
// must be invisible to queries. The SelectNewestDifferential cases hold
// the instant selector's read, select_newest(), to select() followed by
// each view's last sample, on the hot store, the long-term store and a
// Queryable that has only the default.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "metrics/model.h"
#include "tsdb/longterm.h"
#include "tsdb/promql_eval.h"
#include "tsdb/storage.h"
#include "append_one.h"

namespace ceems::tsdb {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Reference implementation: raw sample vectors, no interning, no chunks,
// no shards. Mirrors the store's append/select semantics exactly.
class FlatStore final : public Queryable {
 public:
  bool append(const Labels& labels, TimestampMs t, double v) {
    auto& samples = series_[labels];
    if (!samples.empty() && t < samples.back().t) return false;
    if (!samples.empty() && t == samples.back().t) {
      samples.back().v = v;
      return true;
    }
    samples.push_back({t, v});
    return true;
  }

  std::size_t purge_before(TimestampMs cutoff) {
    std::size_t dropped = 0;
    for (auto it = series_.begin(); it != series_.end();) {
      auto& samples = it->second;
      auto keep = std::lower_bound(
          samples.begin(), samples.end(), cutoff,
          [](const SamplePoint& s, TimestampMs t) { return s.t < t; });
      dropped += static_cast<std::size_t>(keep - samples.begin());
      samples.erase(samples.begin(), keep);
      it = samples.empty() ? series_.erase(it) : std::next(it);
    }
    return dropped;
  }

  std::vector<SeriesView> select(const std::vector<LabelMatcher>& matchers,
                                 TimestampMs min_t,
                                 TimestampMs max_t) const override {
    std::vector<SeriesView> out;
    for (const auto& [labels, samples] : series_) {
      bool matched = true;
      for (const auto& matcher : matchers) {
        if (!matcher.matches(labels)) {
          matched = false;
          break;
        }
      }
      if (!matched) continue;
      auto begin = std::lower_bound(
          samples.begin(), samples.end(), min_t,
          [](const SamplePoint& s, TimestampMs t) { return s.t < t; });
      auto end = std::upper_bound(
          samples.begin(), samples.end(), max_t,
          [](TimestampMs t, const SamplePoint& s) { return t < s.t; });
      if (begin >= end) continue;  // min_t > max_t can cross them
      out.push_back(
          SeriesView::owned(labels, std::vector<SamplePoint>(begin, end)));
    }
    // std::map iterates in label order — same order select() sorts into.
    return out;
  }

 private:
  std::map<Labels, std::vector<SamplePoint>> series_;
};

void expect_same_select(const Queryable& chunked, const Queryable& flat,
                        const std::vector<LabelMatcher>& matchers,
                        TimestampMs min_t, TimestampMs max_t,
                        const std::string& what) {
  auto a = chunked.select(matchers, min_t, max_t);
  auto b = flat.select(matchers, min_t, max_t);
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].labels, b[i].labels) << what;
    auto sa = a[i].samples();
    auto sb = b[i].samples();
    ASSERT_EQ(sa.size(), sb.size()) << what << " series " << i;
    for (std::size_t j = 0; j < sa.size(); ++j) {
      ASSERT_EQ(sa[j].t, sb[j].t) << what << " series " << i;
      ASSERT_TRUE(same_bits(sa[j].v, sb[j].v))
          << what << " series " << i << " sample " << j;
    }
  }
}

void expect_same_eval(const Queryable& chunked, const Queryable& flat,
                      const std::string& query, TimestampMs start,
                      TimestampMs end, int64_t step) {
  promql::EngineOptions options;
  promql::Engine engine(options);
  auto a = engine.eval_range(chunked, query, start, end, step);
  auto b = engine.eval_range(flat, query, start, end, step);
  ASSERT_EQ(a.size(), b.size()) << query;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].labels, b[i].labels) << query;
    ASSERT_EQ(a[i].samples.size(), b[i].samples.size()) << query;
    for (std::size_t j = 0; j < a[i].samples.size(); ++j) {
      ASSERT_EQ(a[i].samples[j].t, b[i].samples[j].t) << query;
      ASSERT_TRUE(same_bits(a[i].samples[j].v, b[i].samples[j].v))
          << query << " series " << i << " step " << j;
    }
  }
}

TEST(StorageEquivalence, RegularScrapeGridSelectsAndEvals) {
  // The ParallelRangeEvalMatchesSerialBitForBit workload: 72 series, 240
  // regular 30 s samples each — enough to seal two chunks per series.
  TimeSeriesStore chunked;
  FlatStore flat;
  for (int h = 0; h < 12; ++h) {
    for (int s = 0; s < 6; ++s) {
      auto labels = metrics::Labels{{"hostname", "n" + std::to_string(h)},
                                    {"uuid", std::to_string(s)}}
                        .with_name("m");
      for (int i = 0; i < 240; ++i) {
        double v = i * 7.0 + h * 0.25 + s * 0.125;
        ASSERT_TRUE(append_one(chunked, labels, i * 30000, v));
        ASSERT_TRUE(flat.append(labels, i * 30000, v));
      }
    }
  }

  expect_same_select(chunked, flat, {}, 0, 240 * 30000, "full range");
  expect_same_select(chunked, flat,
                     {{"hostname", LabelMatcher::Op::kEq, "n3"}}, 0,
                     240 * 30000, "by hostname");
  // Mid-chunk boundaries on both ends.
  expect_same_select(chunked, flat, {}, 37 * 30000 + 1, 203 * 30000 - 1,
                     "chunk-straddling range");
  // Range entirely inside one sealed chunk.
  expect_same_select(chunked, flat, {}, 10 * 30000, 20 * 30000,
                     "inside first chunk");
  // Empty intersection.
  expect_same_select(chunked, flat, {}, 241 * 30000, 300 * 30000,
                     "past the end");

  for (const std::string query :
       {"sum by (hostname) (rate(m[2m]))", "avg(m)", "m * 2",
        "topk(3, sum by (hostname) (m))",
        "avg_over_time(m[5m])"}) {
    expect_same_eval(chunked, flat, query, 0, 240 * 30000, 30000);
  }
}

TEST(StorageEquivalence, JitteredWorkloadWithRejectsAndSpecials) {
  // Adversarial ingest: jittered intervals, duplicate timestamps
  // (overwrite), stale timestamps (reject), NaN/Inf/-0.0 values. Both
  // stores must accept/reject identically and then agree on every query.
  TimeSeriesStore chunked;
  FlatStore flat;
  std::mt19937_64 rng(20240806);
  std::uniform_int_distribution<int64_t> jitter(-400, 400);
  std::uniform_real_distribution<double> value(0.0, 1e9);

  constexpr int kSeries = 8;
  std::vector<Labels> all_labels;
  std::vector<int64_t> cursor(kSeries, 1700000000000LL);
  for (int s = 0; s < kSeries; ++s) {
    all_labels.push_back(
        Labels{{"uuid", std::to_string(s)}}.with_name("jittered"));
  }
  for (int op = 0; op < 4000; ++op) {
    int s = static_cast<int>(rng() % kSeries);
    int64_t t;
    switch (rng() % 10) {
      case 0: t = cursor[s];  // duplicate: overwrite newest
        break;
      case 1: t = cursor[s] - 5000 - static_cast<int64_t>(rng() % 50000);
        break;  // stale: rejected
      default: t = cursor[s] + 30000 + jitter(rng);
    }
    double v;
    switch (rng() % 12) {
      case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v = std::numeric_limits<double>::infinity(); break;
      case 2: v = -std::numeric_limits<double>::infinity(); break;
      case 3: v = -0.0; break;
      default: v = value(rng);
    }
    bool a = append_one(chunked, all_labels[s], t, v);
    bool b = flat.append(all_labels[s], t, v);
    ASSERT_EQ(a, b) << "op " << op;
    if (a && t > cursor[s]) cursor[s] = t;
  }

  int64_t max_t = *std::max_element(cursor.begin(), cursor.end());
  expect_same_select(chunked, flat, {}, 0, max_t + 1, "jittered full");
  expect_same_select(chunked, flat,
                     {{"uuid", LabelMatcher::Op::kRegexMatch, "[0-3]"}},
                     1700000000000LL + 3000000, max_t - 3000000,
                     "jittered regex mid-range");
  expect_same_eval(chunked, flat, "count_over_time(jittered[10m])",
                   1700000000000LL, max_t, 60000);
}

TEST(StorageEquivalence, PurgeKeepsStoresAligned) {
  // purge_before() lands mid-chunk, forcing the partial re-encode path;
  // the surviving data must stay identical to the reference.
  TimeSeriesStore chunked;
  FlatStore flat;
  for (int s = 0; s < 4; ++s) {
    auto labels = Labels{{"uuid", std::to_string(s)}}.with_name("ctr");
    for (int i = 0; i < 500; ++i) {
      double v = i * 1.5 + s;
      ASSERT_TRUE(append_one(chunked, labels, int64_t{i} * 1000, v));
      ASSERT_TRUE(flat.append(labels, int64_t{i} * 1000, v));
    }
  }
  for (TimestampMs cutoff : {57 * 1000LL, 130 * 1000LL, 499 * 1000LL}) {
    std::size_t a = chunked.purge_before(cutoff);
    std::size_t b = flat.purge_before(cutoff);
    EXPECT_EQ(a, b) << "cutoff " << cutoff;
    expect_same_select(chunked, flat, {}, 0, 500 * 1000,
                       "after purge " + std::to_string(cutoff));
    expect_same_eval(chunked, flat, "rate(ctr[2m])", cutoff, 500 * 1000,
                     15000);
  }
}

// ---------- select_newest() vs select() + the last sample ----------

using Op = LabelMatcher::Op;

// The read select_newest() replaces: select(), then each view's last
// sample, fully decoded.
std::vector<NewestSample> newest_by_select(
    const Queryable& source, const std::vector<LabelMatcher>& matchers,
    TimestampMs min_t, TimestampMs max_t) {
  std::vector<NewestSample> out;
  for (const auto& view : source.select(matchers, min_t, max_t)) {
    auto samples = view.samples();
    if (!samples.empty()) out.push_back({view.labels, samples.back()});
  }
  return out;
}

void expect_same_newest(const std::vector<NewestSample>& got,
                        const std::vector<NewestSample>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].labels, want[i].labels) << what << " series " << i;
    EXPECT_EQ(got[i].sample.t, want[i].sample.t) << what << " series " << i;
    EXPECT_TRUE(same_bits(got[i].sample.v, want[i].sample.v))
        << what << " series " << i;
  }
}

// The source's select_newest() and the Queryable default, each against
// the reference.
void check_newest(const Queryable& source,
                  const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
                  TimestampMs max_t, const std::string& what) {
  auto want = newest_by_select(source, matchers, min_t, max_t);
  expect_same_newest(source.select_newest(matchers, min_t, max_t), want,
                     what + " (override)");
  expect_same_newest(source.Queryable::select_newest(matchers, min_t, max_t),
                     want, what + " (default)");
}

const std::vector<std::vector<LabelMatcher>>& matcher_sets() {
  static const std::vector<std::vector<LabelMatcher>> sets = {
      {},
      {{"__name__", Op::kEq, "m"}},
      {{"__name__", Op::kRegexMatch, "m|stale|restored"}},
      {{"uuid", Op::kNe, "1"}},
      {{"__name__", Op::kEq, "m"}, {"uuid", Op::kEq, "3"}},
      {{"hostname", Op::kEq, "nowhere"}},
  };
  return sets;
}

// Windows around every interesting timestamp in `stamps` (chunk bounds,
// first and last samples, markers), each at several lookbacks, plus
// seeded random ones and an inverted one.
std::vector<std::pair<TimestampMs, TimestampMs>> windows_around(
    const std::vector<TimestampMs>& stamps, TimestampMs lo, TimestampMs hi,
    uint64_t seed) {
  std::vector<std::pair<TimestampMs, TimestampMs>> out;
  for (TimestampMs t : stamps) {
    for (TimestampMs at : {t - 1, t, t + 1}) {
      for (TimestampMs lookback : {TimestampMs{0}, TimestampMs{1},
                                   TimestampMs{30000}, TimestampMs{300000},
                                   TimestampMs{10000000}}) {
        out.emplace_back(at - lookback, at);
      }
    }
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<TimestampMs> when(lo, hi);
  std::uniform_int_distribution<TimestampMs> width(0, 1200000);
  for (int i = 0; i < 100; ++i) {
    TimestampMs at = when(rng);
    out.emplace_back(at - width(rng), at);
  }
  out.emplace_back(hi, lo);  // min_t > max_t
  out.emplace_back(std::numeric_limits<TimestampMs>::min(),
                   std::numeric_limits<TimestampMs>::max());
  return out;
}

void check_all_windows(const Queryable& source,
                       const std::vector<TimestampMs>& stamps, TimestampMs lo,
                       TimestampMs hi, const std::string& what) {
  for (const auto& [min_t, max_t] : windows_around(stamps, lo, hi, 7)) {
    for (std::size_t m = 0; m < matcher_sets().size(); ++m) {
      check_newest(source, matcher_sets()[m], min_t, max_t,
                   what + " [" + std::to_string(min_t) + ", " +
                       std::to_string(max_t) + "] matchers " +
                       std::to_string(m));
      if (testing::Test::HasFailure()) return;
    }
  }
}

// Fills `store` (and `flat`, when given) with head-only series, series
// with sealed chunks, a jittered series with same-timestamp overwrites and
// special values, and one ending in a staleness marker. Returns the
// timestamps worth probing around.
std::vector<TimestampMs> seed_store(TimeSeriesStore& store, FlatStore* flat) {
  std::vector<TimestampMs> stamps;
  auto put = [&](const Labels& labels, TimestampMs t, double v) {
    bool a = append_one(store, labels, t, v);
    if (flat) {
      EXPECT_EQ(flat->append(labels, t, v), a);
    }
  };
  // Head only: 50 samples.
  for (int s = 0; s < 3; ++s) {
    Labels labels = Labels{{"uuid", std::to_string(s)}}.with_name("m");
    for (int i = 0; i < 50; ++i) put(labels, int64_t{i} * 30000 + s, i + s);
  }
  // Two sealed chunks plus a head of 60; chunk bounds at samples 119/120
  // and 239/240.
  for (int s = 3; s < 5; ++s) {
    Labels labels = Labels{{"uuid", std::to_string(s)}}.with_name("m");
    for (int i = 0; i < 300; ++i) put(labels, int64_t{i} * 30000, i * 0.5 + s);
  }
  for (int i : {0, 119, 120, 239, 240, 299}) stamps.push_back(int64_t{i} * 30000);
  // Jittered, with same-timestamp overwrites and special values.
  std::mt19937_64 rng(20261021);
  Labels jittered = Labels{{"uuid", "9"}}.with_name("m");
  TimestampMs t = 0;
  for (int i = 0; i < 400; ++i) {
    if (rng() % 5 != 0) t += 1 + static_cast<TimestampMs>(rng() % 60000);
    double v = static_cast<double>(rng() % 1000);
    switch (rng() % 10) {
      case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v = -0.0; break;
      case 2: v = std::numeric_limits<double>::infinity(); break;
      default: break;
    }
    put(jittered, t, v);
    if (i % 97 == 0) stamps.push_back(t);
  }
  stamps.push_back(t);
  // Ends in a staleness marker, which select_newest() returns as is.
  Labels stale = Labels{{"uuid", "5"}}.with_name("stale");
  for (int i = 0; i < 130; ++i) put(stale, int64_t{i} * 30000, i);
  put(stale, 130 * 30000, metrics::stale_marker());
  stamps.push_back(130 * 30000);
  return stamps;
}

TEST(SelectNewestDifferential, HotStoreMatchesSelectAndLast) {
  TimeSeriesStore store;
  auto stamps = seed_store(store, nullptr);
  check_all_windows(store, stamps, -60000, 13000000, "hot");
}

TEST(SelectNewestDifferential, DefaultOnlyQueryableMatchesTheStore) {
  // FlatStore overrides only select(): its select_newest() is the default,
  // and it holds the same samples as the chunked store.
  TimeSeriesStore store;
  FlatStore flat;
  auto stamps = seed_store(store, &flat);
  for (const auto& [min_t, max_t] :
       windows_around(stamps, -60000, 13000000, 11)) {
    for (const auto& matchers : matcher_sets()) {
      expect_same_newest(flat.select_newest(matchers, min_t, max_t),
                         store.select_newest(matchers, min_t, max_t),
                         "flat [" + std::to_string(min_t) + ", " +
                             std::to_string(max_t) + "]");
      check_newest(flat, matchers, min_t, max_t, "flat");
      if (HasFailure()) return;
    }
  }
}

TEST(SelectNewestDifferential, PurgeAndDeleteKeepTheMatch) {
  TimeSeriesStore store;
  auto stamps = seed_store(store, nullptr);
  // Mid-chunk cutoffs re-encode a straddling chunk's suffix.
  for (TimestampMs cutoff : {57 * 30000LL, 130 * 30000LL, 250 * 30000LL}) {
    store.purge_before(cutoff);
    check_all_windows(store, stamps, -60000, 13000000,
                      "purged " + std::to_string(cutoff));
  }
  EXPECT_EQ(store.delete_series({{"uuid", Op::kEq, "3"}}), 1u);
  EXPECT_EQ(store.delete_series({{"uuid", Op::kEq, "9"}}), 1u);
  check_all_windows(store, stamps, -60000, 13000000, "deleted");
}

TEST(SelectNewestDifferential, NewestInLastSealedChunkWithEmptyHead) {
  // A snapshot whose series has two sealed chunks and no head: after
  // restore_from_bytes the newest sample lives in the last sealed chunk.
  std::vector<SamplePoint> first, second;
  for (int i = 0; i < 120; ++i) first.push_back({int64_t{i} * 30000, i * 0.25});
  for (int i = 120; i < 200; ++i) {
    second.push_back({int64_t{i} * 30000 + 7, i * 0.25});
  }
  std::string snapshot = "CEEMSTSDB2";
  auto put_u64 = [&](uint64_t v) {
    snapshot.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_str = [&](const std::string& text) {
    put_u64(text.size());
    snapshot += text;
  };
  put_u64(1);  // num_series
  put_u64(2);  // num_labels
  put_str("__name__");
  put_str("restored");
  put_str("uuid");
  put_str("7");
  put_u64(2);  // num_sealed
  for (const auto* samples : {&first, &second}) {
    auto chunk = GorillaChunk::encode(samples->data(), samples->size());
    ASSERT_NE(chunk, nullptr);
    put_u64(chunk->count());
    put_u64(static_cast<uint64_t>(chunk->min_time()));
    put_u64(static_cast<uint64_t>(chunk->max_time()));
    put_u64(chunk->bytes().size());
    snapshot.append(reinterpret_cast<const char*>(chunk->bytes().data()),
                    chunk->bytes().size());
  }
  put_u64(0);  // num_head: empty

  TimeSeriesStore store;
  ASSERT_EQ(store.restore_from_bytes(snapshot), std::optional<std::size_t>{200});
  std::vector<TimestampMs> stamps = {0, 119 * 30000, 120 * 30000 + 7,
                                     199 * 30000 + 7};
  check_all_windows(store, stamps, -60000, 7000000, "restored");
  auto newest = store.select_newest({}, 0, 199 * 30000 + 7);
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_EQ(newest[0].sample.t, 199 * 30000 + 7);
  EXPECT_EQ(newest[0].sample.v, 199 * 0.25);

  // A same-timestamp write re-seals the last chunk: last write wins.
  Labels labels = Labels{{"uuid", "7"}}.with_name("restored");
  ASSERT_TRUE(append_one(store, labels, 199 * 30000 + 7, -1.5));
  check_all_windows(store, stamps, -60000, 7000000, "overwritten");
  newest = store.select_newest({}, 0, 199 * 30000 + 7);
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_EQ(newest[0].sample.v, -1.5);
}

TEST(SelectNewestDifferential, LongTermAcrossPurgeBoundaryAndCursor) {
  LongTermConfig config;
  config.downsample_after_ms = 10 * 60000;
  config.levels = {{5 * 60000, 0}};
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore lt(hot, config);
  constexpr TimestampMs kSynced = 2 * 3600000;
  std::vector<TimestampMs> stamps;
  for (TimestampMs t = 0; t <= kSynced; t += 30000) {
    for (int s = 0; s < 4; ++s) {
      Labels labels = Labels{{"uuid", std::to_string(s)}}.with_name("m");
      // Series 1 ends in a staleness marker an hour in.
      if (s == 1 && t > 3600000) continue;
      double v = s == 1 && t == 3600000 ? metrics::stale_marker()
                                         : static_cast<double>(t / 1000 + s);
      ASSERT_TRUE(append_one(*hot, labels, t, v));
    }
  }
  lt.sync_from(*hot);
  lt.compact(kSynced);
  // Samples past the sync cursor: select() does not see them yet, and
  // neither may select_newest().
  for (TimestampMs t = kSynced + 30000; t <= kSynced + 120000; t += 30000) {
    ASSERT_TRUE(append_one(*hot, Labels{{"uuid", "0"}}.with_name("m"), t, -1));
  }
  for (TimestampMs t = 0; t <= kSynced + 150000; t += 300000) stamps.push_back(t);
  // Around the purge boundary (the horizon, aligned to 5 min) and the
  // cursor.
  for (TimestampMs t : {kSynced - 600000, kSynced - 600000 + 30000,
                        TimestampMs{3600000}, kSynced, kSynced + 30000}) {
    stamps.push_back(t);
  }
  check_all_windows(lt, stamps, 0, kSynced + 200000, "longterm");

  // Past the purge boundary: only the hot store's newest samples, up to
  // the cursor.
  auto recent = lt.select_newest({{"uuid", Op::kEq, "0"}},
                                 kSynced - 300000, kSynced + 200000);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].sample.t, kSynced);
}

}  // namespace
}  // namespace ceems::tsdb
