// Differential test: the chunked TimeSeriesStore against a deliberately
// naive uncompressed reference store. Both ingest identical workloads
// (the shapes tsdb_concurrency_test uses: regular scrape grids, jittered
// timestamps, duplicates, rejections, NaN/Inf values, purges); every
// select() and every PromQL eval_range() must then agree bit-for-bit.
// This is the acceptance gate for the Gorilla chunk pipeline: compression
// must be invisible to queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

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
      if (begin == end) continue;
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

}  // namespace
}  // namespace ceems::tsdb
