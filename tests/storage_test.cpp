#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>

#include "common/fnv1a.h"
#include "metrics/symbols.h"
#include "tsdb/posting_index.h"
#include "tsdb/storage.h"
#include "append_one.h"

namespace ceems::tsdb {
namespace {

Labels series_labels(const std::string& name, const std::string& host) {
  return Labels{{"hostname", host}}.with_name(name);
}

TEST(Storage, AppendAndSelect) {
  TimeSeriesStore store;
  append_one(store, series_labels("up", "n1"), 1000, 1);
  append_one(store, series_labels("up", "n1"), 2000, 0);
  append_one(store, series_labels("up", "n2"), 1000, 1);

  auto all = store.select(
      {{"__name__", LabelMatcher::Op::kEq, "up"}}, 0, 10000);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].samples().size(), 2u);

  auto one = store.select({{"__name__", LabelMatcher::Op::kEq, "up"},
                           {"hostname", LabelMatcher::Op::kEq, "n2"}},
                          0, 10000);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(*one[0].labels.get("hostname"), "n2");
}

TEST(Storage, TimeRangeFiltering) {
  TimeSeriesStore store;
  for (int i = 0; i < 10; ++i) {
    append_one(store, series_labels("m", "n1"), i * 1000, i);
  }
  auto result = store.select({}, 3000, 6000);
  ASSERT_EQ(result.size(), 1u);
  ASSERT_EQ(result[0].samples().size(), 4u);  // 3,4,5,6 inclusive
  EXPECT_EQ(result[0].samples().front().t, 3000);
  EXPECT_EQ(result[0].samples().back().t, 6000);
}

TEST(Storage, OutOfOrderRejected) {
  TimeSeriesStore store;
  EXPECT_TRUE(append_one(store, series_labels("m", "n1"), 2000, 1));
  EXPECT_FALSE(append_one(store, series_labels("m", "n1"), 1000, 2));
  EXPECT_EQ(store.stats().num_samples, 1u);
}

TEST(Storage, DuplicateTimestampLastWins) {
  TimeSeriesStore store;
  append_one(store, series_labels("m", "n1"), 1000, 1);
  append_one(store, series_labels("m", "n1"), 1000, 9);
  auto result = store.select({}, 0, 2000);
  EXPECT_DOUBLE_EQ(result[0].samples()[0].v, 9);
  EXPECT_EQ(store.stats().num_samples, 1u);
}

TEST(Storage, NegativeMatcherNeedsFullScan) {
  TimeSeriesStore store;
  append_one(store, series_labels("m", "n1"), 1000, 1);
  append_one(store, series_labels("m", "n2"), 1000, 2);
  auto result = store.select({{"hostname", LabelMatcher::Op::kNe, "n1"}},
                             0, 2000);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(*result[0].labels.get("hostname"), "n2");
}

TEST(Storage, RegexMatcher) {
  TimeSeriesStore store;
  append_one(store, series_labels("m", "jzcpu1"), 1000, 1);
  append_one(store, series_labels("m", "jzgpu1"), 1000, 2);
  auto result = store.select(
      {{"hostname", LabelMatcher::Op::kRegexMatch, "jzcpu\\d+"}}, 0, 2000);
  ASSERT_EQ(result.size(), 1u);
}

TEST(Storage, PurgeBeforeDropsSamplesAndEmptySeries) {
  TimeSeriesStore store;
  for (int i = 0; i < 10; ++i) {
    append_one(store, series_labels("old", "n1"), i * 1000, i);
  }
  append_one(store, series_labels("fresh", "n1"), 20000, 1);
  std::size_t dropped = store.purge_before(15000);
  EXPECT_EQ(dropped, 10u);
  EXPECT_EQ(store.stats().num_series, 1u);
  // Purged series no longer matches.
  EXPECT_TRUE(store.select({{"__name__", LabelMatcher::Op::kEq, "old"}}, 0,
                           30000)
                  .empty());
}

TEST(Storage, DeleteSeriesByMatcher) {
  TimeSeriesStore store;
  append_one(store, Labels{{"uuid", "1"}}.with_name("m"), 1000, 1);
  append_one(store, Labels{{"uuid", "2"}}.with_name("m"), 1000, 1);
  append_one(store, Labels{{"uuid", "1"}}.with_name("n"), 1000, 1);
  std::size_t deleted =
      store.delete_series({{"uuid", LabelMatcher::Op::kEq, "1"}});
  EXPECT_EQ(deleted, 2u);
  EXPECT_EQ(store.stats().num_series, 1u);
}

TEST(Storage, AdvanceWatermarkCountsSince) {
  TimeSeriesStore store;
  append_one(store, series_labels("m", "n1"), 1000, 1);
  append_one(store, series_labels("m", "n1"), 2000, 2);
  append_one(store, series_labels("m", "n2"), 3000, 3);
  EXPECT_EQ(store.watermark(), TimeSeriesStore::kNoWatermark);
  TimeSeriesStore::SinceCount fresh = store.advance_watermark(1500);
  EXPECT_EQ(fresh.samples, 2u);
  EXPECT_EQ(fresh.newest, 3000);
  EXPECT_EQ(store.watermark(), 3000);
  // Nothing new: the count is empty and the watermark stays.
  fresh = store.advance_watermark(3001);
  EXPECT_EQ(fresh.samples, 0u);
  EXPECT_EQ(fresh.newest, TimeSeriesStore::kNoWatermark);
  EXPECT_EQ(store.watermark(), 3000);
  // It never lowers the watermark.
  EXPECT_EQ(store.advance_watermark(0).samples, 3u);
  EXPECT_EQ(store.watermark(), 3000);

  // Sealed chunks count by header when wholly newer and are decoded only
  // when they straddle `since`.
  TimeSeriesStore sealed;
  for (int i = 0; i < 300; ++i) {
    append_one(sealed, series_labels("m", "n1"), int64_t{i} * 1000, i);
  }
  EXPECT_EQ(sealed.advance_watermark(150'000).samples, 150u);
  EXPECT_EQ(sealed.advance_watermark(299'000).newest, 299'000);
  EXPECT_EQ(sealed.advance_watermark(0).samples, 300u);
}

TEST(Storage, EmptyStoreBehaviour) {
  TimeSeriesStore store;
  EXPECT_TRUE(store.select({}, 0, 1000).empty());
  EXPECT_FALSE(store.max_time().has_value());
  EXPECT_EQ(store.purge_before(100), 0u);
  EXPECT_EQ(store.stats().num_series, 0u);
}

TEST(Storage, SnapshotRoundTrip) {
  TimeSeriesStore store;
  for (int s = 0; s < 20; ++s) {
    Labels labels = Labels{{"uuid", std::to_string(s)},
                           {"hostname", "n" + std::to_string(s % 3)}}
                        .with_name("m");
    for (int i = 0; i < 50; ++i) {
      append_one(store, labels, i * 30000, s * 1000.0 + i);
    }
  }
  TimeSeriesStore restored;
  auto count = restored.restore_from_bytes(store.snapshot_bytes());
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 20u * 50u);
  EXPECT_EQ(restored.stats().num_series, store.stats().num_series);
  auto original = store.select({}, 0, 50 * 30000);
  auto copy = restored.select({}, 0, 50 * 30000);
  ASSERT_EQ(original.size(), copy.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].labels, copy[i].labels);
    ASSERT_EQ(original[i].samples().size(), copy[i].samples().size());
    EXPECT_DOUBLE_EQ(original[i].samples().back().v, copy[i].samples().back().v);
  }
}

TEST(Storage, SnapshotRestoreRejectsCorruptFile) {
  TimeSeriesStore store;
  EXPECT_FALSE(store.restore_from_bytes("NOTASNAPSHOT garbage").has_value());
  EXPECT_FALSE(store.restore_from_bytes("").has_value());
  // The retired raw-sample format is refused like any unknown magic.
  EXPECT_FALSE(
      store.restore_from_bytes(std::string("CEEMSTSDB1") + std::string(8, '\0'))
          .has_value());

  // Truncated valid snapshot: clean abort, no crash.
  TimeSeriesStore source;
  append_one(source, Labels{{"a", "b"}}.with_name("m"), 1000, 1);
  std::string content = source.snapshot_bytes();
  TimeSeriesStore truncated;
  EXPECT_FALSE(
      truncated
          .restore_from_bytes(std::string_view(content).substr(
              0, content.size() - 6))
          .has_value());
}

TEST(Storage, StatsTrackCardinality) {
  TimeSeriesStore store;
  for (int s = 0; s < 100; ++s) {
    Labels labels = Labels{{"uuid", std::to_string(s)}}.with_name("m");
    for (int i = 0; i < 10; ++i) append_one(store, labels, i * 1000, i);
  }
  StorageStats stats = store.stats();
  EXPECT_EQ(stats.num_series, 100u);
  EXPECT_EQ(stats.num_samples, 1000u);
  EXPECT_GT(stats.approx_bytes, 0u);
  // The process-global symbol table is reported separately, not folded
  // into approx_bytes: another store in the same process sees the same
  // shared value, so summing approx_bytes across stores stays correct.
  EXPECT_GT(stats.symbol_bytes, 0u);
  TimeSeriesStore other;
  append_one(other, Labels{{"uuid", "0"}}.with_name("m"), 0, 1);
  EXPECT_EQ(other.stats().symbol_bytes, store.stats().symbol_bytes);
  EXPECT_LT(other.stats().approx_bytes, stats.approx_bytes);
}

TEST(Storage, SealedChunksCompressRegularSeries) {
  // A realistic scrape shape: fixed 30 s interval, slowly-moving gauge.
  // Once chunks seal, the footprint must drop well below the raw
  // 16 bytes/sample representation (the ISSUE acceptance bar is >=4x).
  TimeSeriesStore store;
  constexpr int kSeries = 10;
  constexpr int kSamples = 1000;
  for (int s = 0; s < kSeries; ++s) {
    Labels labels = Labels{{"uuid", std::to_string(s)}}.with_name("g");
    for (int i = 0; i < kSamples; ++i) {
      append_one(store, labels, 1700000000000LL + int64_t{i} * 30000,
                   100.0 + (i % 5));
    }
  }
  StorageStats stats = store.stats();
  EXPECT_EQ(stats.num_samples, static_cast<std::size_t>(kSeries * kSamples));
  // Sample payload only (strip the label/symbol overhead shared with any
  // representation): count sealed bytes + head via the ratio bound.
  EXPECT_LT(stats.approx_bytes,
            stats.num_samples * sizeof(SamplePoint) / 4);
}

TEST(Storage, FingerprintCollisionsDoNotAliasSeries) {
  // Force two distinct label sets onto one fingerprint via the test-only
  // override constructor; the store must chain them into distinct series.
  TimeSeriesStore store;
  constexpr uint64_t kFp = 0xdeadbeefcafef00dULL;
  metrics::InternedLabels a(Labels{{"host", "a"}}.with_name("m"), kFp);
  metrics::InternedLabels b(Labels{{"host", "b"}}.with_name("m"), kFp);
  EXPECT_TRUE(append_one(store, a, 1000, 1));
  EXPECT_TRUE(append_one(store, b, 1000, 2));
  EXPECT_TRUE(append_one(store, a, 2000, 3));

  StorageStats stats = store.stats();
  EXPECT_EQ(stats.num_series, 2u);
  EXPECT_EQ(stats.num_samples, 3u);

  auto only_a =
      store.select({{"host", LabelMatcher::Op::kEq, "a"}}, 0, 10000);
  ASSERT_EQ(only_a.size(), 1u);
  EXPECT_EQ(only_a[0].samples().size(), 2u);
  EXPECT_DOUBLE_EQ(only_a[0].samples().back().v, 3);

  auto only_b =
      store.select({{"host", LabelMatcher::Op::kEq, "b"}}, 0, 10000);
  ASSERT_EQ(only_b.size(), 1u);
  EXPECT_DOUBLE_EQ(only_b[0].samples()[0].v, 2);

  // Deleting one colliding series must not take the other with it.
  EXPECT_EQ(store.delete_series({{"host", LabelMatcher::Op::kEq, "a"}}), 1u);
  EXPECT_EQ(store.stats().num_series, 1u);
  EXPECT_EQ(
      store.select({{"host", LabelMatcher::Op::kEq, "b"}}, 0, 10000).size(),
      1u);
}

TEST(Storage, FreedSlotIsReusedWithoutStalePostings) {
  // Forced fingerprints put every series in shard 0, where they share the
  // "job" posting. Deleting b frees its slot; d reuses it and so lands
  // mid-list in the shared posting, while b's own posting is gone.
  TimeSeriesStore store;
  auto make = [](const std::string& uuid, uint64_t fingerprint) {
    return metrics::InternedLabels(
        Labels{{"job", "slots"}, {"uuid", uuid}}.with_name("m"), fingerprint);
  };
  const metrics::InternedLabels a = make("a", 0x100), b = make("b", 0x200),
                                c = make("c", 0x300), d = make("d", 0x400),
                                e = make("e", 0x500);
  for (const auto* labels : {&a, &b, &c, &e}) {
    ASSERT_TRUE(append_one(store, *labels, 1000, 1));
  }
  const std::size_t bytes_with_four = store.stats().approx_bytes;
  EXPECT_EQ(store.delete_series({{"uuid", LabelMatcher::Op::kEq, "b"}}), 1u);
  ASSERT_TRUE(append_one(store, d, 2000, 4));
  // d took b's slot and b's place in every shared posting: nothing grew
  // but the free list, by its one entry.
  EXPECT_EQ(store.stats().approx_bytes, bytes_with_four + sizeof(uint32_t));

  auto uuids = [&store](const std::vector<LabelMatcher>& matchers) {
    std::vector<std::string> out;
    for (const auto& view : store.select(matchers, 0, 10000)) {
      out.emplace_back(*view.labels.get("uuid"));
    }
    return out;
  };
  using Uuids = std::vector<std::string>;
  const LabelMatcher job{"job", LabelMatcher::Op::kEq, "slots"};
  EXPECT_EQ(uuids({job}), (Uuids{"a", "c", "d", "e"}));
  EXPECT_EQ(uuids({{"uuid", LabelMatcher::Op::kEq, "b"}}), Uuids{});
  EXPECT_EQ(uuids({{"uuid", LabelMatcher::Op::kEq, "d"}}), Uuids{"d"});
  // b comes back as a new series in a new slot.
  ASSERT_TRUE(append_one(store, b, 3000, 2));
  EXPECT_EQ(uuids({job}), (Uuids{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(store.stats().num_series, 5u);
  EXPECT_EQ(store.delete_series({job}), 5u);
  EXPECT_EQ(store.stats().num_series, 0u);
  EXPECT_EQ(uuids({}), Uuids{});
}

TEST(Storage, SnapshotSealedChunksSurviveRoundTrip) {
  // Enough samples that sealed chunks exist: the v2 round trip must
  // reproduce every sample bit-for-bit through the compressed path.
  TimeSeriesStore store;
  Labels labels = Labels{{"uuid", "1"}}.with_name("m");
  constexpr int kSamples = 300;  // 2 sealed chunks + head
  for (int i = 0; i < kSamples; ++i) {
    append_one(store, labels, int64_t{i} * 30000, i * 0.25);
  }
  TimeSeriesStore restored;
  auto count = restored.restore_from_bytes(store.snapshot_bytes());
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, static_cast<std::size_t>(kSamples));
  auto original = store.select({}, 0, kSamples * 30000)[0].samples();
  auto copy = restored.select({}, 0, kSamples * 30000)[0].samples();
  ASSERT_EQ(original.size(), copy.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].t, copy[i].t);
    EXPECT_EQ(std::memcmp(&original[i].v, &copy[i].v, sizeof(double)), 0);
  }
}

TEST(Storage, SnapshotV2RejectsTruncatedChunk) {
  TimeSeriesStore store;
  Labels labels = Labels{{"uuid", "1"}}.with_name("m");
  for (int i = 0; i < 200; ++i) {
    append_one(store, labels, int64_t{i} * 30000, i);
  }
  std::string content = store.snapshot_bytes();
  // Cut deep enough to land inside the sealed chunk payload (the head
  // region at the tail is 80 samples * 16 bytes + its count field).
  std::size_t cut = 80 * 16 + 8 + 40;
  ASSERT_GT(content.size(), cut);
  TimeSeriesStore truncated;
  EXPECT_FALSE(truncated
                   .restore_from_bytes(std::string_view(content).substr(
                       0, content.size() - cut))
                   .has_value());
}

TEST(Storage, SnapshotV2EmptyHeadRestoresAndMergesSafely) {
  // A v2 snapshot whose head section is empty: after restore the newest
  // sample lives in a sealed chunk, not the head. A second restore of the
  // same file replays the chunk's boundary timestamp against that empty
  // head, and a post-restore duplicate-timestamp append must overwrite
  // via chunk re-seal — both used to hit head_.back() on an empty vector.
  std::vector<SamplePoint> samples;
  for (int i = 0; i < 120; ++i) {
    samples.push_back({int64_t{i} * 30000, i * 0.5});
  }
  auto chunk = GorillaChunk::encode(samples.data(), samples.size());
  ASSERT_NE(chunk, nullptr);
  std::string snapshot;
  {
    auto put_u64 = [&](uint64_t v) {
      snapshot.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    auto put_str = [&](const std::string& s) {
      put_u64(s.size());
      snapshot += s;
    };
    snapshot += "CEEMSTSDB2";
    put_u64(1);  // num_series
    put_u64(2);  // num_labels
    put_str("__name__");
    put_str("m");
    put_str("uuid");
    put_str("1");
    put_u64(1);  // num_sealed
    put_u64(chunk->count());
    put_u64(static_cast<uint64_t>(chunk->min_time()));
    put_u64(static_cast<uint64_t>(chunk->max_time()));
    put_u64(chunk->bytes().size());
    snapshot.append(reinterpret_cast<const char*>(chunk->bytes().data()),
                    chunk->bytes().size());
    put_u64(0);  // num_head: empty
  }
  TimeSeriesStore store;
  auto first = store.restore_from_bytes(snapshot);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 120u);
  // Second restore merges: every chunk sample is a duplicate, the last
  // one with t == last_t_ while the head is empty.
  auto second = store.restore_from_bytes(snapshot);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 0u);
  EXPECT_EQ(store.stats().num_samples, 120u);

  // Duplicate-timestamp append straight after restore: last write wins.
  Labels labels = Labels{{"uuid", "1"}}.with_name("m");
  EXPECT_TRUE(append_one(store, labels, samples.back().t, 99.0));
  auto result = store.select({}, 0, 10000000);
  ASSERT_EQ(result.size(), 1u);
  auto got = result[0].samples();
  ASSERT_EQ(got.size(), 120u);
  EXPECT_EQ(got.back().t, samples.back().t);
  EXPECT_DOUBLE_EQ(got.back().v, 99.0);
}

// Pins the snapshot format ("CEEMSTSDB2"): a store with one sealed chunk,
// two heads and a stale-marker NaN must serialise to exactly these bytes,
// so a codec change can never silently break snapshots already on disk.
void fill_golden_store(TimeSeriesStore& store) {
  Labels host = Labels{{"hostname", "n1"}}.with_name("m");
  for (int i = 0; i < 125; ++i) {  // one sealed chunk + 5 head samples
    append_one(store, host, int64_t{i} * 30000, 100.0 + (i % 3));
  }
  Labels job = Labels{{"uuid", "7"}, {"job", "x"}}.with_name("power");
  append_one(store, job, 1000, 1.5);
  append_one(store, job, 2000, -0.0);
  append_one(store, job, 3000, metrics::stale_marker());
}

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(Storage, SnapshotBytesMatchGolden) {
  const std::string golden = from_hex(
      "4345454d53545344423202000000000000000200000000000000080000000000"
      "00005f5f6e616d655f5f01000000000000006d0800000000000000686f73746e"
      "616d6502000000000000006e3101000000000000007800000000000000000000"
      "0000000000507936000000000060000000000000000000000000000000405900"
      "0000000000e0ea60e205c01d495a92b5256a4ad495a92b5256a4ad495a92b525"
      "6a4ad495a92b5256a4ad495a92b5256a4ad495a92b5256a4ad495a92b5256a4a"
      "d495a92b5256a4ad495a92b5256a4ad495a92b5256050000000000000080ee36"
      "00000000000000000000005940b0633700000000000000000000405940e0d837"
      "00000000000000000000805940104e380000000000000000000000594040c338"
      "00000000000000000000405940030000000000000008000000000000005f5f6e"
      "616d655f5f0500000000000000706f77657203000000000000006a6f62010000"
      "0000000000780400000000000000757569640100000000000000370000000000"
      "0000000300000000000000e803000000000000000000000000f83fd007000000"
      "0000000000000000000080b80b000000000000020000000000f07f");
  ASSERT_EQ(golden.size(), 443u);
  TimeSeriesStore store;
  fill_golden_store(store);
  EXPECT_EQ(store.snapshot_bytes(), golden);

  // And the golden bytes restore to the same store, bit for bit.
  TimeSeriesStore restored;
  auto count = restored.restore_from_bytes(golden);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 128u);
  EXPECT_EQ(restored.snapshot_bytes(), golden);
}

// Splits a CEEMSTSDB2 snapshot into its per-series records (labels,
// sealed chunks and head, byte for byte); empty on a malformed snapshot.
std::vector<std::string_view> snapshot_records(std::string_view bytes) {
  std::size_t pos = 10;  // magic
  auto u64 = [&](uint64_t* v) {
    if (pos + 8 > bytes.size()) return false;
    std::memcpy(v, bytes.data() + pos, 8);
    pos += 8;
    return true;
  };
  auto skip = [&](uint64_t n) {
    if (n > bytes.size() - pos) return false;
    pos += n;
    return true;
  };
  std::vector<std::string_view> records;
  uint64_t num_series = 0;
  if (!u64(&num_series)) return {};
  for (uint64_t s = 0; s < num_series; ++s) {
    const std::size_t start = pos;
    uint64_t n = 0, len = 0, meta = 0;
    if (!u64(&n)) return {};
    for (uint64_t l = 0; l < 2 * n; ++l) {
      if (!u64(&len) || !skip(len)) return {};
    }
    if (!u64(&n)) return {};
    for (uint64_t c = 0; c < n; ++c) {
      if (!u64(&meta) || !u64(&meta) || !u64(&meta) || !u64(&len) ||
          !skip(len)) {
        return {};
      }
    }
    if (!u64(&n) || !skip(16 * n)) return {};
    records.push_back(bytes.substr(start, pos - start));
  }
  if (pos != bytes.size()) return {};
  return records;
}

// A fixed store with several series per shard, shaped like a fleet:
// sealed chunks and heads, special values, and a delete and a purge that
// free series in the middle of what was written.
void fill_fixed_fleet_store(TimeSeriesStore& store) {
  for (int s = 0; s < 240; ++s) {
    Labels labels = Labels{{"hostname", "jz" + std::to_string(s % 17)},
                           {"uuid", std::to_string(1000 + s / 3)}}
                        .with_name("ceems_m" + std::to_string(s % 5));
    if (s % 4 == 0) labels = labels.with("job", "ceems");
    const int samples = 1 + (s * 37) % 300;
    for (int i = 0; i < samples; ++i) {
      double v = 0.25 * ((s * 7 + i * 13) % 101);
      if (i % 97 == 5) v = metrics::stale_marker();
      if (i % 89 == 3) v = -0.0;
      append_one(store, labels, 600000 + int64_t{i} * 30000 + s, v);
    }
  }
  store.delete_series({{"hostname", LabelMatcher::Op::kEq, "jz3"}});
  store.purge_before(600000 + 2 * 30000 + 100);
  for (int s = 0; s < 20; ++s) {  // created after the frees
    Labels labels = Labels{{"hostname", "jz3"},
                           {"uuid", std::to_string(5000 + s)}}
                        .with_name("ceems_m9");
    for (int i = 0; i < 130; ++i) {
      append_one(store, labels, 700000 + int64_t{i} * 30000, i * 1.5);
    }
  }
}

TEST(Storage, SnapshotOfFixedStoreMatchesPreviousLayout) {
  // The expected values were recorded from the store as it was before
  // series stopped keeping string labels. One series per shard:
  // shard-by-shard order is the whole order, so the bytes must match
  // exactly.
  TimeSeriesStore per_shard;
  std::vector<bool> taken(TimeSeriesStore::kShardCount, false);
  for (int i = 0, placed = 0; placed < 16; ++i) {
    Labels labels = Labels{{"hostname", "node" + std::to_string(i)},
                           {"uuid", "job-" + std::to_string(i * 7)},
                           {"nodegroup", i % 2 ? "gpu" : "cpu"}}
                        .with_name("ceems_compute_unit_power");
    std::size_t shard = TimeSeriesStore::shard_of(labels.fingerprint());
    if (taken[shard]) continue;
    taken[shard] = true;
    ++placed;
    for (int t = 0; t < 100 + 37 * placed; ++t) {
      append_one(per_shard, labels, int64_t{t} * 15000 + i,
                 100.0 + ((t * 31 + i) % 17) / 3.0);
    }
  }
  const std::string bytes = per_shard.snapshot_bytes();
  EXPECT_EQ(bytes.size(), 57360u);
  EXPECT_EQ(common::fnv1a(bytes), 15577110176550430626ULL);

  // Several series per shard: within a shard the series order is an
  // implementation detail, so compare the multiset of series records.
  TimeSeriesStore fleet;
  fill_fixed_fleet_store(fleet);
  const std::string fleet_bytes = fleet.snapshot_bytes();
  std::vector<std::string_view> records = snapshot_records(fleet_bytes);
  ASSERT_FALSE(records.empty());
  std::sort(records.begin(), records.end());
  uint64_t hash = common::kFnv1aOffsetBasis;
  for (std::string_view record : records) hash = common::fnv1a(record, hash);
  EXPECT_EQ(records.size(), 244u);
  EXPECT_EQ(fleet_bytes.size(), 318178u);
  EXPECT_EQ(hash, 10438743648081757425ULL);
}

TEST(Storage, SnapshotTruncatedAtEveryOffsetIsRejected) {
  TimeSeriesStore source;
  fill_golden_store(source);
  const std::string bytes = source.snapshot_bytes();
  TimeSeriesStore store;
  append_one(store, Labels{{"uuid", "9"}}.with_name("m"), 500, 7);
  const std::string before = store.snapshot_bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string_view prefix(bytes.data(), cut);
    EXPECT_FALSE(store.restore_from_bytes(prefix).has_value())
        << "cut at " << cut;
  }
  // Nothing was applied.
  EXPECT_EQ(store.snapshot_bytes(), before);
}

TEST(Storage, CorruptSnapshotLeavesStoreUnmodified) {
  // Mid-file corruption (truncated inside a later series) must reject the
  // snapshot without applying the earlier, well-formed series: restore
  // stages the whole parse before committing anything to the shards.
  TimeSeriesStore source;
  for (int s = 0; s < 8; ++s) {
    Labels labels = Labels{{"uuid", std::to_string(s)}}.with_name("m");
    for (int i = 0; i < 5; ++i) append_one(source, labels, i * 1000, i);
  }
  std::string content = source.snapshot_bytes();
  // Cut into the last series' head samples: everything before it parses.
  std::string_view cut(content.data(), content.size() - 10);

  TimeSeriesStore store;
  EXPECT_FALSE(store.restore_from_bytes(cut).has_value());
  EXPECT_EQ(store.stats().num_series, 0u);
  EXPECT_EQ(store.stats().num_samples, 0u);
  EXPECT_TRUE(store.select({}, 0, 100000).empty());

  // A pre-populated store is equally untouched by a failed restore.
  append_one(store, Labels{{"uuid", "9"}}.with_name("m"), 500, 7);
  EXPECT_FALSE(store.restore_from_bytes(cut).has_value());
  EXPECT_EQ(store.stats().num_series, 1u);
  EXPECT_EQ(store.stats().num_samples, 1u);
}

// ---------- Gorilla chunk codec ----------

double bits_to_double(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(PostingIndex, RandomInsertsAndErasesMatchSetOracle) {
  // Few symbols, so keys crowd a small table: probe runs wrap around the
  // end and backward-shift deletion has runs to repair. Ids arrive in
  // random order (reused slots) and lists cross the in-place limit both
  // ways.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    PostingIndex index;
    std::map<uint64_t, std::set<uint32_t>> oracle;
    for (int step = 0; step < 4000; ++step) {
      const uint64_t key = PostingIndex::key(
          static_cast<uint32_t>(rng() % 5), static_cast<uint32_t>(rng() % 40));
      const uint32_t id = static_cast<uint32_t>(rng() % 64);
      if (rng() % 3 != 0) {
        if (oracle[key].insert(id).second) index.insert(key, id);
      } else {
        // Erase this id, or every even id, from the key's list.
        const bool evens = rng() % 4 == 0;
        auto dead = [&](uint32_t x) { return evens ? x % 2 == 0 : x == id; };
        index.erase_if(key, dead);
        auto it = oracle.find(key);
        if (it != oracle.end()) {
          std::erase_if(it->second, dead);
          if (it->second.empty()) oracle.erase(it);
        }
      }
      if (step % 50 == 0 || step == 3999) {
        std::erase_if(oracle, [](const auto& entry) {
          return entry.second.empty();
        });
        ASSERT_EQ(index.size(), oracle.size()) << "seed " << seed;
        for (uint32_t name = 0; name < 5; ++name) {
          for (uint32_t value = 0; value < 40; ++value) {
            const uint64_t k = PostingIndex::key(name, value);
            auto ids = index.find(k);
            auto it = oracle.find(k);
            std::vector<uint32_t> expected;
            if (it != oracle.end()) {
              expected.assign(it->second.begin(), it->second.end());
            }
            ASSERT_EQ(std::vector<uint32_t>(ids.begin(), ids.end()), expected)
                << "seed " << seed << " step " << step;
          }
        }
      }
    }
    index.clear();
    EXPECT_EQ(index.size(), 0u);
    EXPECT_TRUE(index.find(PostingIndex::key(0, 0)).empty());
    EXPECT_EQ(index.approx_bytes(), 0u);
  }
}

TEST(ChunkCodec, RoundTripRegularSeries) {
  std::vector<SamplePoint> samples;
  for (int i = 0; i < 120; ++i) {
    samples.push_back({1700000000000LL + int64_t{i} * 30000, 42.0});
  }
  auto chunk = GorillaChunk::encode(samples.data(), samples.size());
  ASSERT_NE(chunk, nullptr);
  // Constant value + constant interval is the codec's best case: about
  // two bits per sample after the first.
  EXPECT_LT(chunk->bytes().size(), 16u + 120u / 2);
  auto decoded = chunk->decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ((*decoded)[i].t, samples[i].t);
    EXPECT_TRUE(same_bits((*decoded)[i].v, samples[i].v));
  }
}

TEST(ChunkCodec, RoundTripPropertyJitterResetsAndSpecials) {
  // Property: for arbitrary time-ordered input — jittered scrape
  // intervals, counter resets, NaN payloads, infinities, negative zero —
  // decode(encode(x)) == x bit-for-bit.
  for (uint64_t seed : {1ULL, 7ULL, 42ULL, 1337ULL, 99991ULL}) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int64_t> jitter(-500, 500);
    std::uniform_real_distribution<double> delta(0.0, 1000.0);
    std::vector<SamplePoint> samples;
    int64_t t = 1700000000000LL;
    double counter = 0;
    int n = 2 + static_cast<int>(rng() % 400);
    for (int i = 0; i < n; ++i) {
      t += 30000 + jitter(rng);
      if (rng() % 64 == 0) t += 3600000;  // scrape gap
      double v;
      switch (rng() % 16) {
        case 0: counter = 0; v = counter; break;  // counter reset
        case 1: v = std::numeric_limits<double>::quiet_NaN(); break;
        case 2: v = bits_to_double(0x7ff8deadbeef0001ULL); break;  // payload
        case 3: v = std::numeric_limits<double>::infinity(); break;
        case 4: v = -std::numeric_limits<double>::infinity(); break;
        case 5: v = -0.0; break;
        default: counter += delta(rng); v = counter;
      }
      samples.push_back({t, v});
    }
    auto chunk = GorillaChunk::encode(samples.data(), samples.size());
    ASSERT_NE(chunk, nullptr) << "seed " << seed;
    EXPECT_EQ(chunk->count(), samples.size());
    EXPECT_EQ(chunk->min_time(), samples.front().t);
    EXPECT_EQ(chunk->max_time(), samples.back().t);
    auto decoded = chunk->decode();
    ASSERT_TRUE(decoded.has_value()) << "seed " << seed;
    ASSERT_EQ(decoded->size(), samples.size()) << "seed " << seed;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      ASSERT_EQ((*decoded)[i].t, samples[i].t) << "seed " << seed;
      ASSERT_TRUE(same_bits((*decoded)[i].v, samples[i].v))
          << "seed " << seed << " sample " << i;
    }
  }
}

TEST(ChunkCodec, DuplicateTimestampAfterAdoptSealedResealsChunk) {
  // adopt_sealed() leaves the head empty with the newest sample inside
  // the last sealed chunk; a duplicate-timestamp append must re-seal that
  // chunk (last write wins) instead of touching the empty head.
  std::vector<SamplePoint> samples;
  for (int i = 0; i < 120; ++i) {
    samples.push_back({int64_t{i} * 1000, i * 1.0});
  }
  ChunkedSeries series;
  ASSERT_TRUE(
      series.adopt_sealed(GorillaChunk::encode(samples.data(), samples.size())));
  ASSERT_TRUE(series.head().empty());
  EXPECT_EQ(series.append(119000, 42.5), AppendResult::kOverwrote);
  EXPECT_EQ(series.num_samples(), 120u);
  std::vector<SamplePoint> all;
  for (const auto& slice : series.slices_between(0, 119000)) {
    std::vector<SamplePoint> points =
        slice.chunk ? *slice.chunk->decode() : slice.points;
    all.insert(all.end(), points.begin(), points.end());
  }
  ASSERT_EQ(all.size(), 120u);
  EXPECT_EQ(series.count_since(0), 120u);
  EXPECT_EQ(all.back().t, 119000);
  EXPECT_DOUBLE_EQ(all.back().v, 42.5);
  // Ordering rules are unchanged around the rewrite.
  EXPECT_EQ(series.append(118000, 1.0), AppendResult::kRejected);
  EXPECT_EQ(series.append(120000, 7.0), AppendResult::kAppended);
  EXPECT_EQ(series.num_samples(), 121u);
}

TEST(ChunkCodec, FromPartsValidatesHeaderAgainstPayload) {
  std::vector<SamplePoint> samples;
  for (int i = 0; i < 50; ++i) {
    samples.push_back({int64_t{i} * 1000, i * 1.0});
  }
  auto chunk = GorillaChunk::encode(samples.data(), samples.size());
  ASSERT_NE(chunk, nullptr);
  auto bytes = chunk->bytes();

  // Pristine parts reconstruct.
  EXPECT_NE(GorillaChunk::from_parts(bytes, 50, 0, 49000), nullptr);
  // Header lies about the sample count / time range.
  EXPECT_EQ(GorillaChunk::from_parts(bytes, 51, 0, 49000), nullptr);
  EXPECT_EQ(GorillaChunk::from_parts(bytes, 50, 0, 48000), nullptr);
  EXPECT_EQ(GorillaChunk::from_parts(bytes, 50, 1000, 49000), nullptr);
  // Truncated payload runs out of bits.
  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(GorillaChunk::from_parts(truncated, 50, 0, 49000), nullptr);
}

// ---------- aggregate chunks ----------

uint64_t value_bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void expect_buckets_equal(const std::vector<AggBucket>& expected,
                          const std::vector<AggBucket>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("bucket " + std::to_string(i));
    EXPECT_EQ(expected[i].t, actual[i].t);
    EXPECT_EQ(expected[i].count, actual[i].count);
    EXPECT_EQ(value_bits(expected[i].sum), value_bits(actual[i].sum));
    EXPECT_EQ(value_bits(expected[i].min), value_bits(actual[i].min));
    EXPECT_EQ(value_bits(expected[i].max), value_bits(actual[i].max));
    EXPECT_EQ(value_bits(expected[i].first_v), value_bits(actual[i].first_v));
    EXPECT_EQ(value_bits(expected[i].last_v), value_bits(actual[i].last_v));
    EXPECT_EQ(value_bits(expected[i].inc), value_bits(actual[i].inc));
    EXPECT_EQ(expected[i].first_t, actual[i].first_t);
    EXPECT_EQ(expected[i].last_t, actual[i].last_t);
    EXPECT_EQ(expected[i].marker_t, actual[i].marker_t);
  }
}

TEST(AggChunkCodec, RoundTripIsBitLossless) {
  constexpr int64_t kRes = 5 * 60 * 1000;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(0, 500);
  std::uniform_int_distribution<int64_t> jitter(0, 20000);
  std::vector<AggBucket> buckets;
  for (int i = 1; i <= 100; ++i) {
    AggBucket b;
    b.t = int64_t{i} * kRes;
    b.count = 10;
    b.sum = value(rng);
    b.min = value(rng);
    b.max = b.min + value(rng);
    b.first_v = value(rng);
    b.last_v = value(rng);
    b.inc = value(rng);
    b.first_t = b.t - kRes + 1 + jitter(rng);
    b.last_t = b.t - jitter(rng);
    if (i % 7 == 0) b.marker_t = b.last_t;  // resolved-series buckets
    buckets.push_back(b);
  }
  auto chunk = AggChunk::encode(buckets.data(), buckets.size());
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->count(), 100u);
  EXPECT_EQ(chunk->min_time(), kRes);
  EXPECT_EQ(chunk->max_time(), 100 * kRes);
  auto decoded = chunk->decode();
  ASSERT_TRUE(decoded.has_value());
  expect_buckets_equal(buckets, *decoded);
}

TEST(AggChunkCodec, HandlesSpecialValuesAndMarkerOnlyBuckets) {
  std::vector<AggBucket> buckets;
  AggBucket nan_bucket;  // all-NaN bucket: min/max have no non-NaN sample
  nan_bucket.t = 300000;
  nan_bucket.count = 2;
  nan_bucket.sum = std::nan("");
  nan_bucket.min = std::nan("");
  nan_bucket.max = std::nan("");
  nan_bucket.first_v = std::nan("");
  nan_bucket.last_v = std::nan("");
  nan_bucket.first_t = 30000;
  nan_bucket.last_t = 250000;
  buckets.push_back(nan_bucket);
  AggBucket marker_only;  // count == 0: the bucket held only markers
  marker_only.t = 600000;
  marker_only.min = std::nan("");
  marker_only.max = std::nan("");
  marker_only.marker_t = 420000;
  buckets.push_back(marker_only);
  AggBucket extremes;
  extremes.t = 900000;
  extremes.count = 3;
  extremes.sum = -0.0;
  extremes.min = -std::numeric_limits<double>::infinity();
  extremes.max = std::numeric_limits<double>::infinity();
  extremes.first_v = std::numeric_limits<double>::denorm_min();
  extremes.last_v = -1e308;
  extremes.inc = 0;
  extremes.first_t = 600001;
  extremes.last_t = 900000;
  buckets.push_back(extremes);

  auto chunk = AggChunk::encode(buckets.data(), buckets.size());
  ASSERT_NE(chunk, nullptr);
  auto decoded = chunk->decode();
  ASSERT_TRUE(decoded.has_value());
  expect_buckets_equal(buckets, *decoded);
}

TEST(AggChunkCodec, RegularCadenceCompressesWell) {
  // Under a fixed scrape cadence the t/first_t/last_t/count columns go to
  // ~zero bits per bucket after the first few; a plain struct dump is
  // 11 columns x 8 bytes. Expect at least 4x against that.
  constexpr int64_t kRes = 5 * 60 * 1000;
  std::vector<AggBucket> buckets;
  for (int i = 1; i <= 120; ++i) {
    AggBucket b;
    b.t = int64_t{i} * kRes;
    b.count = 10;
    b.sum = 1000;
    b.min = 90;
    b.max = 110;
    b.first_v = 95;
    b.last_v = 105;
    b.inc = 0;
    b.first_t = b.t - kRes + 30000;
    b.last_t = b.t;
    buckets.push_back(b);
  }
  auto chunk = AggChunk::encode(buckets.data(), buckets.size());
  ASSERT_NE(chunk, nullptr);
  EXPECT_LT(chunk->bytes().size(), buckets.size() * sizeof(AggBucket) / 4);
}

TEST(AggChunkedSeries, AppendSealAndFilter) {
  constexpr int64_t kRes = 60000;
  AggChunkedSeries series;
  EXPECT_TRUE(series.empty());
  for (int i = 1; i <= 300; ++i) {  // > 2 sealed chunks of 120
    AggBucket b;
    b.t = int64_t{i} * kRes;
    b.count = 1;
    b.sum = b.first_v = b.last_v = b.min = b.max = i;
    b.first_t = b.last_t = b.t;
    ASSERT_TRUE(series.append(b));
  }
  EXPECT_EQ(series.num_buckets(), 300u);
  EXPECT_EQ(series.sealed().size(), 2u);
  EXPECT_EQ(series.min_time(), kRes);
  EXPECT_EQ(series.max_time(), 300 * kRes);

  // Stale or duplicate buckets are rejected.
  AggBucket dup;
  dup.t = 300 * kRes;
  EXPECT_FALSE(series.append(dup));

  // Range filter spans the sealed/head boundary.
  auto mid = series.buckets_between(119 * kRes, 242 * kRes);
  ASSERT_EQ(mid.size(), 124u);
  EXPECT_EQ(mid.front().t, 119 * kRes);
  EXPECT_EQ(mid.back().t, 242 * kRes);
  for (std::size_t i = 1; i < mid.size(); ++i) {
    EXPECT_EQ(mid[i].t - mid[i - 1].t, kRes);
  }
}

TEST(AggChunkedSeries, DropBeforeRespectsChunkBoundaries) {
  constexpr int64_t kRes = 60000;
  AggChunkedSeries series;
  for (int i = 1; i <= 300; ++i) {
    AggBucket b;
    b.t = int64_t{i} * kRes;
    b.count = 1;
    b.sum = i;
    b.first_t = b.last_t = b.t;
    series.append(b);
  }
  // Cutoff inside the second sealed chunk: chunk 1 drops whole, chunk 2
  // re-seals filtered.
  EXPECT_EQ(series.drop_before(130 * kRes), 129u);
  EXPECT_EQ(series.num_buckets(), 171u);
  EXPECT_EQ(series.min_time(), 130 * kRes);
  auto rest = series.buckets_between(0, 400 * kRes);
  ASSERT_EQ(rest.size(), 171u);
  EXPECT_EQ(rest.front().t, 130 * kRes);
  EXPECT_EQ(rest.front().sum, 130.0);

  // Appending continues above the cut.
  AggBucket next;
  next.t = 301 * kRes;
  next.count = 1;
  next.first_t = next.last_t = next.t;
  EXPECT_TRUE(series.append(next));

  // Dropping everything resets the series for fresh appends.
  EXPECT_EQ(series.drop_before(1000 * kRes), 172u);
  EXPECT_TRUE(series.empty());
  AggBucket fresh;
  fresh.t = kRes;
  fresh.count = 1;
  fresh.first_t = fresh.last_t = fresh.t;
  EXPECT_TRUE(series.append(fresh));
}

}  // namespace
}  // namespace ceems::tsdb
