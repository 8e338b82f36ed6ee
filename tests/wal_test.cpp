// WAL codec and recovery properties. The core invariants:
//
//   * round trip: every batch logged through the WAL replays into a
//     bit-identical store — raw f64 bits (NaN payloads, -0.0, denormals)
//     and timestamps survive exactly;
//   * torn tail: truncating or corrupting the log at ANY byte offset
//     loses at most the records from the damage point on — replay never
//     crashes, never applies a partial record, and repair leaves a log
//     that replays cleanly;
//   * checkpoint: snapshot + truncate is a consistent cut; recovery
//     restores snapshot ∪ post-checkpoint records;
//   * recovery lifecycle: a batch acknowledged after recovering from
//     interior damage survives the next restart, and a batch whose
//     commit fails is never applied.
#include "tsdb/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <thread>

#include "flaky_sync_dir.h"
#include "metrics/model.h"
#include "simfs/durable_dir.h"
#include "tsdb/storage.h"

namespace ceems::tsdb {
namespace {

using metrics::InternedLabels;
using metrics::Labels;
using metrics::SampleRef;

// Canonical bit-exact digest of a store's full contents: every series
// (sorted by label text) with every sample's timestamp and raw value
// bits. Two stores with equal digests are observably identical.
std::string digest(const TimeSeriesStore& store) {
  std::vector<Series> all;
  for (const auto& view :
       store.select({}, std::numeric_limits<TimestampMs>::min(),
                    std::numeric_limits<TimestampMs>::max())) {
    all.push_back(view.materialize());
  }
  std::vector<std::pair<std::string, const Series*>> sorted;
  sorted.reserve(all.size());
  for (const auto& series : all) {
    sorted.emplace_back(series.labels.to_string(), &series);
  }
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [key, series] : sorted) {
    out += key;
    out += '\n';
    for (const auto& sample : series->samples) {
      uint64_t bits = 0;
      std::memcpy(&bits, &sample.v, sizeof(bits));
      out += "  " + std::to_string(sample.t) + " " + std::to_string(bits) +
             "\n";
    }
  }
  return out;
}

// Replays `dir` into a fresh store and returns its digest.
std::string replay_digest(simfs::DurableDir& dir, uint64_t floor = 0) {
  TimeSeriesStore store;
  replay_wal(dir, floor, store);
  return digest(store);
}

double value_from_bits(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Values whose bit patterns must survive the codec exactly.
double tricky_value(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return metrics::stale_marker();
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::infinity();
    case 3: return -std::numeric_limits<double>::infinity();
    case 4: return std::numeric_limits<double>::denorm_min();
    case 5: return value_from_bits(rng());  // arbitrary bits (often NaN)
    default:
      return std::uniform_real_distribution<double>(-1e12, 1e12)(rng);
  }
}

// Frame offsets within one segment's durable bytes: byte offset where
// each complete record ends (ascending), starting after the header.
constexpr std::size_t kWalHeaderLen = 8 + 1 + 8;  // magic+version+seq

std::vector<std::size_t> record_ends(const std::string& bytes) {
  std::vector<std::size_t> ends;
  std::size_t offset = kWalHeaderLen;
  while (bytes.size() - offset >= 8) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + offset, 4);
    if (bytes.size() - offset - 8 < len) break;
    offset += 8 + len;
    ends.push_back(offset);
  }
  return ends;
}

TEST(WalCodec, RoundTripsRandomBatchesBitExactly) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);
    auto dir = std::make_shared<simfs::SimDurableDir>();
    auto store = std::make_shared<TimeSeriesStore>();
    // Small segments so several seeds exercise rotation (the series
    // dictionary must survive it).
    WalOptions options;
    options.segment_bytes = 1u << 12;
    auto wal = std::make_shared<Wal>(dir, 1, options);
    store->set_wal(wal);

    // A pool of series with occasionally-weird label values.
    std::vector<InternedLabels> series;
    int num_series = 3 + static_cast<int>(rng() % 40);
    for (int s = 0; s < num_series; ++s) {
      Labels labels{{"uuid", std::to_string(s)},
                    {"host", "n" + std::to_string(rng() % 5)}};
      if (rng() % 4 == 0) {
        labels = labels.with("odd", std::string("a\nb\"c\\d\xc3\xa9 ") +
                                        std::to_string(rng() % 100));
      }
      series.push_back(InternedLabels(labels.with_name("m")));
    }

    int64_t t = -5000 + static_cast<int64_t>(rng() % 10000);
    int sweeps = 5 + static_cast<int>(rng() % 20);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      std::vector<SampleRef> batch;
      for (const auto& labels : series) {
        if (rng() % 8 == 0) continue;  // series flaps out of this sweep
        batch.push_back({&labels, t + static_cast<int64_t>(rng() % 100),
                         tricky_value(rng)});
      }
      store->append_refs(batch.data(), batch.size());
      if (rng() % 7 == 0) store->purge_before(t - 60000);
      if (rng() % 11 == 0) {
        store->delete_series({{"uuid", metrics::LabelMatcher::Op::kEq,
                               std::to_string(rng() % num_series)}});
      }
      t += 30000;
    }

    EXPECT_EQ(replay_digest(*dir), digest(*store)) << "seed " << seed;
    // Replay is idempotent on an undamaged log.
    EXPECT_EQ(replay_digest(*dir), replay_digest(*dir)) << "seed " << seed;
    store->set_wal(nullptr);
  }
}

// Builds a single-segment log with `records` small batches; returns the
// dir plus the digest after each record prefix (oracle[k] = digest with
// the first k records applied).
struct TornFixture {
  std::shared_ptr<simfs::SimDurableDir> dir;
  std::string segment;
  std::string bytes;                 // durable segment contents
  std::vector<std::size_t> ends;     // end offset of each record
  std::vector<std::string> oracle;   // oracle[k]: first k records applied
};

TornFixture make_torn_fixture(int records) {
  TornFixture fx;
  fx.dir = std::make_shared<simfs::SimDurableDir>();
  auto store = std::make_shared<TimeSeriesStore>();
  auto wal = std::make_shared<Wal>(fx.dir, 1, WalOptions{});
  store->set_wal(wal);
  std::vector<InternedLabels> series;
  for (int s = 0; s < 4; ++s) {
    series.push_back(
        InternedLabels(Labels{{"uuid", std::to_string(s)}}.with_name("m")));
  }
  for (int r = 0; r < records; ++r) {
    std::vector<SampleRef> batch;
    for (int s = 0; s <= r % 4; ++s) {
      batch.push_back({&series[s], r * 1000, r * 1.5 + s});
    }
    store->append_refs(batch.data(), batch.size());
  }
  store->set_wal(nullptr);

  fx.segment = simfs::RecordLog::segment_name(1);
  fx.bytes = *fx.dir->read(fx.segment);
  fx.ends = record_ends(fx.bytes);
  EXPECT_EQ(fx.ends.size(), static_cast<std::size_t>(records));

  // Oracle prefixes: replay a boundary-truncated copy for each k.
  for (int k = 0; k <= records; ++k) {
    simfs::SimDurableDir prefix_dir;
    std::size_t end = k == 0 ? kWalHeaderLen : fx.ends[k - 1];
    prefix_dir.append(fx.segment, std::string_view(fx.bytes).substr(0, end));
    prefix_dir.sync(fx.segment);
    fx.oracle.push_back(replay_digest(prefix_dir));
  }
  // Sanity: each record changes the store.
  for (std::size_t k = 1; k < fx.oracle.size(); ++k) {
    EXPECT_NE(fx.oracle[k - 1], fx.oracle[k]);
  }
  return fx;
}

TEST(WalTornTail, TruncationAtEveryByteOffsetReplaysCleanPrefix) {
  TornFixture fx = make_torn_fixture(5);
  for (std::size_t cut = 0; cut <= fx.bytes.size(); ++cut) {
    simfs::SimDurableDir dir;
    dir.append(fx.segment, std::string_view(fx.bytes).substr(0, cut));
    dir.sync(fx.segment);

    // Complete records surviving the cut.
    std::size_t k = 0;
    while (k < fx.ends.size() && fx.ends[k] <= cut) ++k;
    bool clean = cut == fx.bytes.size() ||
                 cut == (k == 0 ? kWalHeaderLen : fx.ends[k - 1]);
    // Cuts inside the header leave no valid segment at all.
    if (cut < kWalHeaderLen) clean = false;

    TimeSeriesStore store;
    auto result = replay_wal(dir, 0, store);
    EXPECT_EQ(digest(store), fx.oracle[k]) << "cut at " << cut;
    EXPECT_EQ(result.torn_tail, !clean) << "cut at " << cut;
    EXPECT_TRUE(result.error.empty()) << "cut at " << cut;
    EXPECT_EQ(result.records_applied, k) << "cut at " << cut;

    // After repair the log replays cleanly to the same state.
    TimeSeriesStore repaired;
    auto second = replay_wal(dir, 0, repaired);
    EXPECT_EQ(digest(repaired), fx.oracle[k]) << "cut at " << cut;
    EXPECT_FALSE(second.torn_tail) << "cut at " << cut;
  }
}

TEST(WalTornTail, CorruptionAtEveryByteOffsetOfTailRecordDiscardsIt) {
  TornFixture fx = make_torn_fixture(5);
  const std::size_t last_start = fx.ends[fx.ends.size() - 2];
  const std::size_t expect_records = fx.ends.size() - 1;
  for (std::size_t pos = last_start; pos < fx.bytes.size(); ++pos) {
    simfs::SimDurableDir dir;
    dir.append(fx.segment, fx.bytes);
    dir.sync(fx.segment);
    dir.corrupt_durable(fx.segment, pos,
                        static_cast<uint8_t>(fx.bytes[pos]) ^ 0x5A);

    TimeSeriesStore store;
    auto result = replay_wal(dir, 0, store);
    // Every earlier record applies; the damaged tail record never does,
    // not even partially.
    EXPECT_EQ(digest(store), fx.oracle[expect_records]) << "pos " << pos;
    EXPECT_TRUE(result.torn_tail) << "pos " << pos;
    EXPECT_TRUE(result.error.empty()) << "pos " << pos;
    EXPECT_EQ(result.records_applied, expect_records) << "pos " << pos;

    TimeSeriesStore repaired;
    auto second = replay_wal(dir, 0, repaired);
    EXPECT_EQ(digest(repaired), fx.oracle[expect_records]) << "pos " << pos;
    EXPECT_FALSE(second.torn_tail) << "pos " << pos;
  }
}

TEST(WalTornTail, InteriorSegmentCorruptionStopsWithError) {
  // Tiny segments force every record into its own segment; damaging a
  // non-final segment is real corruption, not a torn tail.
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto store = std::make_shared<TimeSeriesStore>();
  WalOptions options;
  options.segment_bytes = 1;  // rotate before every record
  auto wal = std::make_shared<Wal>(dir, 1, options);
  store->set_wal(wal);
  auto labels = InternedLabels(Labels{{"uuid", "1"}}.with_name("m"));
  for (int r = 0; r < 4; ++r) {
    SampleRef ref{&labels, r * 1000, static_cast<double>(r)};
    store->append_refs(&ref, 1);
  }
  store->set_wal(nullptr);

  // With segment_bytes=1 each record rotated into its own segment; the
  // first listed segment holds only a header. Damage the segment that
  // carries the second record — an interior segment, not the tail.
  auto segments = dir->list();
  ASSERT_GE(segments.size(), 4u);
  dir->corrupt_durable(segments[2], kWalHeaderLen + 8, 0xFF);

  TimeSeriesStore recovered;
  auto result = replay_wal(*dir, 0, recovered);
  EXPECT_FALSE(result.error.empty());
  EXPECT_FALSE(result.torn_tail);
  // Only the records before the damaged segment applied.
  EXPECT_EQ(result.records_applied, 1u);
  EXPECT_EQ(recovered.stats().num_samples, 1u);
}

TEST(WalCodec, DictionarySurvivesSegmentRotation) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto store = std::make_shared<TimeSeriesStore>();
  WalOptions options;
  options.segment_bytes = 64;  // rotate constantly
  auto wal = std::make_shared<Wal>(dir, 1, options);
  store->set_wal(wal);
  auto labels = InternedLabels(Labels{{"uuid", "1"}}.with_name("m"));
  for (int r = 0; r < 50; ++r) {
    SampleRef ref{&labels, r * 1000, static_cast<double>(r)};
    store->append_refs(&ref, 1);
  }
  ASSERT_GT(wal->stats().segments, 2u);
  // The definition was written once, in the first segment; every later
  // segment carries bare refs that must still resolve on replay.
  EXPECT_EQ(replay_digest(*dir), digest(*store));
  store->set_wal(nullptr);
}

TEST(WalGroupCommit, ConcurrentWritersCoalesceAndLoseNothing) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto store = std::make_shared<TimeSeriesStore>();
  auto wal = std::make_shared<Wal>(dir, 1, WalOptions{});
  store->set_wal(wal);

  constexpr int kThreads = 8;
  constexpr int kBatches = 40;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      auto labels = InternedLabels(
          Labels{{"writer", std::to_string(w)}}.with_name("m"));
      for (int b = 0; b < kBatches; ++b) {
        SampleRef ref{&labels, b * 1000, w * 1000.0 + b};
        store->append_refs(&ref, 1);
      }
    });
  }
  for (auto& writer : writers) writer.join();

  auto stats = wal->stats();
  EXPECT_EQ(stats.batches, static_cast<uint64_t>(kThreads * kBatches));
  EXPECT_EQ(stats.samples, static_cast<uint64_t>(kThreads * kBatches));
  // Group commit: syncs may be far fewer than batches, never more than
  // one per record plus segment creation.
  EXPECT_LE(stats.groups, stats.records);
  EXPECT_EQ(store->stats().num_samples,
            static_cast<std::size_t>(kThreads * kBatches));

  EXPECT_EQ(replay_digest(*dir), digest(*store));
  store->set_wal(nullptr);
}

TEST(DurableTsdb, CheckpointTruncatesWalAndRecoveryRestoresUnion) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, dir);
  auto open = durable.open();
  EXPECT_EQ(open.snapshot_samples, 0u);

  auto labels = InternedLabels(Labels{{"uuid", "1"}}.with_name("m"));
  for (int r = 0; r < 10; ++r) {
    SampleRef ref{&labels, r * 1000, static_cast<double>(r)};
    store->append_refs(&ref, 1);
  }
  ASSERT_TRUE(durable.checkpoint());
  // The checkpoint truncated every pre-snapshot segment.
  std::size_t wal_records = 0;
  for (const auto& name : dir->list()) {
    if (simfs::RecordLog::parse_segment_name(name)) {
      wal_records += record_ends(*dir->read(name)).size();
    }
  }
  EXPECT_EQ(wal_records, 0u);

  for (int r = 10; r < 15; ++r) {
    SampleRef ref{&labels, r * 1000, static_cast<double>(r)};
    store->append_refs(&ref, 1);
  }
  std::string before = digest(*store);

  // Crash: unsynced state vanishes (group commit means there is none),
  // then recover in place on the same StorePtr.
  dir->crash();
  auto recovered = durable.open();
  EXPECT_EQ(recovered.snapshot_samples, 10u);
  EXPECT_EQ(recovered.replay.samples_appended, 5u);
  EXPECT_FALSE(recovered.replay.torn_tail);
  EXPECT_EQ(digest(*store), before);
}

TEST(DurableTsdb, RecoveryAfterCheckpointPlusTornTail) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, dir);
  durable.open();

  auto labels = InternedLabels(Labels{{"uuid", "1"}}.with_name("m"));
  for (int r = 0; r < 10; ++r) {
    SampleRef ref{&labels, r * 1000, static_cast<double>(r)};
    store->append_refs(&ref, 1);
  }
  ASSERT_TRUE(durable.checkpoint());
  for (int r = 10; r < 14; ++r) {
    SampleRef ref{&labels, r * 1000, static_cast<double>(r)};
    store->append_refs(&ref, 1);
  }

  // Tear the last record: chop 3 bytes off the live segment.
  std::string segment = simfs::RecordLog::segment_name(durable.wal().current_seq());
  std::size_t size = dir->read(segment)->size();
  dir->truncate_durable(segment, size - 3);

  auto recovered = durable.open();
  EXPECT_EQ(recovered.snapshot_samples, 10u);
  EXPECT_EQ(recovered.replay.samples_appended, 3u);
  EXPECT_TRUE(recovered.replay.torn_tail);
  EXPECT_EQ(store->stats().num_samples, 13u);

  // The repaired log + new generation keep working: append and re-open.
  SampleRef ref{&labels, 14000, 14.0};
  store->append_refs(&ref, 1);
  std::string before = digest(*store);
  auto again = durable.open();
  EXPECT_FALSE(again.replay.torn_tail);
  EXPECT_EQ(digest(*store), before);
}

// ---------- DurableTsdb over the host filesystem (RealDurableDir) ----------

// An empty directory for one test under the gtest temp dir.
std::string fresh_dir(const std::string& name) {
  std::string path = ::testing::TempDir() + "ceems_wal_realfs_" + name;
  std::filesystem::remove_all(path);
  return path;
}

// Writes `count` batches starting at batch `first` into both the store
// under test and the oracle (a plain in-memory store).
struct RealFsWorkload {
  std::vector<InternedLabels> series;
  std::mt19937_64 rng{17};

  RealFsWorkload() {
    for (int s = 0; s < 6; ++s) {
      series.emplace_back(Labels{{"uuid", std::to_string(s)},
                                 {"hostname", "n" + std::to_string(s % 2)}}
                              .with_name("m"));
    }
  }

  void write(TimeSeriesStore& store, TimeSeriesStore& oracle, int first,
             int count) {
    for (int b = first; b < first + count; ++b) {
      std::vector<SampleRef> batch;
      for (const auto& labels : series) {
        if (rng() % 5 == 0) continue;
        batch.push_back({&labels, int64_t{b} * 30000, tricky_value(rng)});
      }
      store.append_refs(batch.data(), batch.size());
      oracle.append_refs(batch.data(), batch.size());
    }
  }
};

// Four one-record segments (wal-2..wal-5); `damage(segment, offset)`
// flips a byte of the segment holding the second record. Recovery keeps
// the first record, and a batch acknowledged after it must survive the
// next restart: the damaged segment may not replay over it.
void check_batch_after_interior_damage_survives(
    const std::function<simfs::DurableDirPtr()>& open_dir,
    const std::function<void(const std::string&, std::size_t)>& damage) {
  WalOptions options;
  options.segment_bytes = 1;  // rotate before every record
  RealFsWorkload workload;
  TimeSeriesStore oracle;  // the acknowledged batches recovery can keep
  {
    auto store = std::make_shared<TimeSeriesStore>();
    DurableTsdb durable(store, open_dir(), options);
    durable.open();
    TimeSeriesStore lost;
    workload.write(*store, oracle, 0, 1);
    workload.write(*store, lost, 1, 3);
    ASSERT_EQ(durable.wal().stats().records, 4u);
  }
  damage(simfs::RecordLog::segment_name(3), kWalHeaderLen + 8);
  {
    auto store = std::make_shared<TimeSeriesStore>();
    DurableTsdb durable(store, open_dir(), options);
    auto result = durable.open();
    EXPECT_FALSE(result.replay.error.empty());
    EXPECT_EQ(result.replay.records_applied, 1u);
    ASSERT_EQ(digest(*store), digest(oracle));
    std::size_t before = store->stats().num_samples;
    workload.write(*store, oracle, 4, 1);
    ASSERT_GT(store->stats().num_samples, before);
  }
  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, open_dir(), options);
  auto result = durable.open();
  EXPECT_TRUE(result.replay.error.empty()) << result.replay.error;
  EXPECT_EQ(digest(*store), digest(oracle));
}

TEST(DurableTsdb, BatchAfterInteriorDamageSurvivesRestart) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  check_batch_after_interior_damage_survives(
      [&] {
        dir->crash();  // a restart keeps only what was synced
        return dir;
      },
      [&](const std::string& segment, std::size_t offset) {
        auto bytes = dir->read(segment);
        ASSERT_TRUE(bytes && offset < bytes->size());
        dir->corrupt_durable(segment, offset,
                             static_cast<uint8_t>((*bytes)[offset]) ^ 0x5A);
      });
}

TEST(DurableTsdb, FailedSyncAppliesNoBatchUntilCheckpoint) {
  // Sync 1 opens the first generation; sync 2 is the first batch's.
  auto dir = std::make_shared<testing::FlakySyncDir>(2);
  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, dir);
  durable.open();
  auto labels = InternedLabels(Labels{{"uuid", "1"}}.with_name("m"));
  SampleRef failed{&labels, 1000, 1.0};
  EXPECT_EQ(store->append_refs(&failed, 1), 0u);
  EXPECT_EQ(store->stats().num_samples, 0u);
  // Every later batch of the failed generation is refused as well.
  SampleRef later{&labels, 2000, 2.0};
  EXPECT_EQ(store->append_refs(&later, 1), 0u);
  EXPECT_EQ(store->stats().num_samples, 0u);

  ASSERT_TRUE(durable.checkpoint());
  SampleRef accepted{&labels, 3000, 3.0};
  EXPECT_EQ(store->append_refs(&accepted, 1), 1u);
  EXPECT_EQ(store->stats().num_samples, 1u);
}

TEST(DurableTsdb, FailedSyncAppliesNoPurgeOrDelete) {
  // Sync 2 commits the batch; sync 3, the purge's, fails.
  auto dir = std::make_shared<testing::FlakySyncDir>(3);
  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, dir);
  durable.open();
  auto labels = InternedLabels(Labels{{"uuid", "1"}}.with_name("m"));
  std::vector<SampleRef> batch = {{&labels, 1000, 1.0}, {&labels, 2000, 2.0}};
  ASSERT_EQ(store->append_refs(batch.data(), batch.size()), 2u);
  EXPECT_EQ(store->purge_before(1500), 0u);
  EXPECT_EQ(store->delete_series({{"uuid", metrics::LabelMatcher::Op::kEq,
                                   "1"}}),
            0u);
  EXPECT_EQ(store->stats().num_samples, 2u);
}

// A failed sync leaves nothing of its generation on disk, whether or not
// the failed write reached it, nor for a later sync to make durable:
// after a crash before any checkpoint, the reopened store holds exactly
// the acknowledged batches.
void check_failed_generation_never_replays(bool failed_sync_persists) {
  SCOPED_TRACE(failed_sync_persists ? "failed sync persisted"
                                    : "failed sync lost");
  // Sync 2 commits the first batch; sync 3, the second's, fails.
  auto dir =
      std::make_shared<testing::FlakySyncDir>(3, 0, failed_sync_persists);
  TimeSeriesStore oracle;
  {
    auto store = std::make_shared<TimeSeriesStore>();
    DurableTsdb durable(store, dir);
    durable.open();
    auto one = InternedLabels(Labels{{"uuid", "1"}}.with_name("m"));
    auto two = InternedLabels(Labels{{"uuid", "2"}}.with_name("m"));
    auto three = InternedLabels(Labels{{"uuid", "3"}}.with_name("m"));
    std::vector<SampleRef> acked = {{&one, 1000, 1.0}, {&two, 1000, 2.0}};
    ASSERT_EQ(store->append_refs(acked.data(), acked.size()), 2u);
    oracle.append_refs(acked.data(), acked.size());
    // The failed batch defines a series the later ones refer to.
    std::vector<SampleRef> failed = {{&one, 2000, 3.0}, {&three, 2000, 4.0}};
    EXPECT_EQ(store->append_refs(failed.data(), failed.size()), 0u);
    std::vector<SampleRef> later = {{&three, 3000, 5.0}, {&two, 3000, 6.0}};
    EXPECT_EQ(store->append_refs(later.data(), later.size()), 0u);
    EXPECT_EQ(store->purge_before(1500), 0u);
    ASSERT_EQ(digest(*store), digest(oracle));
  }
  dir->inner()->crash();

  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, dir->inner());
  auto result = durable.open();
  EXPECT_TRUE(result.replay.error.empty()) << result.replay.error;
  EXPECT_EQ(digest(*store), digest(oracle));
}

TEST(DurableTsdb, FailedGenerationNeverReplaysAfterCrash) {
  for (bool persists : {false, true}) {
    check_failed_generation_never_replays(persists);
  }
}

TEST(WalRealFs, CheckpointAndReopenMatchOracle) {
  const std::string root = fresh_dir("reopen");
  RealFsWorkload workload;
  TimeSeriesStore oracle;
  {
    auto store = std::make_shared<TimeSeriesStore>();
    DurableTsdb durable(store, std::make_shared<simfs::RealDurableDir>(root));
    durable.open();
    workload.write(*store, oracle, 0, 20);
    ASSERT_TRUE(durable.checkpoint());
    workload.write(*store, oracle, 20, 15);
    store->purge_before(3 * 30000);
    oracle.purge_before(3 * 30000);
    ASSERT_EQ(digest(*store), digest(oracle));
  }

  // A new process: fresh store and directory handle over the same files.
  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, std::make_shared<simfs::RealDurableDir>(root));
  auto result = durable.open();
  EXPECT_GT(result.snapshot_samples, 0u);
  EXPECT_GT(result.replay.samples_appended, 0u);
  EXPECT_FALSE(result.replay.torn_tail);
  EXPECT_TRUE(result.replay.error.empty()) << result.replay.error;
  EXPECT_EQ(digest(*store), digest(oracle));
  std::filesystem::remove_all(root);
}

TEST(WalRealFs, TornLiveSegmentIsRepairedOnReopen) {
  const std::string root = fresh_dir("torn");
  RealFsWorkload workload;
  TimeSeriesStore oracle;
  std::string segment_path;
  std::vector<std::uintmax_t> record_end;  // segment size after each batch
  std::vector<std::string> oracle_digest;  // oracle after each batch
  {
    auto store = std::make_shared<TimeSeriesStore>();
    DurableTsdb durable(store, std::make_shared<simfs::RealDurableDir>(root));
    durable.open();
    segment_path =
        root + "/" + simfs::RecordLog::segment_name(durable.wal().current_seq());
    for (int b = 0; b < 5; ++b) {
      workload.write(*store, oracle, b, 1);
      record_end.push_back(std::filesystem::file_size(segment_path));
      oracle_digest.push_back(digest(oracle));
    }
  }

  // Cut the live segment in the middle of its last record.
  std::filesystem::resize_file(segment_path,
                               (record_end[3] + record_end[4]) / 2);

  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, std::make_shared<simfs::RealDurableDir>(root));
  auto first = durable.open();
  EXPECT_TRUE(first.replay.torn_tail);
  EXPECT_EQ(first.replay.records_applied, 4u);
  EXPECT_EQ(digest(*store), oracle_digest[3]);
  EXPECT_EQ(std::filesystem::file_size(segment_path), record_end[3]);

  auto second = durable.open();
  EXPECT_FALSE(second.replay.torn_tail);
  EXPECT_TRUE(second.replay.error.empty()) << second.replay.error;
  EXPECT_EQ(digest(*store), oracle_digest[3]);
  std::filesystem::remove_all(root);
}

TEST(WalRealFs, StraySnapshotTempFileIsIgnored) {
  const std::string root = fresh_dir("tmp");
  RealFsWorkload workload;
  TimeSeriesStore oracle;
  {
    auto store = std::make_shared<TimeSeriesStore>();
    DurableTsdb durable(store, std::make_shared<simfs::RealDurableDir>(root));
    durable.open();
    workload.write(*store, oracle, 0, 10);
    ASSERT_TRUE(durable.checkpoint());
    workload.write(*store, oracle, 10, 5);
  }
  // What a crash between writing and renaming a snapshot leaves behind.
  {
    std::ofstream tmp(root + "/snapshot.tmp", std::ios::binary);
    tmp << "CEEMSDUR1 half-written";
  }

  simfs::RealDurableDir dir(root);
  auto names = dir.list();
  EXPECT_EQ(std::count(names.begin(), names.end(), "snapshot.tmp"), 0);
  EXPECT_EQ(std::count(names.begin(), names.end(), "snapshot"), 1);

  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, std::make_shared<simfs::RealDurableDir>(root));
  auto result = durable.open();
  EXPECT_TRUE(result.replay.error.empty()) << result.replay.error;
  EXPECT_FALSE(result.replay.torn_tail);
  EXPECT_EQ(digest(*store), digest(oracle));
  std::filesystem::remove_all(root);
}

TEST(WalRealFs, BatchAfterInteriorDamageSurvivesRestart) {
  const std::string root = fresh_dir("damage");
  check_batch_after_interior_damage_survives(
      [&] { return std::make_shared<simfs::RealDurableDir>(root); },
      [&](const std::string& segment, std::size_t offset) {
        std::fstream file(root + "/" + segment,
                          std::ios::in | std::ios::out | std::ios::binary);
        char byte = 0;
        file.seekg(static_cast<std::streamoff>(offset));
        ASSERT_TRUE(file.get(byte));
        file.seekp(static_cast<std::streamoff>(offset));
        ASSERT_TRUE(file.put(static_cast<char>(byte ^ 0x5A)));
      });
  std::filesystem::remove_all(root);
}

// ---------- on-disk format ----------

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 15]);
  }
  return out;
}

// A small fixed log: a batch defining two series (a stale marker, -0.0),
// a batch mixing a known and a new series with a negative timestamp
// delta, a purge and a delete.
void write_golden_log(TimeSeriesStore& store) {
  const InternedLabels a(
      Labels{{"uuid", "1"}, {"hostname", "n1"}}.with_name("m"));
  const InternedLabels b(Labels{{"uuid", "2"}}.with_name("m"));
  const InternedLabels c(Labels{{"uuid", "3"}}.with_name("power"));
  std::vector<SampleRef> first = {
      {&a, 1000, 1.5}, {&b, 2000, -0.0}, {&a, 31000, metrics::stale_marker()}};
  store.append_refs(first.data(), first.size());
  std::vector<SampleRef> second = {{&b, 61000, 1e300}, {&c, 500, -2.25}};
  store.append_refs(second.data(), second.size());
  store.purge_before(1500);
  store.delete_series({{"uuid", metrics::LabelMatcher::Op::kEq, "3"}});
}

// The WAL segment, the CEEMSDUR1 snapshot and the fresh segment after a
// checkpoint, byte for byte. The hex was generated by a build from before
// the framing moved into simfs::RecordLog, so this pins the formats.
TEST(WalFormat, SegmentAndSnapshotBytesMatchGolden) {
  const std::string golden_segment =
      "4345454d5357414c010100000000000000590000006e53423a01020103085f5f"
      "6e616d655f5f016d08686f73746e616d65026e31047575696401310202085f5f"
      "6e616d655f5f016d047575696401320301d00f000000000000f83f02d00f0000"
      "0000000000800190c503020000000000f07f33000000c8a4faac01010302085f"
      "5f6e616d655f5f05706f77657204757569640133020290b9079c7500883ce437"
      "7e03a7b10700000000000002c0030000000bac0a5302b8170a000000ca9b6f2e"
      "03010004757569640133";
  const std::string golden_snapshot =
      "4345454d534455523102000000000000004345454d5354534442320200000000"
      "000000030000000000000008000000000000005f5f6e616d655f5f0100000000"
      "0000006d0800000000000000686f73746e616d6502000000000000006e310400"
      "0000000000007575696401000000000000003100000000000000000100000000"
      "0000001879000000000000020000000000f07f02000000000000000800000000"
      "0000005f5f6e616d655f5f01000000000000006d040000000000000075756964"
      "01000000000000003200000000000000000200000000000000d0070000000000"
      "00000000000000008048ee0000000000009c7500883ce4377e";
  const std::string golden_next_segment =
      "4345454d5357414c010200000000000000";
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto store = std::make_shared<TimeSeriesStore>();
  DurableTsdb durable(store, dir);
  durable.open();
  write_golden_log(*store);
  EXPECT_EQ(to_hex(*dir->read("wal-00000001.log")), golden_segment);
  ASSERT_TRUE(durable.checkpoint());
  EXPECT_EQ(dir->list(),
            (std::vector<std::string>{"snapshot", "wal-00000002.log"}));
  EXPECT_EQ(to_hex(*dir->read("snapshot")), golden_snapshot);
  EXPECT_EQ(to_hex(*dir->read("wal-00000002.log")), golden_next_segment);

  // The golden segment replays into the same store as the live one.
  auto replay_dir = std::make_shared<simfs::SimDurableDir>();
  std::string segment;
  for (std::size_t i = 0; i < golden_segment.size(); i += 2) {
    segment.push_back(
        static_cast<char>(std::stoi(golden_segment.substr(i, 2), nullptr, 16)));
  }
  replay_dir->replace("wal-00000001.log", segment);
  TimeSeriesStore replayed;
  auto result = replay_wal(*replay_dir, 0, replayed);
  EXPECT_EQ(result.records_applied, 4u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(digest(replayed), digest(*store));
}

TEST(Wal, SegmentNamesRoundTrip) {
  EXPECT_EQ(simfs::RecordLog::segment_name(7), "wal-00000007.log");
  EXPECT_EQ(simfs::RecordLog::parse_segment_name("wal-00000007.log"), 7u);
  EXPECT_EQ(simfs::RecordLog::parse_segment_name("wal-123456789.log"), 123456789u);
  EXPECT_FALSE(simfs::RecordLog::parse_segment_name("snapshot"));
  EXPECT_FALSE(simfs::RecordLog::parse_segment_name("wal-.log"));
  EXPECT_FALSE(simfs::RecordLog::parse_segment_name("wal-12x4.log"));
  EXPECT_FALSE(simfs::RecordLog::parse_segment_name("wal-1.log.tmp"));
}

}  // namespace
}  // namespace ceems::tsdb
