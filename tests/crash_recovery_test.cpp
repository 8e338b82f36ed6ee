// Crash-recovery differential: a deterministic scrape-shaped workload
// runs against a WAL-backed store while an oracle digest is recorded
// after every logged mutation. The process is then "killed" by cutting
// the durable WAL at an arbitrary byte offset; recovery must produce a
// store BIT-IDENTICAL to the oracle at the longest record prefix that
// survived the cut — never a partial record, never a reordering, and
// at most the final un-flushed group lost.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "metrics/model.h"
#include "simfs/durable_dir.h"
#include "tsdb/rules.h"
#include "tsdb/storage.h"
#include "tsdb/wal.h"

namespace ceems::tsdb {
namespace {

using metrics::InternedLabels;
using metrics::Labels;
using metrics::SampleRef;

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

constexpr std::size_t kWalHeaderLen = 8 + 1 + 8;

// The deterministic workload: `sweeps` scrape rounds over a small fleet,
// each target contributing one batch record per sweep, then a rule pass
// whose recording rules and alerts each commit one batch record, with
// periodic retention purges and cardinality deletions — every mutation
// kind the WAL logs. Records the store digest after every mutation;
// trace[k] is the exact expected state once k records have been applied.
struct Workload {
  std::shared_ptr<simfs::SimDurableDir> dir;
  StorePtr store;
  std::unique_ptr<DurableTsdb> durable;
  std::vector<std::string> trace;     // trace[k]: after k logged records
  std::size_t checkpoint_base = 0;    // records folded into the snapshot
  uint64_t rule_records = 0;          // of which rule / ALERTS batches
};

// One engine per rule, evaluated in order, so the oracle can take a
// digest between two rules' batches. Later rules read earlier outputs
// at the same instant; the alerts fire and resolve as the workload's
// values cross their thresholds.
std::vector<std::unique_ptr<RuleEngine>> rule_pass(const StorePtr& store) {
  std::vector<RuleGroup> groups(5);
  groups[0].rules = {{"instance:power_watts",
                      "sum by (instance) (ceems_job_power_watts)", {}, nullptr}};
  groups[1].rules = {{"instance:power_kw", "instance:power_watts / 1000",
                      {{"unit", "kW"}}, nullptr}};
  groups[2].alerts = {{"JobPowerHigh", "ceems_job_power_watts > 140", 0,
                       {{"severity", "info"}}, nullptr}};
  groups[3].alerts = {{"NodePowerHigh", "instance:power_kw > 0.9", 30000, {},
                       nullptr}};
  groups[4].rules = {{"instance:power_share",
                      "ceems_job_power_watts / on(instance) group_left() "
                      "instance:power_watts",
                      {}, nullptr}};
  std::vector<std::unique_ptr<RuleEngine>> engines;
  for (auto& group : groups) {
    engines.push_back(std::make_unique<RuleEngine>(store));
    engines.back()->add_group(std::move(group));
  }
  return engines;
}

Workload run_workload(uint64_t seed, int sweeps, int checkpoint_at_sweep) {
  Workload w;
  w.dir = std::make_shared<simfs::SimDurableDir>();
  w.store = std::make_shared<TimeSeriesStore>();
  WalOptions options;
  options.segment_bytes = 1u << 12;  // several rotations per run
  w.durable = std::make_unique<DurableTsdb>(w.store, w.dir, options);
  w.durable->open();
  w.trace.push_back(digest(*w.store));  // trace[0]: empty

  std::mt19937_64 rng(seed);
  constexpr int kTargets = 6;
  constexpr int kSeriesPerTarget = 8;
  std::vector<std::vector<InternedLabels>> fleet(kTargets);
  for (int target = 0; target < kTargets; ++target) {
    for (int s = 0; s < kSeriesPerTarget; ++s) {
      fleet[target].push_back(InternedLabels(
          Labels{{"instance", "node" + std::to_string(target)},
                 {"uuid", std::to_string(s)}}
              .with_name("ceems_job_power_watts")));
    }
  }

  auto record = [&] { w.trace.push_back(digest(*w.store)); };
  auto rules = rule_pass(w.store);

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    int64_t now = sweep * 30000;
    for (int target = 0; target < kTargets; ++target) {
      std::vector<SampleRef> batch;
      for (const auto& labels : fleet[target]) {
        if (rng() % 10 == 0) continue;  // series missing this scrape
        batch.push_back({&labels, now, std::round(100.0 * (1 + target)) +
                                           static_cast<double>(rng() % 50)});
      }
      if (batch.empty()) continue;  // nothing logged, no record
      w.store->append_refs(batch.data(), batch.size());
      record();
    }
    for (auto& engine : rules) {
      uint64_t before = w.durable->wal().stats().records;
      engine->evaluate_all(now);
      uint64_t logged = w.durable->wal().stats().records - before;
      EXPECT_LE(logged, 1u) << "one record per rule batch";
      if (logged == 1) {
        ++w.rule_records;
        record();
      }
    }
    if (sweep > 0 && sweep % 5 == 0) {
      w.store->purge_before(now - 120000);
      record();
    }
    if (sweep > 0 && sweep % 7 == 0) {
      w.store->delete_series({{"uuid", metrics::LabelMatcher::Op::kEq,
                               std::to_string(rng() % kSeriesPerTarget)}});
      record();
    }
    if (sweep == checkpoint_at_sweep) {
      EXPECT_TRUE(w.durable->checkpoint());
      // Everything so far is folded into the snapshot; the WAL restarts
      // empty, so surviving-record counting restarts here too.
      w.checkpoint_base = w.trace.size() - 1;
    }
  }
  return w;
}

// Counts complete, contiguous records across the durable segments in
// sequence order, stopping at the first torn/short one — exactly the
// prefix replay is allowed (and required) to apply.
std::size_t surviving_records(simfs::SimDurableDir& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const auto& name : dir.list()) {
    if (auto seq = simfs::RecordLog::parse_segment_name(name)) {
      segments.emplace_back(*seq, name);
    }
  }
  std::sort(segments.begin(), segments.end());
  std::size_t records = 0;
  for (const auto& [seq, name] : segments) {
    auto bytes = dir.read(name);
    if (!bytes || bytes->size() < kWalHeaderLen) return records;
    std::size_t offset = kWalHeaderLen;
    while (bytes->size() - offset >= 8) {
      uint32_t len = 0;
      std::memcpy(&len, bytes->data() + offset, 4);
      if (bytes->size() - offset - 8 < len) return records;
      offset += 8 + len;
      ++records;
    }
    if (offset != bytes->size()) return records;  // trailing garbage
  }
  return records;
}

// Total durable WAL bytes, and the (segment, local offset) a global cut
// position falls into — segments in sequence order.
struct CutPoint {
  std::string segment;
  std::size_t offset;
};

CutPoint locate_cut(simfs::SimDurableDir& dir, std::size_t global) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const auto& name : dir.list()) {
    if (auto seq = simfs::RecordLog::parse_segment_name(name)) {
      segments.emplace_back(*seq, name);
    }
  }
  std::sort(segments.begin(), segments.end());
  for (const auto& [seq, name] : segments) {
    std::size_t size = dir.read(name)->size();
    if (global < size) return {name, global};
    global -= size;
  }
  return {segments.back().second, dir.read(segments.back().second)->size()};
}

std::size_t total_wal_bytes(simfs::SimDurableDir& dir) {
  std::size_t total = 0;
  for (const auto& name : dir.list()) {
    if (simfs::RecordLog::parse_segment_name(name)) total += dir.read(name)->size();
  }
  return total;
}

// One seed, one random cut: run the workload, cut the WAL at a random
// byte, recover, and compare against the oracle trace entry for the
// surviving prefix.
void crash_at_random_offset(uint64_t seed, int checkpoint_at_sweep) {
  Workload w = run_workload(seed, 20, checkpoint_at_sweep);
  std::size_t logged = w.trace.size() - 1;
  ASSERT_GT(logged, w.checkpoint_base);
  // Every sweep logs rule batches, ALERTS included, as oracle records.
  ASSERT_GT(w.rule_records, 20u * 3);
  ASSERT_TRUE(std::any_of(w.trace.begin(), w.trace.end(),
                          [](const std::string& state) {
                            return state.find("JobPowerHigh") !=
                                       std::string::npos &&
                                   state.find("NodePowerHigh") !=
                                       std::string::npos;
                          }))
      << "seed " << seed << ": both alerts must fire into the oracle";

  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::size_t total = total_wal_bytes(*w.dir);
  ASSERT_GT(total, 0u);
  CutPoint cut = locate_cut(*w.dir, rng() % total);

  // Kill the process at that byte: everything after the cut in that
  // segment is gone, and any LATER segment is gone entirely (a real
  // torn write hits the newest segment; earlier cuts model lost
  // storage, which replay must also survive by stopping cleanly).
  w.dir->crash();  // drop unsynced bytes first (there are none)
  w.dir->truncate_durable(cut.segment, cut.offset);
  if (auto cut_seq = simfs::RecordLog::parse_segment_name(cut.segment)) {
    for (const auto& name : w.dir->list()) {
      auto seq = simfs::RecordLog::parse_segment_name(name);
      if (seq && *seq > *cut_seq) w.dir->remove(name);
    }
  }

  std::size_t k = w.checkpoint_base + surviving_records(*w.dir);

  // Recover into a brand-new store over the damaged dir — the cold
  // restart path.
  auto fresh = std::make_shared<TimeSeriesStore>();
  DurableTsdb recovered(fresh, w.dir);
  auto result = recovered.open();
  EXPECT_TRUE(result.replay.error.empty()) << "seed " << seed;
  ASSERT_LT(k, w.trace.size());
  EXPECT_EQ(digest(*fresh), w.trace[k])
      << "seed " << seed << " cut " << cut.segment << "@" << cut.offset
      << " k=" << k;

  // Recovery is stable: a second cold open lands on the same state.
  auto fresh2 = std::make_shared<TimeSeriesStore>();
  DurableTsdb recovered2(fresh2, w.dir);
  auto second = recovered2.open();
  EXPECT_FALSE(second.replay.torn_tail) << "seed " << seed;
  EXPECT_EQ(digest(*fresh2), w.trace[k]) << "seed " << seed;
}

TEST(CrashRecovery, RandomCutMatchesOracleAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    crash_at_random_offset(seed, /*checkpoint_at_sweep=*/-1);
  }
}

TEST(CrashRecovery, RandomCutAfterCheckpointMatchesOracle) {
  for (uint64_t seed = 101; seed <= 112; ++seed) {
    crash_at_random_offset(seed, /*checkpoint_at_sweep=*/10);
  }
}

TEST(CrashRecovery, CleanCrashLosesNothing) {
  // No torn bytes: a crash right after a quiescent point recovers the
  // exact final state — group commit made every record durable before
  // its apply returned.
  for (uint64_t seed = 201; seed <= 210; ++seed) {
    Workload w = run_workload(seed, 15, seed % 2 == 0 ? 7 : -1);
    std::string final_digest = w.trace.back();
    w.dir->crash();

    auto fresh = std::make_shared<TimeSeriesStore>();
    DurableTsdb recovered(fresh, w.dir);
    auto result = recovered.open();
    EXPECT_FALSE(result.replay.torn_tail) << "seed " << seed;
    EXPECT_EQ(digest(*fresh), final_digest) << "seed " << seed;
  }
}

TEST(CrashRecovery, InPlaceRecoveryOnLiveStorePtr) {
  // The soak / stack path: recover into the SAME StorePtr the scraper
  // and rule engine hold, not a fresh one.
  Workload w = run_workload(42, 12, 6);
  std::string final_digest = w.trace.back();
  w.dir->crash();
  auto result = w.durable->open();
  EXPECT_FALSE(result.replay.torn_tail);
  EXPECT_EQ(digest(*w.store), final_digest);

  // And the recovered store keeps accepting writes through a fresh WAL
  // generation.
  auto labels = InternedLabels(Labels{{"uuid", "x"}}.with_name("m"));
  SampleRef ref{&labels, 1'000'000'000, 7.0};
  EXPECT_EQ(w.store->append_refs(&ref, 1), 1u);
}

}  // namespace
}  // namespace ceems::tsdb
