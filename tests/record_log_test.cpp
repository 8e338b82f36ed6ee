// RecordLog properties that do not depend on what the payloads mean: a
// failed group sync fails every writer whose record rode the group, a
// payload its reader rejects ends the scan like a torn frame, and a
// damage checkpoint that open() cannot install fails every commit.
#include "simfs/record_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "flaky_sync_dir.h"

namespace ceems::simfs {
namespace {

using ceems::testing::FlakySyncDir;

TEST(RecordLog, FailedSyncFailsEveryWriterInItsGroup) {
  // Sync 1 makes the first segment durable; sync 2 is the first group.
  auto dir = std::make_shared<FlakySyncDir>(2);
  RecordLog log(dir, 1);
  constexpr int kWriters = 4;
  std::atomic<int> appended{0};
  std::vector<int> first(kWriters, -1), later(kWriters, -1);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      uint64_t lsn = log.append("first " + std::to_string(w));
      // Every writer's record is in the log before anyone flushes, so
      // the first flush leader's group carries all of them; some writers
      // ask for their verdict only after a later group has synced.
      appended.fetch_add(1);
      while (appended.load() < kWriters) std::this_thread::yield();
      first[w] = log.flush_to(lsn);
      later[w] = log.flush_to(log.append("later " + std::to_string(w)));
    });
  }
  for (auto& writer : writers) writer.join();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(first[w], 0) << "writer " << w << " was told a failed sync "
                                               "succeeded";
    // Nothing buffered before the failure can be trusted to be on disk,
    // so later commits of the same generation fail as well.
    EXPECT_EQ(later[w], 0) << "writer " << w;
  }
  EXPECT_EQ(log.stats().records, 2u * kWriters);

  // A checkpoint starts a new generation, and commits succeed again.
  ASSERT_TRUE(log.checkpoint([](std::string& out) { out += "state"; }));
  EXPECT_EQ(log.current_seq(), 2u);
  EXPECT_TRUE(log.flush_to(log.append("after checkpoint")));
  EXPECT_EQ(dir->list(),
            (std::vector<std::string>{"snapshot", "wal-00000002.log"}));
}

TEST(RecordLog, FailedSyncCutsTheLogBackToTheLastAcknowledgedRecord) {
  // Sync 1 makes the first segment durable, 2 commits "kept" and 3, the
  // group that rotated into a second segment, fails.
  auto dir = std::make_shared<FlakySyncDir>(3);
  RecordLog log(dir, 1, /*segment_bytes=*/64);
  ASSERT_TRUE(log.flush_to(log.append("kept")));
  const std::string first = RecordLog::segment_name(1);
  const std::string acked = *dir->read(first);
  uint64_t lsn = 0;
  for (const char* payload : {"lost-1", "lost-2", "lost-3", "lost-4"}) {
    lsn = log.append(std::string(payload) + std::string(20, '.'));
  }
  EXPECT_GT(log.current_seq(), 1u);  // the group rotated
  EXPECT_FALSE(log.flush_to(lsn));
  EXPECT_TRUE(log.failed());
  // Later commits of the failed generation are refused; none of their
  // bytes, nor the failed group's, can reach the disk with a later sync.
  EXPECT_FALSE(log.flush_to(log.append("refused")));
  EXPECT_EQ(log.current_seq(), 1u);
  EXPECT_EQ(dir->inner()->pending_bytes(first), 0u);
  dir->inner()->crash();
  EXPECT_EQ(dir->list(), std::vector<std::string>{first});
  EXPECT_EQ(*dir->read(first), acked);
  std::vector<std::string> seen;
  scan_log(*dir, 0, [&](std::string_view payload) {
    seen.emplace_back(payload);
    return true;
  });
  EXPECT_EQ(seen, std::vector<std::string>{"kept"});
}

TEST(RecordLog, RejectedPayloadEndsScanLikeATornFrame) {
  auto dir = std::make_shared<SimDurableDir>();
  {
    RecordLog log(dir, 1);
    for (const char* payload : {"a", "b", "c"}) {
      ASSERT_TRUE(log.flush_to(log.append(payload)));
    }
  }
  const std::string segment = RecordLog::segment_name(1);
  const std::size_t full = dir->read(segment)->size();

  std::vector<std::string> seen;
  auto reject_b = [&](std::string_view payload) {
    if (payload == "b") return false;
    seen.emplace_back(payload);
    return true;
  };
  LogScan scan = scan_log(*dir, 0, reject_b);
  EXPECT_EQ(seen, std::vector<std::string>{"a"});
  EXPECT_EQ(scan.records_applied, 1u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_TRUE(scan.error.empty());
  // Repair cut the log right after "a" (8-byte frame header + 1 byte).
  EXPECT_EQ(dir->read(segment)->size(), full - 2 * 9);

  seen.clear();
  scan = scan_log(*dir, 0, reject_b);
  EXPECT_EQ(seen, std::vector<std::string>{"a"});
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.next_seq, 2u);
}

TEST(RecordLog, OpenFailsCommitsWhenItsDamageCheckpointFails) {
  // No sync fails; the first replace(), open()'s checkpoint, does.
  auto dir = std::make_shared<FlakySyncDir>(0, 1);
  {
    RecordLog log(dir, 1, /*segment_bytes=*/1);  // one record per segment
    for (const char* payload : {"a", "b", "c"}) {
      ASSERT_TRUE(log.flush_to(log.append(payload)));
    }
  }
  // Segment 3 holds "b": damage its payload (17-byte header, 8-byte frame).
  dir->inner()->corrupt_durable(RecordLog::segment_name(3), 17 + 8, 'x');

  std::vector<std::string> seen;
  auto recovery = RecordLog::open(
      dir, 1, [](std::string_view) { return true; },
      [&](std::string_view payload) {
        seen.emplace_back(payload);
        return true;
      },
      [](std::string& out) { out += "state"; });
  EXPECT_EQ(seen, std::vector<std::string>{"a"});
  EXPECT_FALSE(recovery.scan.error.empty());
  RecordLog& log = *recovery.log;
  EXPECT_FALSE(log.flush_to(log.append("refused")));

  ASSERT_TRUE(log.checkpoint([](std::string& out) { out += "state"; }));
  EXPECT_TRUE(log.flush_to(log.append("accepted")));
}

TEST(RecordLog, OpenReplacesAnUnusableSnapshot) {
  auto dir = std::make_shared<SimDurableDir>();
  {
    RecordLog log(dir, 1);
    ASSERT_TRUE(log.checkpoint([](std::string& out) { out += "old"; }));
    ASSERT_TRUE(log.flush_to(log.append("a")));
  }
  dir->corrupt_durable("snapshot", 0, 'X');  // breaks the magic

  std::string restored;
  auto restore = [&](std::string_view body) {
    restored = body;
    return true;
  };
  auto open = [&] {
    return RecordLog::open(
        dir, RecordLog::kDefaultSegmentBytes, restore,
        [](std::string_view) { return true; },
        [](std::string& out) { out += "recovered"; });
  };
  EXPECT_FALSE(open().snapshot_error.empty());
  // The damage was checkpointed away: the next open restores cleanly.
  EXPECT_TRUE(open().snapshot_error.empty());
  EXPECT_EQ(restored, "recovered");
}

}  // namespace
}  // namespace ceems::simfs
