#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>

#include <unistd.h>

#include "reldb/database.h"
#include "flaky_sync_dir.h"
#include "simfs/durable_dir.h"

namespace ceems::reldb {
namespace {

Schema jobs_schema() {
  Schema schema;
  schema.columns = {{"id", ColumnType::kInt},
                    {"user", ColumnType::kText},
                    {"energy", ColumnType::kReal}};
  schema.primary_key = "id";
  return schema;
}

// ---------- values ----------

TEST(Value, TypedAccessAndCoercion) {
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(42).as_real(), 42.0);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_EQ(Value("x").as_text(), "x");
  EXPECT_EQ(Value("17").as_int(), 17);
  EXPECT_TRUE(Value().is_null());
}

TEST(Value, TotalOrder) {
  EXPECT_TRUE(Value() < Value(0));          // null < numbers
  EXPECT_TRUE(Value(5) < Value("a"));       // numbers < text
  EXPECT_TRUE(Value(2) < Value(2.5));       // numeric comparison across types
  EXPECT_TRUE(Value(2) == Value(2.0));
  EXPECT_FALSE(Value("2") == Value(2));     // text vs number differ
}

// ---------- table ----------

TEST(Table, InsertUpsertEraseGet) {
  Table table(jobs_schema());
  EXPECT_TRUE(table.insert({Value(1), Value("alice"), Value(10.0)}));
  EXPECT_FALSE(table.insert({Value(1), Value("bob"), Value(0.0)}));
  EXPECT_EQ((*table.get(Value(1)))[1].as_text(), "alice");

  table.upsert({Value(1), Value("bob"), Value(20.0)});
  EXPECT_EQ((*table.get(Value(1)))[1].as_text(), "bob");
  EXPECT_EQ(table.size(), 1u);

  EXPECT_TRUE(table.erase(Value(1)));
  EXPECT_FALSE(table.erase(Value(1)));
  EXPECT_FALSE(table.get(Value(1)).has_value());
}

TEST(Table, EraseKeepsOtherRowsFindable) {
  Table table(jobs_schema());
  table.create_index("user");
  for (int i = 0; i < 10; ++i) {
    table.insert({Value(i), Value("u" + std::to_string(i % 3)),
                  Value(static_cast<double>(i))});
  }
  table.erase(Value(0));
  table.erase(Value(5));
  // Swap-with-last on erase must keep the pk map and index consistent.
  for (int i : {1, 2, 3, 4, 6, 7, 8, 9}) {
    ASSERT_TRUE(table.get(Value(i)).has_value()) << i;
  }
  Query query;
  query.where = {{"user", Predicate::Op::kEq, Value("u1")}};
  EXPECT_EQ(table.execute(query).rows.size(), 3u);  // ids 1, 4, 7 (untouched)
}

TEST(Table, WhereOperators) {
  Table table(jobs_schema());
  for (int i = 0; i < 10; ++i) {
    table.insert({Value(i), Value("u"), Value(static_cast<double>(i))});
  }
  auto count = [&](Predicate::Op op, double v) {
    Query query;
    query.where = {{"energy", op, Value(v)}};
    return table.execute(query).rows.size();
  };
  EXPECT_EQ(count(Predicate::Op::kEq, 5), 1u);
  EXPECT_EQ(count(Predicate::Op::kNe, 5), 9u);
  EXPECT_EQ(count(Predicate::Op::kLt, 5), 5u);
  EXPECT_EQ(count(Predicate::Op::kLe, 5), 6u);
  EXPECT_EQ(count(Predicate::Op::kGt, 5), 4u);
  EXPECT_EQ(count(Predicate::Op::kGe, 5), 5u);
}

TEST(Table, GroupByWithAggregates) {
  Table table(jobs_schema());
  table.insert({Value(1), Value("alice"), Value(10.0)});
  table.insert({Value(2), Value("alice"), Value(30.0)});
  table.insert({Value(3), Value("bob"), Value(5.0)});

  Query query;
  query.group_by = {"user"};
  query.aggregates = {{AggFn::kSum, "energy", "total"},
                      {AggFn::kAvg, "energy", "mean"},
                      {AggFn::kMin, "energy", "lo"},
                      {AggFn::kMax, "energy", "hi"},
                      {AggFn::kCount, "", "n"}};
  query.order_by = "user";
  ResultSet result = table.execute(query);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(result.at(0, "total").as_real(), 40.0);
  EXPECT_DOUBLE_EQ(result.at(0, "mean").as_real(), 20.0);
  EXPECT_DOUBLE_EQ(result.at(0, "lo").as_real(), 10.0);
  EXPECT_DOUBLE_EQ(result.at(0, "hi").as_real(), 30.0);
  EXPECT_EQ(result.at(0, "n").as_int(), 2);
  EXPECT_DOUBLE_EQ(result.at(1, "total").as_real(), 5.0);
}

TEST(Table, OrderByDescendingAndLimit) {
  Table table(jobs_schema());
  for (int i = 0; i < 10; ++i) {
    table.insert({Value(i), Value("u"), Value(static_cast<double>(i))});
  }
  Query query;
  query.order_by = "energy";
  query.descending = true;
  query.limit = 3;
  ResultSet result = table.execute(query);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(result.at(0, "energy").as_real(), 9.0);
  EXPECT_DOUBLE_EQ(result.at(2, "energy").as_real(), 7.0);
}

TEST(Table, ProjectionSelectsColumns) {
  Table table(jobs_schema());
  table.insert({Value(1), Value("alice"), Value(10.0)});
  Query query;
  query.select = {"user"};
  ResultSet result = table.execute(query);
  ASSERT_EQ(result.columns.size(), 1u);
  EXPECT_EQ(result.at(0, "user").as_text(), "alice");
  EXPECT_THROW(result.at(0, "energy"), std::out_of_range);
}

TEST(Table, IndexedEqualityFastPathGivesSameAnswer) {
  Table indexed(jobs_schema());
  Table plain(jobs_schema());
  indexed.create_index("user");
  for (int i = 0; i < 100; ++i) {
    Row row = {Value(i), Value("u" + std::to_string(i % 7)),
               Value(static_cast<double>(i))};
    indexed.insert(row);
    plain.insert(row);
  }
  Query query;
  query.where = {{"user", Predicate::Op::kEq, Value("u3")},
                 {"energy", Predicate::Op::kGt, Value(50.0)}};
  EXPECT_EQ(indexed.execute(query).rows.size(),
            plain.execute(query).rows.size());
}

TEST(Table, SchemaErrors) {
  EXPECT_THROW(Table(Schema{{{"a", ColumnType::kInt}}, "missing"}),
               std::invalid_argument);
  Table table(jobs_schema());
  EXPECT_THROW(table.insert({Value(1)}), std::invalid_argument);
  Query bad;
  bad.select = {"nope"};
  EXPECT_THROW(table.execute(bad), std::invalid_argument);
}

// ---------- log entry codec ----------

uint64_t bits_of(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Same type and, for reals, the same bits (Value::operator== compares
// numerically, so NaN != NaN and -0.0 == 0.0).
void expect_identical(const Value& a, const Value& b) {
  ASSERT_EQ(a.data.index(), b.data.index());
  if (a.is_int()) {
    EXPECT_EQ(a.as_int(), b.as_int());
  } else if (a.is_real()) {
    EXPECT_EQ(bits_of(a.as_real()), bits_of(b.as_real()));
  } else if (a.is_text()) {
    EXPECT_EQ(a.as_text(), b.as_text());
  }
}

std::string encoded(const WalEntry& entry) {
  std::string out;
  encode_entry(entry, out);
  return out;
}

TEST(ReldbCodec, EntryRoundTrip) {
  WalEntry upsert;
  upsert.seq = 7;
  upsert.op = WalEntry::Op::kUpsert;
  upsert.table = "units";
  upsert.row = {Value(1), Value("alice"), Value(2.5), Value()};
  auto decoded = decode_entry(encoded(upsert));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 7u);
  EXPECT_EQ(decoded->op, WalEntry::Op::kUpsert);
  EXPECT_EQ(decoded->table, "units");
  ASSERT_EQ(decoded->row.size(), 4u);
  for (std::size_t i = 0; i < upsert.row.size(); ++i) {
    expect_identical(decoded->row[i], upsert.row[i]);
  }

  WalEntry create;
  create.seq = 1;
  create.op = WalEntry::Op::kCreateTable;
  create.table = "jobs";
  create.schema = jobs_schema();
  decoded = decode_entry(encoded(create));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, WalEntry::Op::kCreateTable);
  EXPECT_EQ(decoded->schema.primary_key, "id");
  ASSERT_EQ(decoded->schema.columns.size(), 3u);
  EXPECT_EQ(decoded->schema.columns[2].name, "energy");
  EXPECT_EQ(decoded->schema.columns[2].type, ColumnType::kReal);

  WalEntry erase;
  erase.seq = 9;
  erase.op = WalEntry::Op::kErase;
  erase.table = "jobs";
  erase.primary_key = Value("key");
  decoded = decode_entry(encoded(erase));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, WalEntry::Op::kErase);
  expect_identical(decoded->primary_key, erase.primary_key);
}

TEST(ReldbCodec, CorruptEntryRejected) {
  WalEntry entry;
  entry.seq = 3;
  entry.op = WalEntry::Op::kUpsert;
  entry.table = "units";
  entry.row = {Value(1), Value("alice"), Value(2.5)};
  const std::string bytes = encoded(entry);
  // Every strict prefix is truncated, and trailing bytes are not one entry.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_entry(std::string_view(bytes.data(), cut)))
        << "cut at " << cut;
  }
  EXPECT_FALSE(decode_entry(bytes + '\0'));
  std::string bad_op = bytes;
  bad_op[0] = 9;
  EXPECT_FALSE(decode_entry(bad_op));
  // A value tag outside null/int/real/text.
  WalEntry erase;
  erase.op = WalEntry::Op::kErase;
  erase.table = "t";
  erase.primary_key = Value();
  std::string bad_tag = encoded(erase);
  bad_tag.back() = 7;
  EXPECT_FALSE(decode_entry(bad_tag));
  // A row count far beyond the bytes that follow.
  WalEntry empty;
  empty.op = WalEntry::Op::kUpsert;
  empty.table = "t";
  std::string huge_count = encoded(empty);
  huge_count.back() = '\x7f';
  EXPECT_FALSE(decode_entry(huge_count));
}

TEST(ReldbCodec, ValuesRoundTripBitwise) {
  const double nan_payload = [] {
    uint64_t bits = 0x7ff80000deadbeefULL;
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }();
  const Row row = {
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(nan_payload),
      Value(std::numeric_limits<double>::infinity()),
      Value(-std::numeric_limits<double>::infinity()),
      Value(-0.0),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(int64_t{(1LL << 53) + 1}),
      Value(std::string("line\nbreak \"quoted\" nul\0end", 27)),
      Value(std::string()),
      Value(),
  };
  WalEntry entry;
  entry.seq = std::numeric_limits<uint64_t>::max();
  entry.op = WalEntry::Op::kUpsert;
  entry.table = std::string("t\0\n", 3);
  entry.row = row;
  auto decoded = decode_entry(encoded(entry));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, entry.seq);
  EXPECT_EQ(decoded->table, entry.table);
  ASSERT_EQ(decoded->row.size(), row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(decoded->row[i], row[i]);
  }
  EXPECT_EQ(decoded->row[9].as_text().size(), 27u);
}

// ---------- database ----------

// A fresh host directory per test, opened as a RealDurableDir.
class DatabaseFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "ceems_reldb_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(path_);
  }
  void TearDown() override { std::filesystem::remove_all(path_); }
  simfs::DurableDirPtr dir() const {
    return std::make_shared<simfs::RealDurableDir>(path_);
  }
  std::string path_;
};

TEST_F(DatabaseFileTest, WalReplayRestoresState) {
  {
    auto db = Database::open(dir());
    db->create_table("jobs", jobs_schema());
    db->upsert("jobs", {Value(1), Value("alice"), Value(10.0)});
    db->upsert("jobs", {Value(2), Value("bob"), Value(20.0)});
    db->upsert("jobs", {Value(1), Value("alice"), Value(15.0)});
    db->erase("jobs", Value(2));
  }
  auto reopened = Database::open(dir());
  EXPECT_EQ(reopened->table_size("jobs"), 1u);
  EXPECT_DOUBLE_EQ((*reopened->get("jobs", Value(1)))[2].as_real(), 15.0);
  EXPECT_EQ(reopened->last_seq(), 5u);
}

TEST_F(DatabaseFileTest, TruncatedWalTailRecoversPrefix) {
  {
    auto db = Database::open(dir());
    db->create_table("jobs", jobs_schema());
    db->upsert("jobs", {Value(1), Value("a"), Value(1.0)});
    db->upsert("jobs", {Value(2), Value("b"), Value(2.0)});
  }
  // Tear the last record (a torn write).
  const std::string segment =
      path_ + "/" + simfs::RecordLog::segment_name(1);
  std::filesystem::resize_file(segment,
                               std::filesystem::file_size(segment) - 15);

  auto recovered = Database::open(dir());
  EXPECT_EQ(recovered->table_size("jobs"), 1u);
  EXPECT_TRUE(recovered->get("jobs", Value(1)).has_value());
  EXPECT_EQ(recovered->last_seq(), 2u);
}

TEST_F(DatabaseFileTest, BackupAndRestore) {
  Database db;  // in-memory primary
  db.create_table("jobs", jobs_schema());
  for (int i = 0; i < 20; ++i) {
    db.upsert("jobs", {Value(i), Value("u"), Value(static_cast<double>(i))});
  }
  ASSERT_TRUE(db.backup_to(*dir()));
  auto restored = Database::open(dir());
  EXPECT_EQ(restored->table_size("jobs"), 20u);
  EXPECT_DOUBLE_EQ((*restored->get("jobs", Value(7)))[2].as_real(), 7.0);
  EXPECT_EQ(restored->last_seq(), db.last_seq());
}

TEST_F(DatabaseFileTest, NanUpsertDoesNotStopReplay) {
  const int64_t big = (1LL << 53) + 1;
  {
    auto db = Database::open(dir());
    db->create_table("jobs", jobs_schema());
    db->upsert("jobs", {Value(1), Value("a"), Value(1.0)});
    db->upsert("jobs", {Value(2), Value("b"),
                        Value(std::numeric_limits<double>::quiet_NaN())});
    db->upsert("jobs", {Value(3), Value("c"),
                        Value(std::numeric_limits<double>::infinity())});
    db->upsert("jobs", {Value(big), Value("d"), Value(-0.0)});
  }
  auto reopened = Database::open(dir());
  EXPECT_EQ(reopened->table_size("jobs"), 4u);
  ASSERT_TRUE(reopened->get("jobs", Value(2)).has_value());
  EXPECT_TRUE(std::isnan((*reopened->get("jobs", Value(2)))[2].as_real()));
  EXPECT_TRUE(std::isinf((*reopened->get("jobs", Value(3)))[2].as_real()));
  auto last = reopened->get("jobs", Value(big));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ((*last)[0].as_int(), big);
  EXPECT_EQ(bits_of((*last)[2].as_real()), bits_of(-0.0));
}

TEST(Database, RejectedMutationIsNeverLogged) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto db = Database::open(dir);
  db->create_table("jobs", jobs_schema());
  db->upsert("jobs", {Value(1), Value("a"), Value(1.0)});
  auto files = [&] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& name : dir->list()) out.emplace_back(name, *dir->read(name));
    return out;
  };
  const auto before = files();
  const uint64_t syncs = dir->sync_count();

  EXPECT_THROW(db->upsert("nope", {Value(2)}), std::invalid_argument);
  EXPECT_THROW(db->upsert("jobs", {Value(2), Value("b")}), std::invalid_argument);
  EXPECT_THROW(db->erase("nope", Value(1)), std::invalid_argument);
  EXPECT_THROW(db->create_table("bad", Schema{{{"a", ColumnType::kInt}}, "b"}),
               std::invalid_argument);
  EXPECT_FALSE(db->erase("jobs", Value(7)));  // absent key: nothing to log
  // One misfit entry refuses the whole batch, the entries that fit too.
  std::vector<WalEntry> batch(3);
  batch[0] = {.op = WalEntry::Op::kUpsert,
              .table = "jobs",
              .row = {Value(3), Value("c"), Value(3.0)}};
  batch[1] = {.op = WalEntry::Op::kErase, .table = "jobs",
              .primary_key = Value(1)};
  batch[2] = {.op = WalEntry::Op::kUpsert,
              .table = "jobs",
              .row = {Value(4), Value("d")}};
  EXPECT_THROW(db->commit(batch), std::invalid_argument);
  EXPECT_FALSE(db->get("jobs", Value(3)).has_value());
  EXPECT_TRUE(db->get("jobs", Value(1)).has_value());

  EXPECT_EQ(files(), before);
  EXPECT_EQ(dir->pending_bytes(simfs::RecordLog::segment_name(1)), 0u);
  EXPECT_EQ(dir->sync_count(), syncs);
  EXPECT_EQ(db->last_seq(), 2u);
  EXPECT_FALSE(db->has_table("bad"));
}

TEST(Database, BatchIsCheckedAsItsEntriesLeaveTheTables) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto db = Database::open(dir);
  std::vector<WalEntry> batch(4);
  batch[0] = {.op = WalEntry::Op::kCreateTable,
              .table = "jobs",
              .schema = jobs_schema()};
  batch[1] = {.op = WalEntry::Op::kUpsert,
              .table = "jobs",
              .row = {Value(1), Value("a"), Value(1.0)}};
  batch[2] = {.op = WalEntry::Op::kUpsert,
              .table = "jobs",
              .row = {Value(2), Value("b"), Value(2.0)}};
  batch[3] = {.op = WalEntry::Op::kErase, .table = "jobs",
              .primary_key = Value(1)};
  const uint64_t syncs = dir->sync_count();
  db->commit(batch);
  EXPECT_EQ(dir->sync_count(), syncs + 1);
  EXPECT_EQ(db->last_seq(), 4u);
  EXPECT_EQ(db->table_size("jobs"), 1u);
  // One record in the log, with one seq per entry.
  std::vector<uint64_t> seqs;
  for (const auto& entry : db->entries_since(1)) seqs.push_back(entry.seq);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{2, 3, 4}));
  // A table the batch itself creates twice does not fit.
  std::vector<WalEntry> twice(2, batch[0]);
  twice[0].table = twice[1].table = "other";
  EXPECT_THROW(db->commit(twice), std::invalid_argument);
  EXPECT_THROW(db->commit({batch[0]}), std::invalid_argument);
  EXPECT_FALSE(db->has_table("other"));

  auto reopened = Database::open(dir);
  EXPECT_EQ(reopened->last_seq(), 4u);
  EXPECT_EQ(reopened->table_size("jobs"), 1u);
  EXPECT_TRUE(reopened->get("jobs", Value(2)).has_value());
}

TEST(Database, ReplayAppliesARecordWholeOrNotAtAll) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  Database::open(dir)->create_table("jobs", jobs_schema());
  // A record whose frame is intact but whose second entry does not fit.
  std::string payload;
  encode_entry({.seq = 2,
                .op = WalEntry::Op::kUpsert,
                .table = "jobs",
                .row = {Value(1), Value("a"), Value(1.0)}},
               payload);
  encode_entry({.seq = 3,
                .op = WalEntry::Op::kUpsert,
                .table = "nope",
                .row = {Value(1)}},
               payload);
  {
    simfs::RecordLog log(dir, 2);
    ASSERT_TRUE(log.flush_to(log.append(payload)));
  }
  auto reopened = Database::open(dir);
  EXPECT_EQ(reopened->table_size("jobs"), 0u);
  EXPECT_EQ(reopened->last_seq(), 1u);
}

TEST(Database, FailedSyncIsNotAppliedAndNeverReplays) {
  // Sync 1 opens the log, 2 and 3 commit the create and the first upsert.
  auto dir = std::make_shared<ceems::testing::FlakySyncDir>(4);
  auto db = Database::open(dir);
  db->create_table("jobs", jobs_schema());
  db->upsert("jobs", {Value(1), Value("a"), Value(1.0)});
  EXPECT_THROW(db->upsert("jobs", {Value(2), Value("b"), Value(2.0)}),
               std::runtime_error);
  EXPECT_FALSE(db->get("jobs", Value(2)).has_value());
  EXPECT_EQ(db->last_seq(), 2u);
  db->upsert("jobs", {Value(3), Value("c"), Value(3.0)});
  EXPECT_EQ(db->last_seq(), 3u);

  dir->inner()->crash();
  auto reopened = Database::open(dir->inner());
  EXPECT_TRUE(reopened->get("jobs", Value(1)).has_value());
  EXPECT_FALSE(reopened->get("jobs", Value(2)).has_value());
  EXPECT_TRUE(reopened->get("jobs", Value(3)).has_value());
  EXPECT_EQ(reopened->last_seq(), 3u);
}

TEST(Database, AutoCheckpointKeepsOneSegment) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto db = Database::open(dir);
  db->create_table("jobs", jobs_schema());
  const std::size_t limit = simfs::RecordLog::kDefaultSegmentBytes;
  for (int i = 0; i < 24; ++i) {
    db->upsert("jobs", {Value(i % 4), Value(std::string(1u << 20, 'a' + i)),
                        Value(static_cast<double>(i))});
    std::vector<std::string> segments;
    for (const auto& name : dir->list()) {
      if (simfs::RecordLog::parse_segment_name(name)) segments.push_back(name);
    }
    // The log checkpoints instead of rotating into a second segment.
    ASSERT_EQ(segments.size(), 1u) << "after upsert " << i;
    EXPECT_LE(dir->read(segments[0])->size(), limit + (1u << 20) + 64);
  }
  // Each of the (at least 5) checkpoints started the next segment.
  EXPECT_TRUE(dir->read("snapshot").has_value());
  EXPECT_GT(*simfs::RecordLog::parse_segment_name(dir->list().back()), 5u);

  auto reopened = Database::open(dir);
  EXPECT_EQ(reopened->table_size("jobs"), 4u);
  EXPECT_EQ(reopened->last_seq(), db->last_seq());
  EXPECT_EQ((*reopened->get("jobs", Value(3)))[1].as_text(),
            std::string(1u << 20, 'a' + 23));
}

TEST(Database, ConcurrentReadersWithSingleWriter) {
  Database db;
  db.create_table("jobs", jobs_schema());
  std::thread writer([&] {
    for (int i = 0; i < 3000; ++i) {
      db.upsert("jobs", {Value(i % 50), Value("u" + std::to_string(i % 5)),
                         Value(static_cast<double>(i))});
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        Query query;
        query.group_by = {"user"};
        query.aggregates = {{AggFn::kSum, "energy", "total"}};
        auto result = db.query("jobs", query);
        EXPECT_LE(result.rows.size(), 5u);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(db.table_size("jobs"), 50u);
}

TEST(Database, UnknownTableThrows) {
  Database db;
  EXPECT_THROW(db.upsert("nope", {}), std::invalid_argument);
  EXPECT_THROW(db.query("nope", Query{}), std::invalid_argument);
}

}  // namespace
}  // namespace ceems::reldb
