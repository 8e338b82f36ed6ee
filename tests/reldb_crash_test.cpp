// Crash differential for the units DB: a random create/upsert/erase
// workload (with explicit checkpoints, auto-checkpoints and rejected
// mutations) runs against a durable Database and, mutation by mutation,
// against an in-memory oracle that applies only what the durable one
// acknowledged. The "machine" then loses power at a random directory
// operation, or the last record is torn at every byte offset; the
// reopened database must equal the oracle — every acknowledged mutation
// survives, nothing unacknowledged appears, values bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <random>

#include "flaky_sync_dir.h"
#include "reldb/database.h"
#include "simfs/durable_dir.h"
#include "simfs/record_log.h"

namespace ceems::reldb {
namespace {

const std::vector<std::string> kTables = {"units", "usage", "users"};

Schema schema_for(const std::string& table) {
  Schema schema;
  schema.columns = {{"id", ColumnType::kInt},
                    {"name", ColumnType::kText},
                    {"energy", ColumnType::kReal},
                    {"count", ColumnType::kInt}};
  if (table == "users") schema.columns[0].type = ColumnType::kText;
  schema.primary_key = "id";
  return schema;
}

double from_bits(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Value random_key(std::mt19937_64& rng, const std::string& table) {
  int64_t key = static_cast<int64_t>(rng() % 12);
  if (table == "users") return Value("user" + std::to_string(key));
  return Value(key == 11 ? (int64_t{1} << 53) + 1 : key);
}

Value random_real(std::mt19937_64& rng) {
  switch (rng() % 7) {
    case 0: return Value(std::numeric_limits<double>::quiet_NaN());
    case 1: return Value(from_bits(rng() | 0x7ff0000000000001ULL));  // NaN
    case 2: return Value(-0.0);
    case 3: return Value(-std::numeric_limits<double>::infinity());
    case 4: return Value();
    default: return Value(std::uniform_real_distribution<double>(-1e9, 1e9)(rng));
  }
}

// Text that JSON lines would have mangled, and now and then a value big
// enough that the log soon fills a segment and auto-checkpoints.
Value random_text(std::mt19937_64& rng, bool big_values) {
  if (big_values && rng() % 4 == 0) {
    return Value(std::string(1u << 20, static_cast<char>('a' + rng() % 26)));
  }
  std::string text = "job \"" + std::to_string(rng() % 1000) + "\"\n";
  text.push_back('\0');
  text += "tail";
  return Value(std::move(text));
}

struct Mutation {
  enum class Kind { kCreate, kUpsert, kErase, kCheckpoint } kind;
  std::string table;
  Row row;
  Value key;
};

Mutation random_mutation(std::mt19937_64& rng, bool big_values) {
  Mutation m{Mutation::Kind::kUpsert, kTables[rng() % kTables.size()], {}, {}};
  uint64_t roll = rng() % 40;
  if (roll < 3) {
    m.kind = Mutation::Kind::kCreate;
  } else if (roll < 4) {
    m.kind = Mutation::Kind::kCheckpoint;
  } else if (roll < 12) {
    m.kind = Mutation::Kind::kErase;
    m.key = random_key(rng, m.table);
  } else {
    m.row = {random_key(rng, m.table), random_text(rng, big_values),
             random_real(rng),
             Value(static_cast<int64_t>(rng()))};
    // Now and then a row that does not fit the schema: rejected.
    if (rng() % 15 == 0) m.row.pop_back();
  }
  return m;
}

// Applies `m`; false when the database rejected it as not fitting.
bool apply(Database& db, const Mutation& m) {
  try {
    switch (m.kind) {
      case Mutation::Kind::kCreate:
        db.create_table(m.table, schema_for(m.table));
        break;
      case Mutation::Kind::kUpsert:
        db.upsert(m.table, m.row);
        break;
      case Mutation::Kind::kErase:
        db.erase(m.table, m.key);
        break;
      case Mutation::Kind::kCheckpoint:
        db.checkpoint();
        break;
    }
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

// One line per row, values by type and exact bits (big texts by size and
// hash), rows sorted: equal dumps mean observably identical databases.
std::string dump(const Database& db) {
  std::string out;
  for (const auto& table : kTables) {
    if (!db.has_table(table)) continue;
    std::vector<std::string> lines;
    for (const Row& row : db.query(table, Query{}).rows) {
      std::string line;
      for (const Value& value : row) {
        if (value.is_int()) {
          line += " i" + std::to_string(value.as_int());
        } else if (value.is_real()) {
          uint64_t bits = 0;
          double real = value.as_real();
          std::memcpy(&bits, &real, sizeof(bits));
          line += " r" + std::to_string(bits);
        } else if (value.is_text()) {
          line += " t" + std::to_string(value.as_text().size()) + ":" +
                  std::to_string(std::hash<std::string>{}(value.as_text()));
        } else {
          line += " null";
        }
      }
      lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    out += table + "\n";
    for (const auto& line : lines) out += line + "\n";
  }
  return out;
}

// Forwards to a SimDurableDir until its budget of mutating operations
// runs out; then the power goes (crash()) and every later mutating call
// fails — the process died in the middle of whatever it was doing.
class DyingDir final : public simfs::DurableDir {
 public:
  explicit DyingDir(uint64_t budget)
      : inner_(std::make_shared<simfs::SimDurableDir>()), budget_(budget) {}

  bool append(const std::string& name, std::string_view bytes) override {
    return alive() && inner_->append(name, bytes);
  }
  bool sync(const std::string& name) override {
    return alive() && inner_->sync(name);
  }
  bool replace(const std::string& name, std::string_view bytes) override {
    return alive() && inner_->replace(name, bytes);
  }
  std::optional<std::string> read(const std::string& name) const override {
    return inner_->read(name);
  }
  std::vector<std::string> list() const override { return inner_->list(); }
  bool remove(const std::string& name) override {
    return alive() && inner_->remove(name);
  }
  bool truncate(const std::string& name, std::size_t size) override {
    return alive() && inner_->truncate(name, size);
  }

  std::shared_ptr<simfs::SimDurableDir> inner() const { return inner_; }
  uint64_t ops() const { return ops_; }

 private:
  bool alive() {
    if (++ops_ <= budget_) return true;
    if (ops_ == budget_ + 1) inner_->crash();
    return false;
  }

  std::shared_ptr<simfs::SimDurableDir> inner_;
  uint64_t budget_;
  uint64_t ops_ = 0;
};

constexpr int kMutations = 160;

// Runs the seed's workload on `durable` and on `oracle` until the
// durable database fails a commit (the dir died). Rejections must agree.
void run_workload(uint64_t seed, bool big_values, Database& durable,
                  Database& oracle) {
  std::mt19937_64 rng(seed);
  for (int i = 0; i < kMutations; ++i) {
    Mutation m = random_mutation(rng, big_values);
    bool accepted = false;
    try {
      accepted = apply(durable, m);
    } catch (const std::runtime_error&) {
      return;  // not acknowledged: the oracle never sees it
    }
    ASSERT_EQ(apply(oracle, m), accepted) << "mutation " << i;
  }
}

// Power loss at a random mutating directory operation of the seed's run.
void crash_at_random_op(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  uint64_t total = 0;
  {
    auto counting =
        std::make_shared<DyingDir>(std::numeric_limits<uint64_t>::max());
    auto db = Database::open(counting);
    Database oracle;
    run_workload(seed, /*big_values=*/true, *db, oracle);
    total = counting->ops();
    ASSERT_EQ(dump(*db), dump(oracle));
  }
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ULL);
  auto dying = std::make_shared<DyingDir>(rng() % (total + 1));
  Database oracle;
  {
    auto db = Database::open(dying);
    run_workload(seed, /*big_values=*/true, *db, oracle);
  }
  dying->inner()->crash();

  auto reopened = Database::open(dying->inner());
  EXPECT_EQ(dump(*reopened), dump(oracle));
  EXPECT_EQ(reopened->last_seq(), oracle.last_seq());

  // The recovered database keeps working and stays recoverable.
  reopened->create_table("units", schema_for("units"));
  reopened->upsert("units", {Value(99), Value("after"), Value(1.0), Value(1)});
  oracle.create_table("units", schema_for("units"));
  oracle.upsert("units", {Value(99), Value("after"), Value(1.0), Value(1)});
  reopened.reset();
  dying->inner()->crash();
  EXPECT_EQ(dump(*Database::open(dying->inner())), dump(oracle));
}

TEST(ReldbCrash, PowerLossAtRandomOperationKeepsAcknowledgedMutations) {
  for (uint64_t seed = 1; seed <= 24; ++seed) crash_at_random_op(seed);
}

std::string newest_segment(const simfs::DurableDir& dir) {
  std::string newest;
  uint64_t newest_seq = 0;
  for (const auto& name : dir.list()) {
    auto seq = simfs::RecordLog::parse_segment_name(name);
    if (seq && *seq >= newest_seq) {
      newest_seq = *seq;
      newest = name;
    }
  }
  return newest;
}

TEST(ReldbCrash, WorkloadCoversCheckpointsAndRejections) {
  // The workload the differential relies on really runs explicit
  // checkpoints, auto-checkpoints and rejected mutations.
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto db = Database::open(dir);
  std::mt19937_64 rng(7);
  int rejected = 0, checkpoints = 0;
  for (int i = 0; i < kMutations; ++i) {
    Mutation m = random_mutation(rng, /*big_values=*/true);
    rejected += !apply(*db, m);
    checkpoints += m.kind == Mutation::Kind::kCheckpoint;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(checkpoints, 0);
  // Every checkpoint starts the next segment sequence number.
  auto generations = simfs::RecordLog::parse_segment_name(newest_segment(*dir));
  ASSERT_TRUE(generations.has_value());
  EXPECT_GT(*generations - 1, static_cast<uint64_t>(checkpoints));
}

// Copies every durable file of `dir` into a fresh SimDurableDir.
std::shared_ptr<simfs::SimDurableDir> clone(const simfs::DurableDir& dir) {
  auto copy = std::make_shared<simfs::SimDurableDir>();
  for (const auto& name : dir.list()) copy->replace(name, *dir.read(name));
  return copy;
}


// The seed's workload without big values (no auto-checkpoint), then one
// final commit whose record is the last in the newest segment: one
// upsert, or with `batch` a batch of upserts and an erase across two
// tables. Fills `before`/`after` with the oracle dumps around it and the
// segment's size around it.
struct TornFixture {
  std::string before, after;
  std::string segment;
  std::size_t size_before = 0, size_after = 0;
};

TornFixture run_to_last_record(uint64_t seed, simfs::DurableDirPtr dir,
                               bool batch) {
  TornFixture fx;
  auto db = Database::open(dir);
  Database oracle;
  run_workload(seed, /*big_values=*/false, *db, oracle);
  for (Database* target : {db.get(), &oracle}) {
    target->create_table("units", schema_for("units"));
    target->create_table("users", schema_for("users"));
  }
  fx.before = dump(oracle);
  fx.segment = newest_segment(*dir);
  fx.size_before = dir->read(fx.segment)->size();
  const Row last = {Value(5), Value(std::string("last\0row", 8)),
                    Value(std::numeric_limits<double>::quiet_NaN()),
                    Value(std::numeric_limits<int64_t>::min())};
  std::vector<WalEntry> entries(1);
  entries[0] = {.op = WalEntry::Op::kUpsert, .table = "units", .row = last};
  if (batch) {
    entries.resize(4);
    entries[1] = {.op = WalEntry::Op::kUpsert,
                  .table = "users",
                  .row = {Value("user3"), Value("batch"), Value(-0.0),
                          Value(int64_t{7})}};
    entries[2] = {.op = WalEntry::Op::kErase,
                  .table = "units",
                  .primary_key = Value(int64_t{2})};
    entries[3] = entries[1];
    entries[3].row[0] = Value("user11");
  }
  db->commit(entries);
  oracle.commit(entries);
  fx.after = dump(oracle);
  EXPECT_EQ(newest_segment(*dir), fx.segment);
  fx.size_after = dir->read(fx.segment)->size();
  EXPECT_GT(fx.size_after, fx.size_before);
  return fx;
}

TEST(ReldbCrash, TornLastRecordAtEveryOffsetRecoversPrefix) {
  for (uint64_t seed : {3u, 11u}) {
    for (bool batch : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (batch ? " batch" : ""));
      auto dir = std::make_shared<simfs::SimDurableDir>();
      TornFixture fx = run_to_last_record(seed, dir, batch);
      for (std::size_t cut = fx.size_before; cut <= fx.size_after; ++cut) {
        auto copy = clone(*dir);
        copy->truncate_durable(fx.segment, cut);
        const std::string& expected =
            cut == fx.size_after ? fx.after : fx.before;
        EXPECT_EQ(dump(*Database::open(copy)), expected) << "cut " << cut;
        // The repaired log reopens to the same state.
        EXPECT_EQ(dump(*Database::open(copy)), expected) << "cut " << cut;
      }
    }
  }
}

// ---------- log shipping (backup_to) ----------

std::map<std::string, std::string> contents(const simfs::DurableDir& dir) {
  std::map<std::string, std::string> files;
  for (const auto& name : dir.list()) files[name] = *dir.read(name);
  return files;
}

// Ships `db` into `replica` and opens a copy of the replica: it must
// equal `db` table for table and in last_seq. A second ship adds nothing.
void expect_shipped(const Database& db, simfs::DurableDir& replica) {
  ASSERT_TRUE(db.backup_to(replica));
  auto restored = Database::open(clone(replica));
  EXPECT_EQ(dump(*restored), dump(db));
  EXPECT_EQ(restored->last_seq(), db.last_seq());
  const auto files = contents(replica);
  ASSERT_TRUE(db.backup_to(replica));
  EXPECT_EQ(contents(replica), files);
}

uint64_t newest_seq(const simfs::DurableDir& dir) {
  return simfs::RecordLog::parse_segment_name(newest_segment(dir)).value_or(0);
}

// Random mutations shipped in rounds, across an explicit checkpoint()
// and an auto-checkpoint; after each round a copy of the replica opens
// to the primary.
void check_log_shipping(simfs::DurableDirPtr primary,
                        simfs::DurableDirPtr replica) {
  auto db = Database::open(primary);
  for (const auto& table : kTables) db->create_table(table, schema_for(table));
  std::mt19937_64 rng(21);
  auto mutate = [&](int count) {
    for (int i = 0; i < count; ++i)
      apply(*db, random_mutation(rng, /*big_values=*/false));
  };
  mutate(30);
  expect_shipped(*db, *replica);
  mutate(30);
  expect_shipped(*db, *replica);

  ASSERT_TRUE(db->checkpoint());
  mutate(30);
  expect_shipped(*db, *replica);

  // Six 1 MiB rows fill the 4 MiB segment: the log checkpoints itself.
  const uint64_t before_auto = newest_seq(*primary);
  for (int i = 0; i < 6; ++i) {
    std::string big(1u << 20, static_cast<char>('a' + i));
    db->upsert("units", {Value(int64_t{i}), Value(std::move(big)), Value(1.0),
                         Value(int64_t{i})});
  }
  EXPECT_GT(newest_seq(*primary), before_auto);
  mutate(10);
  expect_shipped(*db, *replica);
  EXPECT_EQ(replica->list(), primary->list());
}

TEST(ReldbReplica, ShipsTheLogAcrossCheckpoints) {
  auto primary = std::make_shared<simfs::SimDurableDir>();
  auto replica = std::make_shared<ceems::testing::FlakySyncDir>(0);
  check_log_shipping(primary, replica);

  // Calling it again ships only the new bytes: one append to the live
  // segment and its sync, no replaced file.
  auto db = Database::open(primary);
  auto upsert = [&](int64_t key) {
    db->upsert("units", {Value(key), Value("new"), Value(4.0), Value(key)});
  };
  upsert(40);
  ASSERT_TRUE(db->backup_to(*replica));
  const int syncs = replica->syncs();
  const uint64_t writes = replica->inner()->sync_count();  // + replaces
  upsert(41);
  ASSERT_TRUE(db->backup_to(*replica));
  EXPECT_EQ(replica->syncs(), syncs + 1);
  EXPECT_EQ(replica->inner()->sync_count(), writes + 1);
  EXPECT_EQ(contents(*replica), contents(*primary));
}

// A record whose sync failed, in a generation whose checkpoint failed
// too, reaches neither a replica nor the primary's disk, whether or not
// the failed write itself did.
void check_failed_record_never_ships(bool failed_sync_persists) {
  SCOPED_TRACE(failed_sync_persists ? "failed sync persisted"
                                    : "failed sync lost");
  // Sync 1 opens the log, 2 creates the table, 3 commits the first row
  // and 4, the second row's, fails. The checkpoint the third commit
  // starts with fails too (the first replace), so that commit is
  // refused in the same failed generation.
  auto dir = std::make_shared<ceems::testing::FlakySyncDir>(
      4, 1, failed_sync_persists);
  auto db = Database::open(dir);
  db->create_table("units", schema_for("units"));
  auto row = [](int64_t key) {
    return Row{Value(key), Value("row"), Value(1.0), Value(key)};
  };
  db->upsert("units", row(1));
  EXPECT_THROW(db->upsert("units", row(2)), std::runtime_error);
  EXPECT_THROW(db->upsert("units", row(3)), std::runtime_error);

  auto replica = std::make_shared<simfs::SimDurableDir>();
  expect_shipped(*db, *replica);
  auto restored = Database::open(clone(*replica));
  EXPECT_TRUE(restored->get("units", Value(int64_t{1})).has_value());
  EXPECT_FALSE(restored->get("units", Value(int64_t{2})).has_value());
  EXPECT_FALSE(restored->get("units", Value(int64_t{3})).has_value());
  // Nor does it reach the primary's own disk.
  dir->inner()->crash();
  EXPECT_EQ(dump(*Database::open(clone(*dir->inner()))), dump(*db));

  // The next checkpoint succeeds, and commits and shipping resume.
  db->upsert("units", row(4));
  expect_shipped(*db, *replica);
  EXPECT_EQ(db->table_size("units"), 2u);
}

TEST(ReldbReplica, RecordOfAFailedSyncNeverShips) {
  for (bool persists : {false, true}) {
    check_failed_record_never_ships(persists);
  }
}

// ---------- the same over the host filesystem (RealDurableDir) ----------

std::string fresh_dir(const std::string& name) {
  std::string path = ::testing::TempDir() + "ceems_reldb_realfs_" + name;
  std::filesystem::remove_all(path);
  return path;
}

TEST(ReldbRealFs, CheckpointAndReopenMatchOracle) {
  const std::string root = fresh_dir("reopen");
  Database oracle;
  uint64_t last_seq = 0;
  {
    auto db = Database::open(std::make_shared<simfs::RealDurableDir>(root));
    run_workload(5, /*big_values=*/true, *db, oracle);
    ASSERT_EQ(dump(*db), dump(oracle));
    last_seq = db->last_seq();
  }
  // A new process: fresh handle over the same files.
  auto reopened =
      Database::open(std::make_shared<simfs::RealDurableDir>(root));
  EXPECT_EQ(dump(*reopened), dump(oracle));
  EXPECT_EQ(reopened->last_seq(), last_seq);
  EXPECT_TRUE(std::filesystem::exists(root + "/snapshot"));
  std::filesystem::remove_all(root);
}

TEST(ReldbRealFs, ShipsTheLogAcrossCheckpoints) {
  const std::string primary = fresh_dir("ship_primary");
  const std::string replica = fresh_dir("ship_replica");
  check_log_shipping(std::make_shared<simfs::RealDurableDir>(primary),
                     std::make_shared<simfs::RealDurableDir>(replica));
  std::filesystem::remove_all(primary);
  std::filesystem::remove_all(replica);
}

// The last record torn on the host filesystem at every offset.
void check_torn_last_record_on_real_fs(bool batch) {
  SCOPED_TRACE(batch ? "batch" : "one upsert");
  const std::string root = fresh_dir("torn");
  TornFixture fx = run_to_last_record(
      13, std::make_shared<simfs::RealDurableDir>(root), batch);
  std::map<std::string, std::string> files;
  {
    simfs::RealDurableDir dir(root);
    for (const auto& name : dir.list()) files[name] = *dir.read(name);
  }
  for (std::size_t cut = fx.size_before; cut <= fx.size_after; ++cut) {
    // Restore the whole directory, then tear the segment on disk.
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    for (const auto& [name, bytes] : files) {
      std::ofstream(root + "/" + name, std::ios::binary) << bytes;
    }
    std::filesystem::resize_file(root + "/" + fx.segment, cut);
    const std::string& expected = cut == fx.size_after ? fx.after : fx.before;
    EXPECT_EQ(dump(*Database::open(
                  std::make_shared<simfs::RealDurableDir>(root))),
              expected)
        << "cut " << cut;
    EXPECT_EQ(std::filesystem::file_size(root + "/" + fx.segment),
              cut == fx.size_after ? fx.size_after : fx.size_before)
        << "cut " << cut;
    EXPECT_EQ(dump(*Database::open(
                  std::make_shared<simfs::RealDurableDir>(root))),
              expected)
        << "cut " << cut;
  }
  std::filesystem::remove_all(root);
}

TEST(ReldbRealFs, TornLastRecordIsRepairedAtEveryOffset) {
  for (bool batch : {false, true}) {
    check_torn_last_record_on_real_fs(batch);
  }
}

}  // namespace
}  // namespace ceems::reldb
