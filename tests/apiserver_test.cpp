#include <gtest/gtest.h>

#include <bit>
#include <thread>

#include "apiserver/api_server.h"
#include "apiserver/reports.h"
#include "apiserver/resource_manager.h"
#include "apiserver/updater.h"
#include "flaky_sync_dir.h"
#include "http/client.h"
#include "tsdb/longterm.h"
#include "stack_fixture.h"
#include "append_one.h"

namespace ceems::apiserver {
namespace {

using common::Json;

// ---------- schema ----------

TEST(Schema, UnitRowRoundTrip) {
  Unit unit;
  unit.uuid = "1234";
  unit.cluster = "jz";
  unit.resource_manager = "slurm";
  unit.user = "alice";
  unit.project = "prj1";
  unit.state = "RUNNING";
  unit.started_at_ms = 1000;
  unit.num_cpus = 40;
  unit.total_energy_joules = 1234.5;
  Unit back = unit_from_row(unit_to_row(unit));
  EXPECT_EQ(back.uuid, unit.uuid);
  EXPECT_EQ(back.user, unit.user);
  EXPECT_EQ(back.num_cpus, 40);
  EXPECT_DOUBLE_EQ(back.total_energy_joules, 1234.5);
  Json json = unit.to_json();
  EXPECT_EQ(json.get_string("uuid"), "1234");
  EXPECT_DOUBLE_EQ(json.get_number("total_energy_joules"), 1234.5);
}

// ---------- adapters ----------

TEST(Adapters, SlurmJobMapsToUnit) {
  slurm::Job job;
  job.job_id = 77;
  job.request.name = "train";
  job.request.user = "bob";
  job.request.account = "prj2";
  job.request.partition = "gpu_p4";
  job.request.num_nodes = 2;
  job.request.cpus_per_node = 16;
  job.request.gpus_per_node = 4;
  job.state = slurm::JobState::kRunning;
  job.submit_time_ms = 500;
  job.start_time_ms = 1000;
  Unit unit = SlurmAdapter::to_unit(job, "jean-zay");
  EXPECT_EQ(unit.uuid, "77");
  EXPECT_EQ(unit.resource_manager, "slurm");
  EXPECT_EQ(unit.state, "RUNNING");
  EXPECT_EQ(unit.num_cpus, 32);
  EXPECT_EQ(unit.num_gpus, 8);
}

TEST(Schema, IndexesAreRecreatedOnReopen) {
  auto dir = std::make_shared<simfs::SimDurableDir>();
  Unit unit;
  unit.uuid = "1";
  unit.user = "alice";
  unit.project = "prj";
  unit.state = "RUNNING";
  {
    auto db = reldb::Database::open(dir);
    create_ceems_tables(*db);
    db->upsert(kUnitsTable, unit_to_row(unit));
  }
  auto db = reldb::Database::open(dir);
  create_ceems_tables(*db);
  for (const char* column : {"user", "project", "state"}) {
    EXPECT_TRUE(db->has_index(kUnitsTable, column)) << column;
  }
  reldb::Query query;
  query.where = {{"user", reldb::Predicate::Op::kEq, reldb::Value("alice")}};
  EXPECT_EQ(db->query(kUnitsTable, query).rows.size(), 1u);
}

TEST(Adapters, OpenstackPlugsIntoSameSchema) {
  OpenstackAdapter nova("cloud1");
  nova.report_vm("vm-abc", "carol", "prj3", 8, 16LL << 30, "ACTIVE", 100, 200,
                 0);
  auto units = nova.fetch_units_changed_since(0);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].resource_manager, "openstack");
  EXPECT_EQ(units[0].uuid, "vm-abc");
  // Round-trips through the same DB schema.
  reldb::Database db;
  create_ceems_tables(db);
  db.upsert(kUnitsTable, unit_to_row(units[0]));
  EXPECT_EQ(unit_from_row(*db.get(kUnitsTable, reldb::Value("vm-abc"))).user,
            "carol");
  EXPECT_TRUE(nova.fetch_units_changed_since(300).empty());
}

TEST(Adapters, K8sPodsPlugIntoSameSchema) {
  K8sAdapter kube("k8s-prod");
  kube.report_pod("pod-uid-1", "training-job-0", "ml-sa", "ml-team", 3.5,
                  8LL << 30, 1, "Running", 100, 200, 0);
  kube.report_pod("pod-uid-2", "web-0", "web-sa", "web-team", 0.5,
                  1LL << 30, 0, "Succeeded", 100, 150, 900);
  auto units = kube.fetch_units_changed_since(0);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].resource_manager, "k8s");
  EXPECT_EQ(units[0].project, "ml-team");  // namespace = project
  EXPECT_EQ(units[0].num_cpus, 4);         // 3.5 cores rounds up
  EXPECT_EQ(units[0].num_gpus, 1);

  // All three managers coexist in one table.
  reldb::Database db;
  create_ceems_tables(db);
  for (const auto& unit : units) db.upsert(kUnitsTable, unit_to_row(unit));
  OpenstackAdapter nova("cloud");
  nova.report_vm("vm-1", "u", "p", 4, 8LL << 30, "ACTIVE", 1, 2, 0);
  for (const auto& unit : nova.fetch_units_changed_since(0)) {
    db.upsert(kUnitsTable, unit_to_row(unit));
  }
  reldb::Query query;
  query.group_by = {"resource_manager"};
  query.aggregates = {{reldb::AggFn::kCount, "", "n"}};
  EXPECT_EQ(db.query(kUnitsTable, query).rows.size(), 2u);
  // Incremental poll only returns new events.
  EXPECT_TRUE(kube.fetch_units_changed_since(901).empty());
  kube.report_pod("pod-uid-1", "training-job-0", "ml-sa", "ml-team", 3.5,
                  8LL << 30, 1, "Succeeded", 100, 200, 950);
  EXPECT_EQ(kube.fetch_units_changed_since(901).size(), 1u);
}

// ---------- updater window alignment ----------

// With align_window_ms set, the updater's batched aggregate queries snap
// to the grid, so a long-term store's resolution-aware planner serves
// them from the aggregate ladder — asserted via the per-level hit
// counters — while the folded unit aggregates stay plausible.
TEST(UpdaterAlignment, AggregateQueriesHitResolutionLadder) {
  constexpr int64_t kFiveMin = 5 * common::kMillisPerMinute;
  constexpr common::TimestampMs kEnd = 40 * common::kMillisPerMinute;

  auto hot = std::make_shared<tsdb::TimeSeriesStore>();
  auto power = metrics::Labels{{"uuid", "vm-1"}}
                   .with_name("ceems_job_power_watts");
  auto cpu = metrics::Labels{{"uuid", "vm-1"}}
                 .with_name("ceems_compute_unit_cpu_usage_seconds_total");
  for (common::TimestampMs t = 0; t <= kEnd; t += 30000) {
    append_one(*hot, power, t, 200);
    append_one(*hot, cpu, t, static_cast<double>(t) / 1000.0);  // 1 cpu-sec/sec
  }
  tsdb::LongTermConfig lt_config;
  lt_config.downsample_after_ms = 365LL * 24 * common::kMillisPerHour;
  lt_config.levels = {{kFiveMin, 0}};
  auto lt = std::make_shared<tsdb::LongTermStore>(hot, lt_config);
  lt->sync_from(*hot);
  lt->compact(kEnd);

  reldb::Database db;
  auto nova = std::make_shared<OpenstackAdapter>("cloud");
  nova->report_vm("vm-1", "alice", "p1", 4, 8LL << 30, "ACTIVE", 0, 0, 0);
  auto clock = common::make_sim_clock(0);
  UpdaterConfig config;
  config.align_window_ms = kFiveMin;
  Updater updater(db, lt, nullptr, {nova}, clock, config);

  clock->set(10 * common::kMillisPerMinute + 13000);  // off-grid on purpose
  updater.update_once();  // first cycle pins last_agg to the 10m gridline
  auto hits_before = lt->select_stats();
  clock->set(35 * common::kMillisPerMinute + 7000);
  UpdateStats stats = updater.update_once();  // 25m window ending at 35m
  auto hits_after = lt->select_stats();

  EXPECT_EQ(stats.units_aggregated, 1u);
  uint64_t before_total = 0, after_total = 0;
  for (uint64_t h : hits_before.level_hits) before_total += h;
  for (uint64_t h : hits_after.level_hits) after_total += h;
  EXPECT_GT(after_total, before_total)
      << "aligned updater queries must be served from the aggregate ladder";

  auto row = db.get(kUnitsTable, reldb::Value(std::string("vm-1")));
  ASSERT_TRUE(row.has_value());
  Unit unit = unit_from_row(*row);
  // 200 W over the 25 min aligned window.
  EXPECT_NEAR(unit.total_cpu_energy_joules, 200.0 * 25 * 60, 1.0);
  EXPECT_NEAR(unit.total_cpu_time_seconds, 25.0 * 60, 30.0);
}

// ---------- updater counter windows ----------

// Consecutive cycles tile a counter: each counts from where the
// previous read ended, so every scrape delta is counted in exactly one
// cycle. With an update interval of one scrape interval a window holds a
// single sample, and with two it holds one of the two deltas; and when
// the long-term store's sync lags one scrape behind each cycle, a cycle
// must leave the unsynced scrape's delta to the next one. Every way, the
// summed per-cycle increments must equal the raw counter delta exactly,
// across resets and over a unit with two series (two nodes).
TEST(UpdaterTest, CounterIncrementsTileAcrossCycles) {
  constexpr int64_t kScrapeMs = 30000;
  constexpr int64_t kScrapeOffsetMs = 7000;  // scrapes off the cycle grid
  constexpr int kSweeps = 40;
  const std::vector<std::string> counters = {
      "ceems_compute_unit_cpu_usage_seconds_total",
      "ceems_compute_unit_io_read_bytes_total",
      "ceems_compute_unit_io_write_bytes_total"};
  // Integer-valued, so every partial sum is exact.
  auto value_at = [](int counter, int node, int sweep) {
    const int reset = 13 + 7 * counter + 5 * node;  // one reset per series
    const int from = sweep < reset ? 0 : reset;
    double v = sweep < reset ? 100.0 * (counter + 1) : 0;
    for (int k = from; k <= sweep; ++k) v += (k * (counter + 2) + node) % 9;
    return v;
  };

  for (int multiple : {1, 2}) {
    for (bool lagged : {false, true}) {
      SCOPED_TRACE("update interval = " + std::to_string(multiple) +
                   "x scrape interval" + (lagged ? ", sync lagging" : ""));
      const int64_t interval_ms = multiple * kScrapeMs;
      auto hot = std::make_shared<tsdb::TimeSeriesStore>();
      auto lt = std::make_shared<tsdb::LongTermStore>(hot);
      std::vector<std::vector<metrics::InternedLabels>> series(
          counters.size());
      for (std::size_t c = 0; c < counters.size(); ++c) {
        for (int node = 0; node < 2; ++node) {
          series[c].emplace_back(
              metrics::Labels{{"hostname", "n" + std::to_string(node)},
                              {"uuid", "vm-1"}}
                  .with_name(counters[c]));
        }
      }
      reldb::Database db;
      auto nova = std::make_shared<OpenstackAdapter>("cloud");
      nova->report_vm("vm-1", "alice", "p1", 4, 8LL << 30, "ACTIVE", 0, 0, 0);
      auto clock = common::make_sim_clock(0);
      UpdaterConfig config;
      config.interval_ms = interval_ms;
      Updater updater(db, lt, nullptr, {nova}, clock, config);

      // Scrapes land as the clock passes them; a cycle runs at every
      // multiple of the update interval. A lagging sync shows a cycle
      // only the scrapes that landed before its own.
      int next_sweep = 0;
      int first_counted = -1;  // the sweep the first cycle starts from
      int64_t at = interval_ms;
      for (; at <= kSweeps * kScrapeMs + kScrapeOffsetMs; at += interval_ms) {
        if (lagged) lt->sync_from(*hot);
        for (; next_sweep <= kSweeps &&
               kScrapeOffsetMs + next_sweep * kScrapeMs <= at;
             ++next_sweep) {
          for (std::size_t c = 0; c < counters.size(); ++c) {
            for (int node = 0; node < 2; ++node) {
              append_one(*hot, series[c][node],
                         kScrapeOffsetMs + next_sweep * kScrapeMs,
                         value_at(static_cast<int>(c), node, next_sweep));
            }
          }
        }
        if (!lagged) lt->sync_from(*hot);
        clock->set(at);
        updater.update_once();
        if (first_counted < 0) first_counted = next_sweep - 1;
      }
      // One more cycle once everything is synced.
      lt->sync_from(*hot);
      clock->set(at);
      updater.update_once();
      const int last_counted = next_sweep - 1;
      ASSERT_GT(last_counted, first_counted + 10);

      // The raw delta from the last sample at or before the first cycle
      // to the last one, reset-aware.
      std::vector<double> raw(counters.size(), 0);
      for (std::size_t c = 0; c < counters.size(); ++c) {
        for (int node = 0; node < 2; ++node) {
          for (int k = first_counted + 1; k <= last_counted; ++k) {
            double prev = value_at(static_cast<int>(c), node, k - 1);
            double cur = value_at(static_cast<int>(c), node, k);
            raw[c] += cur >= prev ? cur - prev : cur;
          }
        }
      }
      auto row = db.get(kUnitsTable, reldb::Value(std::string("vm-1")));
      ASSERT_TRUE(row.has_value());
      Unit unit = unit_from_row(*row);
      EXPECT_EQ(unit.total_cpu_time_seconds, raw[0]);
      EXPECT_EQ(unit.total_io_read_bytes, raw[1]);
      EXPECT_EQ(unit.total_io_write_bytes, raw[2]);
    }
  }
}

// Two identical 200 W VMs, updated at 10, 20, 30 and 40 min except at
// cycle `skip`, on a units DB over `dir` (in-memory when null).
struct TwoVmRun {
  std::vector<double> joules;  // each VM's total_cpu_energy_joules
  int failed_cycle = 0;        // the cycle whose commit threw; 0: none
  std::vector<int> cycle_syncs;  // syncs of `dir` made by each cycle
};

TwoVmRun run_two_vms(std::shared_ptr<ceems::testing::FlakySyncDir> dir,
                     int skip) {
  const std::vector<std::string> vms = {"vm-1", "vm-2"};
  auto store = std::make_shared<tsdb::TimeSeriesStore>();
  for (const auto& vm : vms) {
    metrics::InternedLabels power(
        metrics::Labels{{"uuid", vm}}.with_name("ceems_job_power_watts"));
    for (common::TimestampMs t = 0; t <= 40 * common::kMillisPerMinute;
         t += 30000) {
      append_one(*store, power, t, 200);
    }
  }
  auto db = reldb::Database::open(dir);
  auto nova = std::make_shared<OpenstackAdapter>("cloud");
  for (const auto& vm : vms) {
    nova->report_vm(vm, "alice", "p1", 4, 8LL << 30, "ACTIVE", 0, 0, 0);
  }
  auto clock = common::make_sim_clock(0);
  Updater updater(*db, store, nullptr, {nova}, clock, UpdaterConfig{});
  TwoVmRun run;
  for (int cycle = 1; cycle <= 4; ++cycle) {
    if (cycle == skip) continue;
    clock->set(cycle * 10 * common::kMillisPerMinute);
    const int syncs_before = dir ? dir->syncs() : 0;
    try {
      updater.update_once();
    } catch (const std::runtime_error&) {
      run.failed_cycle = cycle;
    }
    run.cycle_syncs.push_back((dir ? dir->syncs() : 0) - syncs_before);
  }
  for (const auto& vm : vms) {
    auto row = db->get(kUnitsTable, reldb::Value(vm));
    run.joules.push_back(row ? unit_from_row(*row).total_cpu_energy_joules
                             : -1.0);
  }
  return run;
}

uint64_t bits_of(double v) { return std::bit_cast<uint64_t>(v); }

TEST(UpdaterLoop, EachCycleCommitsWithOneSync) {
  TwoVmRun run = run_two_vms(std::make_shared<ceems::testing::FlakySyncDir>(0),
                             /*skip=*/0);
  EXPECT_EQ(run.failed_cycle, 0);
  // Cycle 1 writes both polled VMs, cycles 2-4 both aggregated ones.
  EXPECT_EQ(run.cycle_syncs, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(run.joules[0], 200.0 * 30 * 60);
}

// A cycle whose commit fails applies none of its rows and leaves the
// windows where they were, so the next cycle counts that window once:
// the result is bitwise the run that skipped the failed cycle, and the
// two identical VMs always agree.
TEST(UpdaterLoop, FailedCommitRedoesTheCycleOnce) {
  int setup_syncs = 0, cycle_syncs = 0;
  {
    auto dir = std::make_shared<ceems::testing::FlakySyncDir>(0);
    TwoVmRun clean = run_two_vms(dir, /*skip=*/0);
    for (int syncs : clean.cycle_syncs) cycle_syncs += syncs;
    setup_syncs = dir->syncs() - cycle_syncs;
  }
  ASSERT_GE(cycle_syncs, 4);
  for (int fail_at = setup_syncs + 1; fail_at <= setup_syncs + cycle_syncs;
       ++fail_at) {
    SCOPED_TRACE("failing sync " + std::to_string(fail_at));
    TwoVmRun durable = run_two_vms(
        std::make_shared<ceems::testing::FlakySyncDir>(fail_at), /*skip=*/0);
    ASSERT_NE(durable.failed_cycle, 0);
    TwoVmRun oracle = run_two_vms(nullptr, durable.failed_cycle);
    for (std::size_t vm = 0; vm < 2; ++vm) {
      EXPECT_EQ(bits_of(durable.joules[vm]), bits_of(oracle.joules[vm]))
          << "vm " << vm << ": " << durable.joules[vm] << " J, oracle "
          << oracle.joules[vm] << " J";
    }
    EXPECT_EQ(bits_of(durable.joules[0]), bits_of(durable.joules[1]));
  }
}

// ---------- updater + HTTP API over a live mini-stack ----------

class ApiServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ceems::testing::MiniStackOptions options;
    options.stack.updater.interval_ms = 60000;
    mini_ = new ceems::testing::MiniStack(options);
    mini_->run(30 * common::kMillisPerMinute);
    mini_->stack().start_servers();
  }
  static void TearDownTestSuite() {
    delete mini_;
    mini_ = nullptr;
  }

  Json api_get(const std::string& path, const std::string& user) {
    http::Client client;
    http::HeaderMap headers;
    if (!user.empty()) headers[kGrafanaUserHeader] = user;
    auto result = client.get(mini_->stack().api_url() + path, headers);
    EXPECT_TRUE(result.ok) << result.error;
    last_status_ = result.response.status;
    return result.response.body.empty() ? Json()
                                        : Json::parse(result.response.body);
  }

  // A user with at least one finished unit in the DB.
  static std::string some_user() {
    reldb::Query query;
    query.limit = 200;
    auto result = mini_->stack().db().query(kUnitsTable, query);
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      Unit unit = unit_from_row(result.rows[i]);
      if (unit.total_energy_joules > 0) return unit.user;
    }
    return "user0";
  }

  static ceems::testing::MiniStack* mini_;
  int last_status_ = 0;
};

ceems::testing::MiniStack* ApiServerTest::mini_ = nullptr;

TEST_F(ApiServerTest, UpdaterPopulatedUnitsFromSlurm) {
  EXPECT_GT(mini_->stack().db().table_size(kUnitsTable), 20u);
  // Every slurmdbd job that started is present.
  for (const auto& job : mini_->sim().dbd().all_jobs()) {
    if (job.start_time_ms == 0) continue;
    auto row = mini_->stack().db().get(kUnitsTable,
                                       reldb::Value(std::to_string(job.job_id)));
    EXPECT_TRUE(row.has_value()) << job.job_id;
  }
}

TEST_F(ApiServerTest, AggregatesAreFilledAndPlausible) {
  reldb::Query query;
  auto result = mini_->stack().db().query(kUnitsTable, query);
  std::size_t with_energy = 0;
  for (const auto& row : result.rows) {
    Unit unit = unit_from_row(row);
    if (unit.total_energy_joules <= 0) continue;
    ++with_energy;
    // avg cpu usage is a fraction.
    EXPECT_GE(unit.avg_cpu_usage, 0.0);
    EXPECT_LE(unit.avg_cpu_usage, 1.5);
    // Energy is positive and bounded by node TDP × elapsed (loose sanity).
    double elapsed_sec = static_cast<double>(unit.elapsed_ms) / 1000.0;
    EXPECT_LT(unit.total_energy_joules,
              5000.0 * std::max(elapsed_sec, 60.0) * unit.num_nodes);
    if (unit.total_energy_joules > 0 && unit.total_emissions_grams > 0) {
      // Emissions consistent with a French grid factor (15..120 g/kWh).
      double gco2_per_kwh =
          unit.total_emissions_grams / (unit.total_energy_joules / 3.6e6);
      EXPECT_GT(gco2_per_kwh, 10);
      EXPECT_LT(gco2_per_kwh, 150);
    }
  }
  EXPECT_GT(with_energy, 10u);
}

TEST_F(ApiServerTest, GpuJobsGetGpuEnergy) {
  reldb::Query query;
  auto result = mini_->stack().db().query(kUnitsTable, query);
  bool saw_gpu_energy = false;
  for (const auto& row : result.rows) {
    Unit unit = unit_from_row(row);
    if (unit.num_gpus > 0 && unit.total_gpu_energy_joules > 0) {
      saw_gpu_energy = true;
      EXPECT_GT(unit.avg_gpu_usage, 0.0);
    }
    if (unit.num_gpus == 0) {
      EXPECT_DOUBLE_EQ(unit.total_gpu_energy_joules, 0.0);
    }
  }
  EXPECT_TRUE(saw_gpu_energy);
}

TEST_F(ApiServerTest, UnitsEndpointScopedToUser) {
  std::string user = some_user();
  Json body = api_get("/api/v1/units", user);
  EXPECT_EQ(body.get_string("status"), "success");
  ASSERT_GT(body.at("data").size(), 0u);
  for (const auto& unit : body.at("data").as_array()) {
    EXPECT_EQ(unit.get_string("user"), user);
  }
}

TEST_F(ApiServerTest, MissingUserHeaderForbidden) {
  api_get("/api/v1/units", "");
  EXPECT_EQ(last_status_, 403);
}

TEST_F(ApiServerTest, AdminSeesEverythingAndFilters) {
  Json all = api_get("/api/v1/units", "admin");
  Json filtered = api_get("/api/v1/units?user=" + some_user(), "admin");
  EXPECT_GT(all.at("data").size(), filtered.at("data").size());
  Json limited = api_get("/api/v1/units?limit=3", "admin");
  EXPECT_LE(limited.at("data").size(), 3u);
}

TEST_F(ApiServerTest, UnitDetailEnforcesOwnership) {
  std::string user = some_user();
  Json body = api_get("/api/v1/units", user);
  std::string uuid = body.at("data").as_array()[0].get_string("uuid");

  api_get("/api/v1/units/" + uuid, user);
  EXPECT_EQ(last_status_, 200);
  api_get("/api/v1/units/" + uuid, "definitely_not_" + user);
  EXPECT_EQ(last_status_, 403);
  api_get("/api/v1/units/99999999", user);
  EXPECT_EQ(last_status_, 404);
}

TEST_F(ApiServerTest, VerifyEndpoint) {
  std::string user = some_user();
  Json body = api_get("/api/v1/units", user);
  std::string uuid = body.at("data").as_array()[0].get_string("uuid");
  api_get("/api/v1/units/verify?uuid=" + uuid, user);
  EXPECT_EQ(last_status_, 200);
  api_get("/api/v1/units/verify?uuid=" + uuid, "stranger_xyz");
  EXPECT_EQ(last_status_, 403);
  api_get("/api/v1/units/verify", user);
  EXPECT_EQ(last_status_, 400);
}

TEST_F(ApiServerTest, UsageRollupPerUserAndProject) {
  Json users = api_get("/api/v1/usage?scope=user", "admin");
  EXPECT_GT(users.at("data").size(), 3u);
  double total_energy = 0;
  for (const auto& row : users.at("data").as_array()) {
    total_energy += row.get_number("total_energy_joules");
    EXPECT_GT(row.get_int("num_units"), 0);
  }
  EXPECT_GT(total_energy, 0);

  Json projects = api_get("/api/v1/usage?scope=project", "admin");
  double project_energy = 0;
  for (const auto& row : projects.at("data").as_array()) {
    project_energy += row.get_number("total_energy_joules");
  }
  // Conservation across groupings.
  EXPECT_NEAR(project_energy, total_energy, 1e-6 * std::max(1.0, total_energy));

  api_get("/api/v1/usage?scope=bogus", "admin");
  EXPECT_EQ(last_status_, 400);
}

TEST_F(ApiServerTest, NonAdminUsageOnlySelf) {
  std::string user = some_user();
  Json body = api_get("/api/v1/usage?scope=user", user);
  ASSERT_EQ(body.at("data").size(), 1u);
  EXPECT_EQ(body.at("data").as_array()[0].get_string("user"), user);
}

TEST_F(ApiServerTest, UsersAndProjectsAdminOnly) {
  api_get("/api/v1/users", some_user());
  EXPECT_EQ(last_status_, 403);
  Json users = api_get("/api/v1/users", "admin");
  EXPECT_EQ(last_status_, 200);
  EXPECT_GT(users.at("data").size(), 0u);
  Json projects = api_get("/api/v1/projects", "admin");
  EXPECT_GT(projects.at("data").size(), 0u);
}

TEST_F(ApiServerTest, ProjectVisibilityForMembers) {
  // Find two users in the same project.
  reldb::Query query;
  auto result = mini_->stack().db().query(kUnitsTable, query);
  std::map<std::string, std::set<std::string>> project_users;
  for (const auto& row : result.rows) {
    Unit unit = unit_from_row(row);
    project_users[unit.project].insert(unit.user);
  }
  for (const auto& [project, users] : project_users) {
    if (users.size() < 2) continue;
    auto it = users.begin();
    std::string member = *it++;
    Json body = api_get("/api/v1/units?project=" + project, member);
    EXPECT_EQ(last_status_, 200);
    EXPECT_GT(body.at("data").size(), 0u);
    // A non-member is rejected.
    api_get("/api/v1/units?project=" + project, "stranger_abc");
    EXPECT_EQ(last_status_, 403);
    return;
  }
  GTEST_SKIP() << "no project with two users in this run";
}

TEST_F(ApiServerTest, PaginationAndClusterFilter) {
  Json all = api_get("/api/v1/units", "admin");
  std::size_t total = all.at("data").size();
  ASSERT_GT(total, 4u);

  Json first = api_get("/api/v1/units?limit=2", "admin");
  Json second = api_get("/api/v1/units?limit=2&offset=2", "admin");
  ASSERT_EQ(first.at("data").size(), 2u);
  ASSERT_EQ(second.at("data").size(), 2u);
  // Pages are disjoint and follow the global ordering.
  EXPECT_EQ(first.at("data").as_array()[0].get_string("uuid"),
            all.at("data").as_array()[0].get_string("uuid"));
  EXPECT_EQ(second.at("data").as_array()[0].get_string("uuid"),
            all.at("data").as_array()[2].get_string("uuid"));
  // Offset past the end: empty page, not an error.
  Json past = api_get("/api/v1/units?offset=99999", "admin");
  EXPECT_EQ(last_status_, 200);
  EXPECT_EQ(past.at("data").size(), 0u);

  // Cluster filter: everything is on the jean-zay sim cluster.
  Json matching = api_get("/api/v1/units?cluster=jean-zay", "admin");
  EXPECT_EQ(matching.at("data").size(), total);
  Json none = api_get("/api/v1/units?cluster=nope", "admin");
  EXPECT_EQ(none.at("data").size(), 0u);
  Json by_manager = api_get("/api/v1/units?resource_manager=slurm", "admin");
  EXPECT_EQ(by_manager.at("data").size(), total);
}

TEST_F(ApiServerTest, EfficiencyReportFlagsIdleUnits) {
  // Inject two synthetic finished units: one busy, one nearly idle.
  Unit busy;
  busy.uuid = "900001";
  busy.user = "efficient";
  busy.project = "prjX";
  busy.state = "COMPLETED";
  busy.started_at_ms = 1;
  busy.ended_at_ms = 1 + 2 * common::kMillisPerHour;
  busy.elapsed_ms = 2 * common::kMillisPerHour;
  busy.num_cpus = 40;
  busy.avg_cpu_usage = 0.95;
  Unit idle = busy;
  idle.uuid = "900002";
  idle.user = "wasteful";
  idle.avg_cpu_usage = 0.05;
  idle.total_energy_joules = 1e6;
  mini_->stack().db().upsert(kUnitsTable, unit_to_row(busy));
  mini_->stack().db().upsert(kUnitsTable, unit_to_row(idle));

  auto report = build_efficiency_report(mini_->stack().db());
  bool flagged_idle = false, flagged_busy = false;
  for (const auto& finding : report.low_cpu_units) {
    if (finding.unit.uuid == "900002") {
      flagged_idle = true;
      // 95% of 40 cpus × 2 h wasted.
      EXPECT_NEAR(finding.wasted_cpu_hours, 0.95 * 40 * 2, 0.5);
      EXPECT_NEAR(finding.wasted_energy_joules, 0.95e6, 1e4);
    }
    if (finding.unit.uuid == "900001") flagged_busy = true;
  }
  EXPECT_TRUE(flagged_idle);
  EXPECT_FALSE(flagged_busy);
  // "wasteful" ranks above everyone in the user ranking.
  ASSERT_FALSE(report.by_user.empty());
  EXPECT_EQ(report.by_user[0].owner, "wasteful");

  // Rendering works and mentions the culprit.
  std::string text = render_efficiency_report(report);
  EXPECT_NE(text.find("wasteful"), std::string::npos);

  // HTTP endpoint: admin only.
  api_get("/api/v1/reports/efficiency", some_user());
  EXPECT_EQ(last_status_, 403);
  Json body = api_get("/api/v1/reports/efficiency", "admin");
  EXPECT_EQ(last_status_, 200);
  EXPECT_GT(body.at("data").get_number("total_wasted_cpu_hours"), 70.0);
  // Clean up the synthetic rows so other tests see consistent data.
  mini_->stack().db().erase(kUnitsTable, reldb::Value("900001"));
  mini_->stack().db().erase(kUnitsTable, reldb::Value("900002"));
}

TEST_F(ApiServerTest, CleanupDeletesShortJobSeries) {
  // Separate stack with an aggressive cutoff.
  ceems::testing::MiniStackOptions options;
  options.stack.updater.small_unit_cutoff_ms = 15 * common::kMillisPerMinute;
  options.seed = 7;
  ceems::testing::MiniStack mini(options);
  mini.run(40 * common::kMillisPerMinute);

  // Find a finished short job and check its series are gone from the hot
  // store while longer jobs' series remain.
  auto& hot = *mini.stack().hot_store();
  bool checked_short = false;
  for (const auto& job : mini.sim().dbd().all_jobs()) {
    if (!job.finished() || job.start_time_ms == 0) continue;
    int64_t lifetime = job.end_time_ms - job.start_time_ms;
    auto series = hot.select(
        {{"uuid", metrics::LabelMatcher::Op::kEq, std::to_string(job.job_id)}},
        0, mini.clock()->now_ms());
    if (lifetime < 15 * common::kMillisPerMinute) {
      EXPECT_TRUE(series.empty()) << "job " << job.job_id;
      // Long-term reads go through the hot store for recent data, so the
      // deleted series vanish there too (buckets already folded stay).
      EXPECT_TRUE(mini.stack()
                      .longterm()
                      ->select({{"uuid", metrics::LabelMatcher::Op::kEq,
                                 std::to_string(job.job_id)}},
                               0, mini.clock()->now_ms())
                      .empty())
          << "job " << job.job_id;
      checked_short = true;
    }
  }
  EXPECT_TRUE(checked_short);
}

}  // namespace
}  // namespace ceems::apiserver
