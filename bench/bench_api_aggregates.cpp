// E8 — why the CEEMS API server exists (§II-B.b): "Although Prometheus is
// a highly performant TSDB, it is not suitable to make queries that span a
// long duration. An example ... the total energy usage of a given user ...
// during the last year."
//
// Regenerates that comparison: answering "total energy of user X over the
// whole retention window" by
//   (a) a long-range PromQL query over the raw long-term store, vs
//   (b) one indexed lookup + GROUP BY on the API server's units DB.
//
// Expected shape: the DB path is orders of magnitude faster and flat in
// the time-range length, while the raw-TSDB path grows with range; exactly
// the trade the paper built the API server for.
#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/strutil.h"

#include <cstdio>

#include "core/stack.h"

using namespace ceems;

namespace {

struct World {
  std::shared_ptr<common::SimClock> clock;
  std::unique_ptr<slurm::ClusterSim> sim;
  std::unique_ptr<core::CeemsStack> stack;
  std::string busy_user;
  common::TimestampMs start = 0;
};

// One long simulated window with full monitoring. Built once, shared by
// all benchmarks (expensive).
World& world() {
  static World w = [] {
    World built;
    built.clock = common::make_sim_clock(1700000000000LL);
    built.start = built.clock->now_ms();
    slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(0.005);
    auto gen = slurm::make_jean_zay_workload_config(scale, 4000);
    built.sim = std::make_unique<slurm::ClusterSim>(
        built.clock, slurm::make_jean_zay_cluster(built.clock, scale, 42),
        gen, 42);
    core::StackConfig config;
    // Keep everything raw in the long-term store so the PromQL side pays
    // the full cost the paper describes.
    config.longterm.downsample_after_ms = 365LL * common::kMillisPerDay;
    config.updater.interval_ms = 2 * common::kMillisPerMinute;
    built.stack = std::make_unique<core::CeemsStack>(*built.sim, config);
    built.sim->run_for(8 * common::kMillisPerHour, 30000,
                       [&](common::TimestampMs) {
                         built.stack->pipeline_step();
                       });
    built.stack->update_api();

    reldb::Query query;
    query.group_by = {"user"};
    query.aggregates = {{reldb::AggFn::kSum, "total_energy_joules", "j"}};
    query.order_by = "j";
    query.descending = true;
    query.limit = 1;
    auto top = built.stack->db().query(apiserver::kUnitsTable, query);
    built.busy_user = top.rows.empty() ? "user0" : top.at(0, "user").as_text();
    return built;
  }();
  return w;
}

void BM_raw_promql_long_range(benchmark::State& state) {
  World& w = world();
  // Total attributed energy over the last `range_hours`: integrate job
  // power via avg_over_time × duration (a single long-range query).
  int64_t range_ms = state.range(0) * common::kMillisPerHour;
  tsdb::promql::Engine engine;
  std::string query = "sum(avg_over_time(ceems_job_power_watts[" +
                      common::format_duration_ms(range_ms) + "]))";
  auto expr = tsdb::promql::parse(query);
  for (auto _ : state) {
    auto value = engine.eval(*w.stack->longterm(), expr, w.clock->now_ms());
    benchmark::DoNotOptimize(value);
  }
  state.counters["range_hours"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_raw_promql_long_range)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8);

void BM_downsampled_long_range(benchmark::State& state) {
  // Thanos-style downsampling ablation: the same 8 h query against a
  // long-term store compacted to 5-minute resolution. Downsampling cuts
  // the held samples ~9x; query CPU improves moderately (the engine only
  // reads the matching series), the dominant win is storage/retention.
  World& w = world();
  static std::shared_ptr<tsdb::LongTermStore> compacted = [] {
    tsdb::LongTermConfig config;
    config.downsample_after_ms = 0;  // everything eligible immediately
    config.levels = {{5 * common::kMillisPerMinute, 0}};
    // Compaction purges the store it reads through, so it reads through
    // a copy of the stack's hot store, not the one other benchmarks use.
    auto hot = std::make_shared<tsdb::TimeSeriesStore>();
    hot->restore_from_bytes(world().stack->hot_store()->snapshot_bytes());
    auto store = std::make_shared<tsdb::LongTermStore>(hot, config);
    store->sync_from(*hot);
    store->compact(world().clock->now_ms() + 1);
    return store;
  }();
  tsdb::promql::Engine engine;
  auto expr = tsdb::promql::parse(
      "sum(avg_over_time(ceems_job_power_watts[8h]))");
  for (auto _ : state) {
    auto value = engine.eval(*compacted, expr, w.clock->now_ms());
    benchmark::DoNotOptimize(value);
  }
  state.counters["samples"] =
      static_cast<double>(compacted->stats().num_samples);
}
BENCHMARK(BM_downsampled_long_range)->Unit(benchmark::kMillisecond);

void BM_api_db_aggregate(benchmark::State& state) {
  World& w = world();
  reldb::Query query;
  query.where = {{"user", reldb::Predicate::Op::kEq,
                  reldb::Value(w.busy_user)}};
  query.group_by = {"user"};
  query.aggregates = {
      {reldb::AggFn::kSum, "total_energy_joules", "joules"},
      {reldb::AggFn::kSum, "total_emissions_grams", "gco2"},
      {reldb::AggFn::kCount, "", "units"}};
  for (auto _ : state) {
    auto result = w.stack->db().query(apiserver::kUnitsTable, query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_api_db_aggregate)->Unit(benchmark::kMicrosecond);

void BM_api_http_roundtrip(benchmark::State& state) {
  World& w = world();
  w.stack->start_servers();
  http::Client client;
  http::HeaderMap headers;
  headers["X-Grafana-User"] = "admin";
  std::string url = w.stack->api_url() + "/api/v1/usage?scope=user";
  for (auto _ : state) {
    auto result = client.get(url, headers);
    if (!result.ok || result.response.status != 200) {
      state.SkipWithError("api request failed");
      break;
    }
    benchmark::DoNotOptimize(result.response.body);
  }
}
BENCHMARK(BM_api_http_roundtrip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  World& w = world();
  auto stats = w.stack->longterm()->stats();
  std::printf("\nE8 context: long-term store held %zu series / %zu samples; "
              "units DB held %zu rows.\nThe DB aggregate answers the "
              "\"user's total energy\" question without touching any of "
              "them.\n",
              stats.num_series, stats.num_samples,
              w.stack->db().table_size(apiserver::kUnitsTable));
  return 0;
}
