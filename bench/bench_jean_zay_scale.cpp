// E4 — Jean-Zay scale (paper §III: "capable of monitoring more than 1400
// nodes that have a daily job churn rate of around [thousands]").
//
// Measures the cost of one full monitoring sweep — scrape every node's
// exporter, ingest, evaluate all recording rules — as the node count grows
// toward the paper's 1400, plus the API-server update cycle. Exporters use
// the local transport (identical parse path, no sockets) so a single
// process can host the whole cluster; E1/bench_lb cover per-request HTTP
// costs.
//
// Expected shape: sweep time linear in node count, with a 1400-node sweep
// costing low single-digit seconds — far under the 30 s scrape interval,
// i.e. the paper's deployment size has comfortable headroom.
#include <benchmark/benchmark.h>

#include "common/logging.h"

#include <cstdio>

#include "core/stack.h"

using namespace ceems;

namespace {

struct Deployment {
  std::shared_ptr<common::SimClock> clock;
  std::unique_ptr<slurm::ClusterSim> sim;
  std::unique_ptr<core::CeemsStack> stack;
};

Deployment make_deployment(double scale_factor, double jobs_per_day) {
  Deployment d;
  d.clock = common::make_sim_clock(1700000000000LL);
  slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(scale_factor);
  auto gen = slurm::make_jean_zay_workload_config(scale, jobs_per_day);
  d.sim = std::make_unique<slurm::ClusterSim>(
      d.clock, slurm::make_jean_zay_cluster(d.clock, scale, 42), gen, 42);
  core::StackConfig config;
  config.http_exporter_count = 0;
  d.stack = std::make_unique<core::CeemsStack>(*d.sim, config);
  // Warm up: populate jobs and two scrape generations so rate() works.
  d.sim->run_for(2 * common::kMillisPerMinute, 30000,
                 [&](common::TimestampMs) {
                   d.stack->pipeline_step_forced();
                 });
  return d;
}

void BM_full_sweep(benchmark::State& state) {
  double scale_factor = static_cast<double>(state.range(0)) / 1400.0;
  Deployment d = make_deployment(scale_factor, 3000.0 * scale_factor / 0.02);
  for (auto _ : state) {
    // One monitoring generation: sim step + scrape + rules + replication.
    d.sim->step(30000);
    d.stack->pipeline_step_forced();
  }
  state.counters["nodes"] = static_cast<double>(d.sim->cluster().node_count());
  state.counters["series"] =
      static_cast<double>(d.stack->hot_store()->stats().num_series);
  state.counters["samples_per_sweep"] = benchmark::Counter(
      static_cast<double>(d.stack->scraper().stats().samples_ingested) /
          static_cast<double>(d.stack->scraper().stats().scrapes_total) *
          static_cast<double>(d.sim->cluster().node_count()),
      benchmark::Counter::kDefaults);
}
BENCHMARK(BM_full_sweep)
    ->Unit(benchmark::kMillisecond)
    ->Arg(35)    // 2.5% slice
    ->Arg(140)   // 10%
    ->Arg(350)   // 25%
    ->Arg(700)   // 50%
    ->Arg(1400)  // the paper's deployment
    ->Iterations(4)
    ->MeasureProcessCPUTime();

void BM_api_update_cycle(benchmark::State& state) {
  double scale_factor = static_cast<double>(state.range(0)) / 1400.0;
  Deployment d = make_deployment(scale_factor, 6000.0 * scale_factor / 0.02);
  // Accumulate 10 minutes of running jobs first; the 30 s steps equal the
  // scrape interval, so every step scrapes.
  d.sim->run_for(10 * common::kMillisPerMinute, 30000,
                 [&](common::TimestampMs) { d.stack->pipeline_step(); });
  for (auto _ : state) {
    d.sim->step(30000);
    d.stack->pipeline_step_forced();
    d.sim->step(30000);
    d.stack->pipeline_step_forced();
    auto stats = d.stack->update_api();
    benchmark::DoNotOptimize(stats);
  }
  state.counters["nodes"] = static_cast<double>(d.sim->cluster().node_count());
  state.counters["units"] = static_cast<double>(
      d.stack->db().table_size(apiserver::kUnitsTable));
}
BENCHMARK(BM_api_update_cycle)
    ->Unit(benchmark::kMillisecond)
    ->Arg(35)
    ->Arg(140)
    ->Arg(350)
    ->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\nE4: a sweep is one 30s scrape generation for the whole "
              "cluster; headroom = 30s / sweep time.\n");
  return 0;
}
