// E10 — cardinality control (§II-C: "It is possible to configure the CEEMS
// API server to clean up TSDB by removing metrics of workloads that did
// not last more than the configured cutoff time. This helps in reducing
// the cardinality of metrics.").
//
// Runs the identical workload twice — cleanup off vs cleanup on (10-minute
// cutoff) — and reports hot-TSDB series/sample counts plus the query-time
// benefit on a matcher that must consider every series.
//
// Expected shape: with a heavy short-job mix, cleanup removes a large
// fraction of per-job series (roughly the short-job share of all jobs),
// and full-scan-ish queries get proportionally cheaper.
#include <benchmark/benchmark.h>

#include "common/logging.h"

#include <cstdio>

#include "core/stack.h"

using namespace ceems;

namespace {

struct Outcome {
  tsdb::StorageStats stats;
  std::size_t jobs_total = 0;
  std::size_t jobs_short = 0;
};

Outcome run_world(int64_t cutoff_ms, uint64_t seed,
                  std::unique_ptr<core::CeemsStack>* keep_stack = nullptr,
                  std::unique_ptr<slurm::ClusterSim>* keep_sim = nullptr,
                  std::shared_ptr<common::SimClock>* keep_clock = nullptr) {
  auto clock = common::make_sim_clock(1700000000000LL);
  slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(0.005);
  auto gen = slurm::make_jean_zay_workload_config(scale, 12000);
  gen.seed = seed;
  auto sim = std::make_unique<slurm::ClusterSim>(
      clock, slurm::make_jean_zay_cluster(clock, scale, seed), gen, seed);
  core::StackConfig config;
  config.updater.small_unit_cutoff_ms = cutoff_ms;
  auto stack = std::make_unique<core::CeemsStack>(*sim, config);

  sim->run_for(3 * common::kMillisPerHour, 30000,
               [&](common::TimestampMs) { stack->pipeline_step(); });
  stack->update_api();

  Outcome outcome;
  outcome.stats = stack->hot_store()->stats();
  for (const auto& job : sim->dbd().all_jobs()) {
    if (job.start_time_ms == 0 || !job.finished()) continue;
    ++outcome.jobs_total;
    if (job.end_time_ms - job.start_time_ms < 10 * common::kMillisPerMinute) {
      ++outcome.jobs_short;
    }
  }
  if (keep_stack) *keep_stack = std::move(stack);
  if (keep_sim) *keep_sim = std::move(sim);
  if (keep_clock) *keep_clock = clock;
  return outcome;
}

void BM_regex_query_no_cleanup(benchmark::State& state) {
  std::unique_ptr<core::CeemsStack> stack;
  std::unique_ptr<slurm::ClusterSim> sim;
  std::shared_ptr<common::SimClock> clock;
  run_world(0, 42, &stack, &sim, &clock);
  for (auto _ : state) {
    // Regex matchers bypass the equality index: cost scales with series
    // cardinality, the situation the paper's cleanup targets.
    auto result = stack->hot_store()->select(
        {{"uuid", metrics::LabelMatcher::Op::kRegexMatch, "1\\d\\d\\d"}}, 0,
        clock->now_ms());
    benchmark::DoNotOptimize(result);
  }
  state.counters["series"] =
      static_cast<double>(stack->hot_store()->stats().num_series);
}
BENCHMARK(BM_regex_query_no_cleanup)->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_regex_query_with_cleanup(benchmark::State& state) {
  std::unique_ptr<core::CeemsStack> stack;
  std::unique_ptr<slurm::ClusterSim> sim;
  std::shared_ptr<common::SimClock> clock;
  run_world(10 * common::kMillisPerMinute, 42, &stack, &sim, &clock);
  for (auto _ : state) {
    auto result = stack->hot_store()->select(
        {{"uuid", metrics::LabelMatcher::Op::kRegexMatch, "1\\d\\d\\d"}}, 0,
        clock->now_ms());
    benchmark::DoNotOptimize(result);
  }
  state.counters["series"] =
      static_cast<double>(stack->hot_store()->stats().num_series);
}
BENCHMARK(BM_regex_query_with_cleanup)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

}  // namespace

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf("\nE10 — identical 3h workload (12k jobs/day nominal), hot "
              "TSDB after run\n");
  Outcome off = run_world(0, 42);
  Outcome on = run_world(10 * common::kMillisPerMinute, 42);
  std::printf("%-22s %10s %12s %10s\n", "cleanup", "series", "samples",
              "MiB");
  std::printf("%-22s %10zu %12zu %10.1f\n", "off", off.stats.num_series,
              off.stats.num_samples, off.stats.approx_bytes / 1048576.0);
  std::printf("%-22s %10zu %12zu %10.1f\n", "on (10m cutoff)",
              on.stats.num_series, on.stats.num_samples,
              on.stats.approx_bytes / 1048576.0);
  std::printf("\nshort jobs (<10m): %zu of %zu finished (%.0f%%); cleanup "
              "cut series by %.0f%%\n",
              off.jobs_short, off.jobs_total,
              100.0 * static_cast<double>(off.jobs_short) /
                  std::max<std::size_t>(1, off.jobs_total),
              100.0 * (1.0 - static_cast<double>(on.stats.num_series) /
                                 static_cast<double>(off.stats.num_series)));
  return 0;
}
