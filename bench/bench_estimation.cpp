// E2 — accuracy of the paper's Eq. (1) energy attribution, measured
// against the simulator's causal ground truth, with the naive equal-split
// estimator as the ablation baseline (DESIGN.md §4.2).
//
// The paper asserts the CPU-time-proportional model "stays a very good
// approximation" without being able to quantify it (no per-job ground
// truth exists on real hardware). The simulator knows the truth, so this
// bench regenerates the claim as a table:
//
//   cluster load | jobs | Eq.1 median ratio / p90 | equal-split median / p90
//
// Expected shape: Eq. 1 ratios sit above 1 (it deliberately charges jobs
// their share of the node's idle burn, which causal ground truth does
// not), with a tight spread; equal-split is strictly worse at every load
// and its tail explodes as churn rises, since it ignores per-job activity
// entirely. Also measured: the recording-rule evaluation cost per sweep
// (the price of rule-based extensibility).
#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/strutil.h"

#include <algorithm>
#include <cstdio>

#include "core/stack.h"

using namespace ceems;

namespace {

struct AccuracyRow {
  double jobs_per_day;
  int jobs_compared = 0;
  double eq1_median = 0, eq1_p90 = 0;
  double equal_median = 0, equal_p90 = 0;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

AccuracyRow run_accuracy(double jobs_per_day, uint64_t seed) {
  auto clock = common::make_sim_clock(1700000000000LL);
  slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(0.006);
  auto gen = slurm::make_jean_zay_workload_config(scale, jobs_per_day);
  gen.seed = seed;
  slurm::ClusterSim sim(clock, slurm::make_jean_zay_cluster(clock, scale, seed),
                        gen, seed);
  core::StackConfig config;
  config.include_equal_split_baseline = true;
  core::CeemsStack stack(sim, config);

  // Equal-split energies are accumulated directly from the baseline rule
  // series, integrating avg power × window on the updater's interval like
  // the updater does.
  std::map<std::string, double> equal_energy;
  tsdb::promql::Engine engine;
  common::TimestampMs next_update = clock->now_ms();
  common::TimestampMs last_equal = clock->now_ms();
  sim.run_for(3 * common::kMillisPerHour, 15000, [&](common::TimestampMs now) {
    stack.pipeline_step();
    if (now >= next_update) {
      next_update = now + config.updater.interval_ms;
      double window_sec = static_cast<double>(now - last_equal) / 1000.0;
      try {
        auto value = engine.eval(
            *stack.hot_store(),
            "sum by (uuid) (avg_over_time(ceems_job_power_watts_equalsplit[" +
                common::format_duration_ms(now - last_equal) + "]))",
            now);
        for (const auto& sample : value.vector) {
          equal_energy[std::string(*sample.labels.get("uuid"))] +=
              sample.value * window_sec;
        }
      } catch (const std::exception&) {
      }
      last_equal = now;
    }
  });
  stack.update_api();

  AccuracyRow row;
  row.jobs_per_day = jobs_per_day;
  std::vector<double> eq1_ratios, equal_ratios;
  for (const auto& job : sim.dbd().all_jobs()) {
    if (!job.finished() || job.hostnames.size() != 1) continue;
    if (job.end_time_ms - job.start_time_ms < 15 * 60 * 1000) continue;
    auto unit_row = stack.db().get(apiserver::kUnitsTable,
                                   reldb::Value(std::to_string(job.job_id)));
    if (!unit_row) continue;
    auto unit = apiserver::unit_from_row(*unit_row);
    if (unit.total_energy_joules <= 0) continue;
    auto truth = sim.cluster().node(job.hostnames[0])
                     ->job_energy_truth(job.job_id);
    if (truth.total_j() <= 0) continue;
    eq1_ratios.push_back(unit.total_energy_joules / truth.total_j());
    auto equal_it = equal_energy.find(unit.uuid);
    if (equal_it != equal_energy.end() && equal_it->second > 0) {
      equal_ratios.push_back(equal_it->second / truth.total_j());
    }
  }
  row.jobs_compared = static_cast<int>(eq1_ratios.size());
  row.eq1_median = percentile(eq1_ratios, 0.5);
  row.eq1_p90 = percentile(eq1_ratios, 0.9);
  row.equal_median = percentile(equal_ratios, 0.5);
  row.equal_p90 = percentile(equal_ratios, 0.9);
  return row;
}

void BM_rule_sweep(benchmark::State& state) {
  // Cost of one full recording-rule evaluation over a populated store.
  auto clock = common::make_sim_clock(1700000000000LL);
  slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(0.01);
  auto gen = slurm::make_jean_zay_workload_config(scale, 3000);
  slurm::ClusterSim sim(clock, slurm::make_jean_zay_cluster(clock, scale, 1),
                        gen, 1);
  core::CeemsStack stack(sim, {});
  sim.run_for(20 * common::kMillisPerMinute, 15000,
              [&](common::TimestampMs) { stack.pipeline_step(); });
  for (auto _ : state) {
    auto stats = stack.rules().evaluate_all(clock->now_ms());
    benchmark::DoNotOptimize(stats);
  }
  state.counters["nodes"] =
      static_cast<double>(sim.cluster().node_count());
}
BENCHMARK(BM_rule_sweep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf("\nE2 — per-job energy estimate / ground-truth ratio "
              "(3 simulated hours, ~9-node cluster)\n");
  std::printf("%-14s %6s | %-21s | %-21s\n", "load (jobs/d)", "jobs",
              "Eq.1  median    p90", "equal-split med  p90");
  for (double jobs_per_day : {800.0, 3000.0, 9000.0}) {
    AccuracyRow row = run_accuracy(jobs_per_day, 42);
    std::printf("%-14.0f %6d |    %6.2f  %6.2f     |     %6.2f  %6.2f\n",
                row.jobs_per_day, row.jobs_compared, row.eq1_median,
                row.eq1_p90, row.equal_median, row.equal_p90);
  }
  std::printf("\nratio 1.0 = estimate equals causal ground truth. Eq. 1 "
              "over-charges idle burn by design\nbut tracks per-job "
              "activity; equal-split ignores activity, and its tail "
              "(p90)\ndegenerates as churn rises.\n");
  return 0;
}
