// Quickstart: the smallest end-to-end CEEMS deployment.
//
// Builds a 7-node Jean-Zay slice from the reference YAML config, runs one
// simulated hour of batch jobs under full monitoring, and prints what every
// layer of Fig. 1 saw: scrape stats, recording-rule outputs, the units DB,
// and a per-user usage rollup.
//
//   ./quickstart [path/to/config.yaml]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/strutil.h"
#include "core/config.h"
#include "dashboard/panels.h"

using namespace ceems;

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);

  // 1. One YAML file configures every component (§II-D).
  std::string yaml = core::reference_config_yaml();
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    yaml = buffer.str();
  }
  core::LoadedConfig config = core::parse_config_text(yaml);
  config.sim.cluster_scale = 0.005;  // ~7 nodes for the quickstart

  // 2. Simulated cluster (the substrate CEEMS monitors).
  auto clock = common::make_sim_clock(1700000000000LL);  // fixed epoch
  slurm::JeanZayScale scale =
      slurm::JeanZayScale{}.scaled(config.sim.cluster_scale);
  auto gen = slurm::make_jean_zay_workload_config(scale,
                                                  config.sim.jobs_per_day);
  gen.seed = config.sim.seed;
  slurm::ClusterSim sim(clock,
                        slurm::make_jean_zay_cluster(clock, scale,
                                                     config.sim.seed),
                        gen, config.sim.seed);

  // 3. The CEEMS stack on top.
  core::CeemsStack stack(sim, config.stack);

  std::printf("CEEMS quickstart: %zu nodes, %s scrape interval\n",
              sim.cluster().node_count(),
              common::format_duration_ms(config.stack.scrape_interval_ms)
                  .c_str());

  // 4. One simulated hour. Between steps the stack scrapes and runs the
  // API updater on the intervals the YAML configures.
  sim.run_for(common::kMillisPerHour, config.sim.sim_step_ms,
              [&](common::TimestampMs) { stack.pipeline_step(); });
  stack.update_api();

  // 5. Report.
  auto scrape_stats = stack.scraper().stats();
  auto store_stats = stack.hot_store()->stats();
  std::printf("\n-- pipeline --\n");
  std::printf("scrapes: %llu (%llu failed), samples ingested: %llu\n",
              (unsigned long long)scrape_stats.scrapes_total,
              (unsigned long long)scrape_stats.scrapes_failed,
              (unsigned long long)scrape_stats.samples_ingested);
  std::printf("hot TSDB: %zu series, %zu samples (~%.1f MiB)\n",
              store_stats.num_series, store_stats.num_samples,
              store_stats.approx_bytes / 1024.0 / 1024.0);
  std::printf("jobs submitted: %llu, completed: %zu, running: %zu\n",
              (unsigned long long)sim.jobs_submitted(),
              sim.dbd().count_in_state(slurm::JobState::kCompleted),
              sim.dbd().count_in_state(slurm::JobState::kRunning));

  // Per-job power straight from the recording rules (Eq. 1 output).
  tsdb::promql::Engine engine;
  auto power = engine.eval(*stack.hot_store(),
                           "topk(5, sum by (uuid) (ceems_job_power_watts))",
                           clock->now_ms());
  std::printf("\n-- top jobs by estimated power (Eq. 1 recording rule) --\n");
  for (const auto& sample : power.vector) {
    std::printf("  job %-8s %7.1f W\n",
                std::string(*sample.labels.get("uuid")).c_str(),
                sample.value);
  }

  // Usage rollup from the units DB.
  reldb::Query query;
  query.group_by = {"user"};
  query.aggregates = {{reldb::AggFn::kCount, "", "units"},
                      {reldb::AggFn::kSum, "total_energy_joules", "joules"},
                      {reldb::AggFn::kSum, "total_emissions_grams", "gco2"}};
  query.order_by = "joules";
  query.descending = true;
  query.limit = 5;
  auto usage = stack.db().query(apiserver::kUnitsTable, query);
  std::printf("\n-- top users by energy (units DB) --\n");
  for (std::size_t i = 0; i < usage.rows.size(); ++i) {
    std::printf("  %-8s units=%-3lld energy=%-10s emissions=%s\n",
                usage.at(i, "user").as_text().c_str(),
                (long long)usage.at(i, "units").as_int(),
                dashboard::format_joules(usage.at(i, "joules").as_real())
                    .c_str(),
                dashboard::format_co2(usage.at(i, "gco2").as_real()).c_str());
  }
  std::printf("\nquickstart OK\n");
  return 0;
}
