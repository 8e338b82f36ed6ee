// Jean-Zay deployment scenario (paper §III, experiment E3): the full Fig. 1
// architecture over a scaled Jean-Zay cluster — heterogeneous partitions
// (Intel/AMD CPU nodes, V100/A100/H100 GPU nodes with both BMC wiring
// variants), per-node-group recording rules, hot TSDB → long-term store
// replication, API-server aggregation, and the operator's view of the
// cluster at the end.
//
//   ./jean_zay [scale=0.02] [hours=4] [jobs_per_day=3000]
#include <cstdio>
#include <cstdlib>

#include "apiserver/reports.h"
#include "common/logging.h"
#include "common/strutil.h"
#include "core/config.h"
#include "dashboard/panels.h"

using namespace ceems;

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);
  double scale_factor = argc > 1 ? std::atof(argv[1]) : 0.02;
  double hours = argc > 2 ? std::atof(argv[2]) : 4.0;
  double jobs_per_day = argc > 3 ? std::atof(argv[3]) : 3000.0;

  auto clock = common::make_sim_clock(1700000000000LL);
  slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(scale_factor);
  auto gen = slurm::make_jean_zay_workload_config(
      scale, jobs_per_day * scale_factor / 0.02);
  slurm::ClusterSim sim(clock, slurm::make_jean_zay_cluster(clock, scale, 42),
                        gen, 42);

  core::StackConfig stack_config;
  stack_config.http_exporter_count = 4;  // a few real HTTP exporters
  stack_config.include_equal_split_baseline = false;
  core::CeemsStack stack(sim, stack_config);

  std::printf("Jean-Zay slice at scale %.3f: %zu nodes "
              "(%d intel, %d amd, %d V100, %d A100, %d H100 hosts)\n",
              scale_factor, sim.cluster().node_count(), scale.intel_cpu_nodes,
              scale.amd_cpu_nodes, scale.v100_nodes, scale.a100_nodes,
              scale.h100_nodes);
  std::printf("simulating %.1f h at %.0f jobs/day...\n", hours,
              gen.jobs_per_day);

  common::TimestampMs next_update = clock->now_ms();
  sim.run_for(static_cast<int64_t>(hours * common::kMillisPerHour), 15000,
              [&](common::TimestampMs now) {
                stack.pipeline_step();
                if (now >= next_update) {
                  stack.update_api();
                  next_update = now + 60000;
                }
              });
  stack.update_api();

  // ---- operator dashboard ----
  tsdb::promql::Engine engine;
  common::TimestampMs now = clock->now_ms();
  auto scalar1 = [&](const std::string& expr) {
    auto value = engine.eval(*stack.hot_store(), expr, now);
    return value.vector.empty() ? 0.0 : value.vector[0].value;
  };

  std::printf("\n== cluster state after %.1f simulated hours ==\n", hours);
  std::printf("targets up:            %.0f / %zu\n", scalar1("sum(up)"),
              sim.cluster().node_count() + 1);
  std::printf("cluster power (IPMI):  %.1f kW\n",
              scalar1("sum(instance:ipmi_watts)") / 1000.0);
  std::printf("GPU power (DCGM):      %.1f kW\n",
              scalar1("sum(instance:gpu_watts)") / 1000.0);
  std::printf("running compute units: %.0f\n",
              scalar1("sum(ceems_compute_units)"));
  std::printf("emission factor (RTE): %.1f gCO2e/kWh\n",
              scalar1("avg(ceems_emissions_gCo2_kWh{provider=\"rte\"})"));

  auto per_group = engine.eval(
      *stack.hot_store(),
      "sum by (nodegroup) (ceems_job_power_watts)", now);
  std::printf("\n-- attributed job power by node group --\n");
  for (const auto& sample : per_group.vector) {
    std::printf("  %-10s %8.1f kW\n",
                std::string(*sample.labels.get("nodegroup")).c_str(),
                sample.value / 1000.0);
  }

  auto scrape_stats = stack.scraper().stats();
  auto hot = stack.hot_store()->stats();
  auto lt = stack.longterm()->stats();
  std::printf("\n-- storage --\n");
  std::printf("scrapes: %llu (%.3f%% failed)\n",
              (unsigned long long)scrape_stats.scrapes_total,
              scrape_stats.scrapes_total
                  ? 100.0 * scrape_stats.scrapes_failed /
                        scrape_stats.scrapes_total
                  : 0.0);
  std::printf("hot TSDB:   %8zu series %10zu samples (%.1f MiB)\n",
              hot.num_series, hot.num_samples,
              hot.approx_bytes / 1024.0 / 1024.0);
  std::printf("long-term:  %8zu series %10zu buckets (%.1f MiB)\n",
              lt.num_series, lt.num_samples, lt.approx_bytes / 1024.0 / 1024.0);

  // ---- accounting ----
  std::printf("\n-- accounting (units DB) --\n");
  std::printf("units recorded: %zu  (submitted %llu)\n",
              stack.db().table_size(apiserver::kUnitsTable),
              (unsigned long long)sim.jobs_submitted());
  reldb::Query query;
  query.group_by = {"partition"};
  query.aggregates = {{reldb::AggFn::kCount, "", "units"},
                      {reldb::AggFn::kSum, "total_energy_joules", "joules"},
                      {reldb::AggFn::kSum, "total_emissions_grams", "gco2"}};
  query.order_by = "joules";
  query.descending = true;
  auto result = stack.db().query(apiserver::kUnitsTable, query);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    std::printf("  %-8s units=%-4lld energy=%-11s emissions=%s\n",
                result.at(i, "partition").as_text().c_str(),
                (long long)result.at(i, "units").as_int(),
                dashboard::format_joules(result.at(i, "joules").as_real())
                    .c_str(),
                dashboard::format_co2(result.at(i, "gco2").as_real()).c_str());
  }

  // Operational alerts.
  auto alerts = stack.rules().active_alerts();
  std::printf("\n-- active alerts: %zu --\n", alerts.size());
  for (const auto& alert : alerts) {
    std::printf("  [%s] %s %s\n",
                alert.state == tsdb::AlertState::kFiring ? "FIRING"
                                                         : "pending",
                alert.name.c_str(), alert.labels.to_string().c_str());
  }

  // Operator analytics (§III-B): who is wasting allocation?
  std::printf("\n%s",
              apiserver::render_efficiency_report(
                  apiserver::build_efficiency_report(stack.db()), 5)
                  .c_str());

  // Daily churn figure the paper quotes for the real deployment.
  double churn_per_day = static_cast<double>(sim.jobs_submitted()) /
                         (hours / 24.0);
  std::printf("\njob churn: %.0f jobs/day at this scale "
              "(paper: thousands/day at 1400 nodes)\n",
              churn_per_day);
  std::printf("jean_zay OK\n");
  return 0;
}
