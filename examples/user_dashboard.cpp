// The three Fig. 2 dashboards (experiments E5/E6/E7), rendered through the
// REAL wire path: a Grafana-style client sends the X-Grafana-User header,
// the CEEMS LB enforces ownership before proxying PromQL to the query
// backends, and the API server serves the aggregate panels.
//
// Also demonstrates the access-control story: the same job queried as its
// owner (charts render) and as a stranger (denied by the LB).
//
//   ./user_dashboard [minutes=45]
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "core/stack.h"
#include "dashboard/ceems_dashboards.h"

using namespace ceems;

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);
  double minutes = argc > 1 ? std::atof(argv[1]) : 45.0;

  auto clock = common::make_sim_clock(1700000000000LL);
  slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(0.006);
  auto gen = slurm::make_jean_zay_workload_config(scale, 4000);
  slurm::ClusterSim sim(clock, slurm::make_jean_zay_cluster(clock, scale, 7),
                        gen, 7);
  core::CeemsStack stack(sim, {});

  common::TimestampMs start = clock->now_ms();
  sim.run_for(static_cast<int64_t>(minutes * common::kMillisPerMinute), 10000,
              [&](common::TimestampMs) { stack.pipeline_step(); });
  stack.update_api();
  stack.start_servers();

  // Pick the user with the most recorded energy.
  reldb::Query query;
  query.group_by = {"user"};
  query.aggregates = {{reldb::AggFn::kSum, "total_energy_joules", "joules"}};
  query.order_by = "joules";
  query.descending = true;
  query.limit = 1;
  auto top = stack.db().query(apiserver::kUnitsTable, query);
  if (top.rows.empty()) {
    std::printf("no units recorded — run longer\n");
    return 1;
  }
  std::string user = top.at(0, "user").as_text();

  dashboard::GrafanaClient client(stack.lb_url(), stack.api_url(), user);
  common::TimestampMs now = clock->now_ms();

  // Fig. 2a — aggregate usage stat tiles.
  std::printf("%s\n", dashboard::render_user_aggregate_dashboard(
                          client, start, now)
                          .c_str());

  // Fig. 2b — the user's compute units with aggregates.
  std::printf("%s\n",
              dashboard::render_user_job_list(client, start, now, 12).c_str());

  // Fig. 2c — time series of the user's longest-running unit.
  reldb::Query longest;
  longest.where = {{"user", reldb::Predicate::Op::kEq, reldb::Value(user)}};
  longest.order_by = "elapsed_ms";
  longest.descending = true;
  longest.limit = 1;
  auto unit_row = stack.db().query(apiserver::kUnitsTable, longest);
  std::string uuid = unit_row.at(0, "uuid").as_text();
  std::printf("%s\n", dashboard::render_job_timeseries(
                          client, uuid, now - 30 * 60000, now, 60000)
                          .c_str());

  // Access control in action: a stranger asks for the same job.
  dashboard::GrafanaClient mallory(stack.lb_url(), stack.api_url(), "mallory");
  auto denied = mallory.instant_query(
      "ceems_job_power_watts{uuid=\"" + uuid + "\"}", now);
  std::printf("-- access control --\n");
  std::printf("owner '%s' querying job %s: OK\n", user.c_str(), uuid.c_str());
  std::printf("stranger 'mallory' querying job %s: HTTP %d (%s)\n",
              uuid.c_str(), denied.http_status,
              denied.ok ? "allowed?!" : "denied by CEEMS LB");

  stack.stop_servers();
  std::printf("\nuser_dashboard OK\n");
  return denied.http_status == 403 ? 0 : 1;
}
