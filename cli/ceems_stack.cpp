// ceems_stack — the whole Fig. 1 deployment in one process, paced in real
// time: a simulated cluster churns jobs while the exporters, scrapes,
// recording rules, long-term store, API server and LB all run live. Point
// curl or a browser at the printed URLs.
//
//   ceems_stack [--config FILE] [--scale 0.005] [--jobs-per-day 4000]
//               [--speedup 60]
//
// --speedup compresses simulated time: at 60, every wall second advances
// the cluster by one simulated minute (jobs actually finish while you
// watch), in steps of simulation.step. After each step the stack's
// pipeline_step() scrapes when a scrape is due and runs the API-server
// updater every ceems.updater.interval of simulated time; a failed update
// cycle is logged and redone by the next one.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli/flags.h"
#include "common/logging.h"
#include "core/config.h"
#include "dashboard/grafana_export.h"

using namespace ceems;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  cli::Flags flags(argc, argv,
                   "[--config FILE] [--scale F] [--jobs-per-day N] "
                   "[--speedup N]");
  common::set_log_level(common::LogLevel::kInfo);

  // --export-grafana DIR: write the Fig. 2 dashboard provisioning JSON
  // and exit (no stack started).
  std::string grafana_dir = flags.get("export-grafana");
  if (!grafana_dir.empty()) {
    if (!dashboard::export_grafana_dashboards(grafana_dir)) {
      std::fprintf(stderr, "failed to write dashboards to %s\n",
                   grafana_dir.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote ceems-{user,job,operator}.json to %s\n",
                 grafana_dir.c_str());
    return 0;
  }

  core::LoadedConfig config;
  std::string config_path = flags.get("config");
  if (!config_path.empty()) {
    std::ifstream in(config_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", config_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    config = core::parse_config_text(buffer.str());
  } else {
    config = core::parse_config_text(core::reference_config_yaml());
  }
  config.sim.cluster_scale =
      flags.get_double("scale", config.sim.cluster_scale);
  config.sim.jobs_per_day =
      flags.get_double("jobs-per-day", config.sim.jobs_per_day);
  int64_t speedup = flags.get_int("speedup", 60);

  auto clock = common::make_sim_clock(common::RealClock().now_ms());
  slurm::JeanZayScale scale =
      slurm::JeanZayScale{}.scaled(config.sim.cluster_scale);
  auto gen = slurm::make_jean_zay_workload_config(scale,
                                                  config.sim.jobs_per_day);
  gen.seed = config.sim.seed;
  slurm::ClusterSim sim(clock,
                        slurm::make_jean_zay_cluster(clock, scale,
                                                     config.sim.seed),
                        gen, config.sim.seed);
  core::CeemsStack stack(sim, config.stack);
  stack.start_servers();

  std::fprintf(stderr,
               "CEEMS stack up: %zu nodes, x%lld time compression\n"
               "  query (via LB):  %s/api/v1/query?query=sum(up)\n"
               "  API server:      %s/api/v1/usage?scope=user\n"
               "  (send the X-Grafana-User header; admins: admin)\n",
               sim.cluster().node_count(), (long long)speedup,
               stack.lb_url().c_str(), stack.api_url().c_str());

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  const int64_t step_ms = std::max<int64_t>(1, config.sim.sim_step_ms);
  while (!g_stop) {
    // One wall second = `speedup` simulated seconds, in step_ms sim steps.
    for (int64_t advanced = 0; advanced < speedup * 1000 && !g_stop;
         advanced += step_ms) {
      sim.step(step_ms);
      stack.pipeline_step();
    }
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  std::fprintf(stderr, "shutting down: %llu jobs churned, %zu units in DB\n",
               (unsigned long long)sim.jobs_submitted(),
               stack.db().table_size(apiserver::kUnitsTable));
  stack.stop_servers();
  return 0;
}
