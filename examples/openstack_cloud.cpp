// Resource-manager agnosticism (the paper's title claim, §IV future work):
// the same API server + unified units schema serving BOTH a SLURM cluster
// and an Openstack cloud, with per-manager rows distinguishable only by
// the resource_manager column.
//
// The Openstack side is fed through the OpenstackAdapter (Nova-style VM
// lifecycle events); the SLURM side runs the usual simulated batch cluster.
#include <cstdio>

#include "common/logging.h"
#include "core/stack.h"

using namespace ceems;

int main() {
  common::set_log_level(common::LogLevel::kError);
  auto clock = common::make_sim_clock(1700000000000LL);

  // --- SLURM side: a small batch cluster under full monitoring ---
  slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(0.004);
  auto gen = slurm::make_jean_zay_workload_config(scale, 3000);
  slurm::ClusterSim sim(clock, slurm::make_jean_zay_cluster(clock, scale, 9),
                        gen, 9);
  core::CeemsStack stack(sim, {});

  // --- Openstack side: VM lifecycle events into the same DB ---
  auto nova = std::make_shared<apiserver::OpenstackAdapter>("cloud-west");
  apiserver::UpdaterConfig updater_config;
  apiserver::Updater cloud_updater(
      stack.db(), stack.longterm(), nullptr,
      {std::static_pointer_cast<apiserver::ResourceManagerAdapter>(nova)},
      clock, updater_config);

  common::TimestampMs t0 = clock->now_ms();
  nova->report_vm("vm-web-1", "carol", "cloudprj", 8, 16LL << 30, "ACTIVE",
                  t0, t0 + 60000, 0);
  nova->report_vm("vm-db-1", "carol", "cloudprj", 16, 64LL << 30, "ACTIVE",
                  t0, t0 + 120000, 0);
  nova->report_vm("vm-batch-1", "dave", "cloudprj", 32, 128LL << 30,
                  "SHUTOFF", t0, t0 + 60000, t0 + 30 * 60000);

  // pipeline_step() runs the stack's SLURM updater; the Openstack updater
  // keeps its own timer on the same interval and runs right after it.
  common::TimestampMs next_update = t0;
  sim.run_for(40 * common::kMillisPerMinute, 15000,
              [&](common::TimestampMs now) {
                stack.pipeline_step();
                if (now >= next_update) {
                  cloud_updater.update_once();
                  next_update = now + updater_config.interval_ms;
                }
              });
  stack.update_api();
  cloud_updater.update_once();

  // --- one schema, two managers ---
  reldb::Query query;
  query.group_by = {"resource_manager"};
  query.aggregates = {{reldb::AggFn::kCount, "", "units"},
                      {reldb::AggFn::kSum, "num_cpus", "cpus"}};
  auto by_manager = stack.db().query(apiserver::kUnitsTable, query);
  std::printf("== one units table, several resource managers ==\n");
  for (std::size_t i = 0; i < by_manager.rows.size(); ++i) {
    std::printf("  %-10s units=%-4lld cpus=%lld\n",
                by_manager.at(i, "resource_manager").as_text().c_str(),
                (long long)by_manager.at(i, "units").as_int(),
                (long long)by_manager.at(i, "cpus").as_int());
  }

  // Per-manager drill-down via the same query machinery.
  reldb::Query vms;
  vms.where = {{"resource_manager", reldb::Predicate::Op::kEq,
                reldb::Value("openstack")}};
  auto result = stack.db().query(apiserver::kUnitsTable, vms);
  std::printf("\n-- openstack units --\n");
  for (const auto& row : result.rows) {
    auto unit = apiserver::unit_from_row(row);
    std::printf("  %-10s user=%-6s vcpus=%-3lld state=%s\n",
                unit.uuid.c_str(), unit.user.c_str(),
                (long long)unit.num_cpus, unit.state.c_str());
  }

  bool ok = by_manager.rows.size() == 2 && result.rows.size() == 3;
  std::printf("\nopenstack_cloud %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
