#include "core/rules_library.h"

#include "common/strutil.h"

namespace ceems::core {

using tsdb::RecordingRule;
using tsdb::RuleGroup;

namespace {

RecordingRule rule(std::string record, std::string expr) {
  RecordingRule out;
  out.record = std::move(record);
  out.expr = std::move(expr);
  return out;
}

}  // namespace

std::vector<tsdb::RuleGroup> jean_zay_rule_groups(
    const std::string& w, const std::string& emission_provider) {
  std::vector<RuleGroup> groups;

  // ---- Instance-level building blocks (all node groups) ----
  RuleGroup instance;
  instance.name = "ceems-instance";
  instance.rules = {
      rule("instance:rapl_cpu_watts",
           "sum by (hostname, nodegroup) (rate(ceems_rapl_package_joules_total[" +
               w + "]))"),
      rule("instance:rapl_dram_watts",
           "sum by (hostname, nodegroup) (rate(ceems_rapl_dram_joules_total[" +
               w + "]))"),
      rule("instance:cpu_busy_rate",
           "sum by (hostname, nodegroup) (rate(node_cpu_seconds_total{"
           "mode!=\"idle\",mode!=\"iowait\"}[" + w + "]))"),
      rule("instance:ipmi_watts",
           "sum by (hostname, nodegroup) (ceems_ipmi_dcmi_current_watts)"),
      rule("instance:gpu_watts",
           "sum by (hostname, nodegroup) (DCGM_FI_DEV_POWER_USAGE)"),
      rule("instance:memory_used_bytes",
           "sum by (hostname, nodegroup) (node_memory_MemTotal_bytes) - "
           "sum by (hostname, nodegroup) (node_memory_MemAvailable_bytes)"),
      rule("instance:njobs",
           "sum by (hostname, nodegroup) (ceems_compute_units)"),
      rule("uuid:cpu_rate",
           "sum by (hostname, nodegroup, uuid) "
           "(rate(ceems_compute_unit_cpu_usage_seconds_total[" + w + "]))"),
      rule("uuid:memory_bytes",
           "sum by (hostname, nodegroup, uuid) "
           "(ceems_compute_unit_memory_current_bytes)"),
      // Constant-1 per compute unit, used to fan instance-level terms out
      // to units (the equal network split of Eq. 1's last term).
      rule("uuid:ones", "uuid:memory_bytes * 0 + 1"),
  };
  groups.push_back(instance);

  // ---- Per-node-group power budgets (§III-A customization) ----
  // Intel CPU nodes: full Eq. (1) — split 0.9·P_ipmi between CPU and DRAM
  // by the RAPL counter ratio.
  RuleGroup intel;
  intel.name = "ceems-group-intel";
  intel.rules = {
      rule("instance:cpu_budget_watts",
           "0.9 * instance:ipmi_watts{nodegroup=\"intel-cpu\"} * "
           "(instance:rapl_cpu_watts{nodegroup=\"intel-cpu\"} / "
           "(instance:rapl_cpu_watts{nodegroup=\"intel-cpu\"} + "
           "instance:rapl_dram_watts{nodegroup=\"intel-cpu\"}))"),
      rule("instance:dram_budget_watts",
           "0.9 * instance:ipmi_watts{nodegroup=\"intel-cpu\"} * "
           "(instance:rapl_dram_watts{nodegroup=\"intel-cpu\"} / "
           "(instance:rapl_cpu_watts{nodegroup=\"intel-cpu\"} + "
           "instance:rapl_dram_watts{nodegroup=\"intel-cpu\"}))"),
  };
  groups.push_back(intel);

  // AMD CPU nodes: no DRAM RAPL domain — the whole budget follows CPU time.
  RuleGroup amd;
  amd.name = "ceems-group-amd";
  amd.rules = {
      rule("instance:cpu_budget_watts",
           "0.9 * instance:ipmi_watts{nodegroup=\"amd-cpu\"}"),
      rule("instance:dram_budget_watts",
           "0 * instance:ipmi_watts{nodegroup=\"amd-cpu\"}"),
  };
  groups.push_back(amd);

  // GPU servers whose BMC reading includes GPU power: subtract the DCGM
  // total first, then split the host remainder by RAPL (Intel hosts).
  RuleGroup gpu_incl;
  gpu_incl.name = "ceems-group-gpu-incl";
  gpu_incl.rules = {
      rule("instance:host_watts",
           "clamp_min(instance:ipmi_watts{nodegroup=\"gpu-incl\"} - "
           "instance:gpu_watts{nodegroup=\"gpu-incl\"}, 0)"),
      rule("instance:cpu_budget_watts",
           "0.9 * instance:host_watts{nodegroup=\"gpu-incl\"} * "
           "(instance:rapl_cpu_watts{nodegroup=\"gpu-incl\"} / "
           "(instance:rapl_cpu_watts{nodegroup=\"gpu-incl\"} + "
           "instance:rapl_dram_watts{nodegroup=\"gpu-incl\"}))"),
      rule("instance:dram_budget_watts",
           "0.9 * instance:host_watts{nodegroup=\"gpu-incl\"} * "
           "(instance:rapl_dram_watts{nodegroup=\"gpu-incl\"} / "
           "(instance:rapl_cpu_watts{nodegroup=\"gpu-incl\"} + "
           "instance:rapl_dram_watts{nodegroup=\"gpu-incl\"}))"),
  };
  groups.push_back(gpu_incl);

  // GPU servers whose BMC reading excludes GPU power (AMD hosts, package
  // RAPL only): the BMC wattage is already GPU-free.
  RuleGroup gpu_excl;
  gpu_excl.name = "ceems-group-gpu-excl";
  gpu_excl.rules = {
      rule("instance:cpu_budget_watts",
           "0.9 * instance:ipmi_watts{nodegroup=\"gpu-excl\"}"),
      rule("instance:dram_budget_watts",
           "0 * instance:ipmi_watts{nodegroup=\"gpu-excl\"}"),
  };
  groups.push_back(gpu_excl);

  // ---- Per-unit attribution: Eq. (1) proper ----
  RuleGroup job;
  job.name = "ceems-job";
  job.rules = {
      // T_job / T_node and M_job / M_node shares. Clamped to [0,1]: right
      // after a job lands on an idle node the node-level rate can lag the
      // job-level one by a scrape, and unclamped ratios would explode.
      rule("uuid:cpu_share",
           "clamp(uuid:cpu_rate / on(hostname) group_left() "
           "clamp_min(instance:cpu_busy_rate, 0.001), 0, 1)"),
      rule("uuid:mem_share",
           "clamp(uuid:memory_bytes / on(hostname) group_left() "
           "clamp_min(instance:memory_used_bytes, 1), 0, 1)"),
      // First two terms of Eq. (1).
      rule("uuid:cpu_power_part",
           "uuid:cpu_share * on(hostname) group_left() "
           "instance:cpu_budget_watts"),
      rule("uuid:dram_power_part",
           "uuid:mem_share * on(hostname) group_left() "
           "instance:dram_budget_watts"),
      // Final term: 10% network budget split equally among the N_job units.
      rule("uuid:net_power_part",
           "uuid:ones * on(hostname) group_left() "
           "(0.1 * instance:ipmi_watts / clamp_min(instance:njobs, 1))"),
      rule("ceems_job_power_watts",
           "sum by (hostname, nodegroup, uuid) (uuid:cpu_power_part + "
           "uuid:dram_power_part + uuid:net_power_part)"),
  };
  groups.push_back(job);

  // ---- GPU power via the binding map (§II-A.d) ----
  RuleGroup gpu;
  gpu.name = "ceems-job-gpu";
  gpu.rules = {
      rule("uuid:gpu_power_watts",
           "ceems_compute_unit_gpu_index_flag * on(hostname, gpu_uuid) "
           "group_left() label_replace(DCGM_FI_DEV_POWER_USAGE, "
           "\"gpu_uuid\", \"$1\", \"UUID\", \"(.+)\")"),
      rule("ceems_job_gpu_power_watts",
           "sum by (hostname, nodegroup, uuid) (uuid:gpu_power_watts)"),
      rule("uuid:gpu_util_pct",
           "ceems_compute_unit_gpu_index_flag * on(hostname, gpu_uuid) "
           "group_left() label_replace(DCGM_FI_DEV_GPU_UTIL, "
           "\"gpu_uuid\", \"$1\", \"UUID\", \"(.+)\")"),
      rule("ceems_job_gpu_util",
           "avg by (hostname, nodegroup, uuid) (uuid:gpu_util_pct) / 100"),
      // AMD path: join on the device ordinal, convert µW → W.
      rule("uuid:amd_gpu_power_watts",
           "ceems_compute_unit_gpu_index_flag * on(hostname, index) "
           "group_left() (label_replace(amd_gpu_power, \"index\", \"$1\", "
           "\"gpu_id\", \"(.+)\") / 1000000)"),
      rule("ceems_job_gpu_power_watts",
           "sum by (hostname, nodegroup, uuid) (uuid:amd_gpu_power_watts)"),
  };
  groups.push_back(gpu);

  // ---- Emissions (§II-A.c): watts → gCO2e per hour ----
  RuleGroup emissions;
  emissions.name = "ceems-emissions";
  emissions.rules = {
      rule("uuid:total_power_watts",
           "ceems_job_power_watts + on(hostname, nodegroup, uuid) "
           "ceems_job_gpu_power_watts or ceems_job_power_watts"),
      rule("ceems_job_emissions_g_per_hour",
           "(uuid:total_power_watts / 1000) * on() group_left() "
           "(avg(ceems_emissions_gCo2_kWh{provider=\"" + emission_provider +
               "\"}))"),
  };
  groups.push_back(emissions);
  return groups;
}

std::vector<tsdb::RuleGroup> ebpf_network_rules(const std::string& w) {
  RuleGroup group;
  group.name = "ceems-job-net-ebpf";
  group.rules = {
      rule("uuid:net_rate",
           "sum by (hostname, nodegroup, uuid) "
           "(rate(ceems_compute_unit_network_tx_bytes_total[" + w + "])) + "
           "sum by (hostname, nodegroup, uuid) "
           "(rate(ceems_compute_unit_network_rx_bytes_total[" + w + "]))"),
      rule("instance:net_rate",
           "sum by (hostname, nodegroup) (uuid:net_rate)"),
      rule("uuid:net_share_ebpf",
           "clamp(uuid:net_rate / on(hostname) group_left() "
           "clamp_min(instance:net_rate, 1), 0, 1)"),
      rule("ceems_job_net_power_watts",
           "uuid:net_share_ebpf * on(hostname) group_left() "
           "(0.1 * instance:ipmi_watts)"),
      // Full Eq. (1) with the refined network term. Jobs with zero traffic
      // on a node with traffic get no network power (unlike equal split).
      rule("ceems_job_power_watts_netshare",
           "sum by (hostname, nodegroup, uuid) (uuid:cpu_power_part + "
           "uuid:dram_power_part + ceems_job_net_power_watts or "
           "uuid:cpu_power_part + uuid:dram_power_part)"),
  };
  return {group};
}

std::vector<tsdb::RuleGroup> ceems_alert_rules(
    double node_power_ceiling_watts) {
  using tsdb::AlertingRule;
  RuleGroup group;
  group.name = "ceems-alerts";

  AlertingRule node_down;
  node_down.alert = "CeemsExporterDown";
  node_down.expr = "up == 0";
  node_down.for_ms = 2 * common::kMillisPerMinute;
  node_down.static_labels = {{"severity", "critical"}};
  group.alerts.push_back(node_down);

  AlertingRule power_anomaly;
  power_anomaly.alert = "NodePowerAnomalous";
  power_anomaly.expr = "instance:ipmi_watts > " +
                       common::format_double(node_power_ceiling_watts);
  power_anomaly.for_ms = 5 * common::kMillisPerMinute;
  power_anomaly.static_labels = {{"severity", "warning"}};
  group.alerts.push_back(power_anomaly);

  AlertingRule emissions_stale;
  emissions_stale.alert = "EmissionFactorMissing";
  emissions_stale.expr = "absent(ceems_emissions_gCo2_kWh)";
  emissions_stale.for_ms = 10 * common::kMillisPerMinute;
  emissions_stale.static_labels = {{"severity", "warning"}};
  group.alerts.push_back(emissions_stale);

  AlertingRule slow_scrape;
  slow_scrape.alert = "ScrapeSlow";
  slow_scrape.expr = "scrape_duration_seconds > 5";
  slow_scrape.for_ms = 2 * common::kMillisPerMinute;
  slow_scrape.static_labels = {{"severity", "info"}};
  group.alerts.push_back(slow_scrape);
  return {group};
}

std::vector<tsdb::RuleGroup> equal_split_baseline_rules(
    const std::string& /*rate_window*/) {
  RuleGroup group;
  group.name = "baseline-equal-split";
  group.rules = {
      // Whole node power divided equally among resident units — the naive
      // estimator CEEMS improves on (E2 ablation).
      rule("uuid:node_power_equal",
           "uuid:ones * on(hostname) group_left() "
           "(instance:ipmi_watts / clamp_min(instance:njobs, 1))"),
      rule("ceems_job_power_watts_equalsplit",
           "sum by (hostname, nodegroup, uuid) (uuid:node_power_equal)"),
  };
  return {group};
}

}  // namespace ceems::core
