// The canonical recording rules of the Jean-Zay deployment (§III-A): the
// paper's Eq. (1) and its per-node-group variants, written as PromQL
// recording rules — NOT hard-coded estimation — to reproduce the
// extensibility claim (operators customize energy estimation per hardware
// group purely in rule files; see etc/prometheus in the CEEMS repo).
//
// Node groups, selected by the `nodegroup` scrape label:
//   intel-cpu  RAPL package+dram → full Eq. (1)
//   amd-cpu    RAPL package only → whole 0.9·P_ipmi budget follows CPU time
//   gpu-incl   BMC reading includes GPU power → host budget is
//              0.9·(P_ipmi − ΣP_gpu); GPU power attributed via the binding
//              map
//   gpu-excl   BMC reading excludes GPU power → host budget is 0.9·P_ipmi
//
// Rule outputs consumed downstream:
//   ceems_job_power_watts      per (hostname, uuid): CPU+DRAM+network share
//   ceems_job_gpu_power_watts  per (hostname, uuid): bound-GPU power
//   ceems_job_gpu_util         per (hostname, uuid): mean bound-GPU util 0..1
//   ceems_job_emissions_g_per_hour
#pragma once

#include <vector>

#include "tsdb/rules.h"

namespace ceems::core {

// `rate_window` must cover >= 2 scrape intervals.
std::vector<tsdb::RuleGroup> jean_zay_rule_groups(
    const std::string& rate_window = "2m",
    const std::string& emission_provider = "rte");

// Baseline estimator for the E2 ablation: node power divided equally among
// the jobs on the node, ignoring per-job activity (what you get without
// CEEMS' CPU-time weighting). Produces ceems_job_power_watts_equalsplit.
std::vector<tsdb::RuleGroup> equal_split_baseline_rules(
    const std::string& rate_window = "2m");

// §IV-roadmap refinement: once the eBPF collector exports per-unit network
// traffic, the 10% network budget of Eq. (1) can follow actual bytes
// instead of being split equally among resident jobs. Produces
// ceems_job_net_power_watts (the refined last term) and
// ceems_job_power_watts_netshare (full Eq. 1 with the refined term).
// Requires jean_zay_rule_groups to be loaded first (reuses its budgets).
std::vector<tsdb::RuleGroup> ebpf_network_rules(
    const std::string& rate_window = "2m");

// Operational alerts a CEEMS deployment runs alongside the recording
// rules: dead exporters, implausible BMC power readings, missing emission
// data. Surfaced via RuleEngine::active_alerts() and the ALERTS series.
std::vector<tsdb::RuleGroup> ceems_alert_rules(
    double node_power_ceiling_watts = 5000);

}  // namespace ceems::core
