// Tests for the §IV-roadmap features: eBPF-style network/perf accounting,
// the collector exporting it, and the refined network-share power rule.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rules_library.h"
#include "exporter/ebpf_collector.h"
#include "node/node_sim.h"
#include "tsdb/rules.h"
#include "append_one.h"

namespace ceems {
namespace {

using common::make_sim_clock;

node::WorkloadPlacement placement_for(int64_t id, int cpus) {
  node::WorkloadPlacement placement;
  placement.job_id = id;
  placement.user = "u";
  placement.alloc_cpus = cpus;
  placement.memory_limit_bytes = 8LL << 30;
  return placement;
}

TEST(Ebpf, NodeSimAccumulatesNetworkAndPerfCounters) {
  auto clock = make_sim_clock(0);
  node::NodeSim sim(node::make_intel_cpu_node("n1"), clock, 1);
  node::WorkloadBehavior behavior;
  behavior.cpu_util_mean = 1.0;
  behavior.cpu_util_jitter = 0;
  behavior.net_tx_bytes_per_sec = 100e6;
  behavior.net_rx_bytes_per_sec = 50e6;
  behavior.instructions_per_cpu_sec = 2e9;
  behavior.flop_fraction = 0.25;
  behavior.cache_miss_rate = 0.01;
  sim.add_workload(placement_for(1, 10), behavior);
  for (int i = 0; i < 10; ++i) sim.step(1000);

  auto stats = sim.ebpf_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NEAR(static_cast<double>(stats[0].net_tx_bytes), 1e9, 1e7);
  EXPECT_NEAR(static_cast<double>(stats[0].net_rx_bytes), 5e8, 1e7);
  EXPECT_GT(stats[0].net_tx_packets, stats[0].net_rx_packets);
  // 10 cpus × 10 s × 2e9 instr/s = 2e11 instructions, 25% FLOPs.
  EXPECT_NEAR(static_cast<double>(stats[0].instructions), 2e11, 4e9);
  EXPECT_NEAR(static_cast<double>(stats[0].flops),
              static_cast<double>(stats[0].instructions) * 0.25,
              static_cast<double>(stats[0].instructions) * 0.01);
  EXPECT_NEAR(static_cast<double>(stats[0].cache_misses),
              static_cast<double>(stats[0].instructions) * 0.01,
              static_cast<double>(stats[0].instructions) * 0.001);
}

TEST(Ebpf, CountersMonotoneAndPerJob) {
  auto clock = make_sim_clock(0);
  node::NodeSim sim(node::make_intel_cpu_node("n1"), clock, 1);
  node::WorkloadBehavior chatty;
  chatty.net_tx_bytes_per_sec = 10e6;
  node::WorkloadBehavior silent;  // no network
  sim.add_workload(placement_for(1, 4), chatty);
  sim.add_workload(placement_for(2, 4), silent);

  int64_t last_tx = 0;
  for (int i = 0; i < 5; ++i) {
    sim.step(1000);
    for (const auto& stats : sim.ebpf_stats()) {
      if (stats.job_id == 1) {
        EXPECT_GT(stats.net_tx_bytes, last_tx);
        last_tx = stats.net_tx_bytes;
      } else {
        EXPECT_EQ(stats.net_tx_bytes, 0);
      }
    }
  }
}

TEST(Ebpf, CollectorExportsAllFamilies) {
  auto clock = make_sim_clock(0);
  auto sim = std::make_shared<node::NodeSim>(
      node::make_intel_cpu_node("n1"), clock, 1);
  node::WorkloadBehavior behavior;
  behavior.net_tx_bytes_per_sec = 1e6;
  sim->add_workload(placement_for(7, 4), behavior);
  sim->step(2000);

  exporter::EbpfCollector collector([sim] { return sim->ebpf_stats(); });
  auto families = collector.collect(0);
  std::set<std::string> names;
  for (const auto& family : families) names.insert(family.name);
  EXPECT_TRUE(names.count("ceems_compute_unit_network_tx_bytes_total"));
  EXPECT_TRUE(names.count("ceems_compute_unit_network_rx_bytes_total"));
  EXPECT_TRUE(names.count("ceems_compute_unit_perf_instructions_total"));
  EXPECT_TRUE(names.count("ceems_compute_unit_perf_flops_total"));
  EXPECT_TRUE(names.count("ceems_compute_unit_perf_cache_misses_total"));
  EXPECT_TRUE(names.count("node_network_transmit_bytes_total"));
  for (const auto& family : families) {
    if (family.name == "ceems_compute_unit_network_tx_bytes_total") {
      ASSERT_EQ(family.metrics.size(), 1u);
      EXPECT_EQ(*family.metrics[0].labels.get("uuid"), "7");
      EXPECT_NEAR(family.metrics[0].value, 2e6, 1e4);
    }
  }
}

// The refined network rule: traffic share decides the 10% budget instead
// of the equal split.
TEST(Ebpf, NetworkShareRuleBeatsEqualSplitForSkewedTraffic) {
  auto store = std::make_shared<tsdb::TimeSeriesStore>();
  tsdb::RuleEngine engine(store);
  for (auto& group : core::jean_zay_rule_groups()) {
    engine.add_group(std::move(group));
  }
  for (auto& group : core::ebpf_network_rules()) {
    engine.add_group(std::move(group));
  }

  auto put = [&](const std::string& name,
                 std::initializer_list<metrics::Labels::Pair> pairs,
                 common::TimestampMs t, double v) {
    append_one(*store, metrics::Labels(pairs).with_name(name), t, v);
  };
  metrics::Labels::Pair host{"hostname", "n1"};
  metrics::Labels::Pair group{"nodegroup", "amd-cpu"};
  for (int i = 0; i <= 4; ++i) {
    common::TimestampMs t = i * 30000;
    double sec = i * 30.0;
    put("ceems_ipmi_dcmi_current_watts", {host, group}, t, 500);
    put("ceems_rapl_package_joules_total", {host, group}, t, sec * 300);
    put("node_cpu_seconds_total", {host, group, {"mode", "user"}}, t,
        sec * 10);
    put("node_cpu_seconds_total", {host, group, {"mode", "idle"}}, t,
        sec * 100);
    put("node_memory_MemTotal_bytes", {host, group}, t, 100e9);
    put("node_memory_MemAvailable_bytes", {host, group}, t, 50e9);
    put("ceems_compute_units", {host, group}, t, 2);
    // Two jobs with identical CPU but wildly different network use.
    for (const char* uuid : {"1", "2"}) {
      put("ceems_compute_unit_cpu_usage_seconds_total",
          {host, group, {"uuid", uuid}, {"mode", "user"}}, t, sec * 5);
      put("ceems_compute_unit_memory_current_bytes",
          {host, group, {"uuid", uuid}}, t, 25e9);
    }
    put("ceems_compute_unit_network_tx_bytes_total",
        {host, group, {"uuid", "1"}}, t, sec * 90e6);  // MPI-heavy
    put("ceems_compute_unit_network_rx_bytes_total",
        {host, group, {"uuid", "1"}}, t, sec * 90e6);
    put("ceems_compute_unit_network_tx_bytes_total",
        {host, group, {"uuid", "2"}}, t, sec * 1e6);  // almost silent
    put("ceems_compute_unit_network_rx_bytes_total",
        {host, group, {"uuid", "2"}}, t, sec * 1e6);
  }
  auto stats = engine.evaluate_all(120000);
  EXPECT_EQ(stats.rule_failures, 0u);

  auto series = [&](const std::string& name, const std::string& uuid) {
    auto result = store->select(
        {{"__name__", metrics::LabelMatcher::Op::kEq, name},
         {"uuid", metrics::LabelMatcher::Op::kEq, uuid}},
        120000, 120000);
    return result.empty() ? std::nan("") : result[0].samples().back().v;
  };
  // Equal split gives both jobs 25 W of network budget (0.1×500/2);
  double equal_1 = series("ceems_job_power_watts", "1") -
                   series("ceems_job_power_watts_netshare", "1");
  double equal_2 = series("ceems_job_power_watts", "2") -
                   series("ceems_job_power_watts_netshare", "2");
  // the refined rule gives nearly the whole 50 W to the MPI-heavy job.
  double net_1 = series("ceems_job_net_power_watts", "1");
  double net_2 = series("ceems_job_net_power_watts", "2");
  EXPECT_NEAR(net_1 + net_2, 50.0, 0.5);
  EXPECT_GT(net_1, 48.0);
  EXPECT_LT(net_2, 2.0);
  // And the difference between the two full estimates is exactly the
  // reallocation of the network term.
  EXPECT_NEAR(equal_1, 25.0 - net_1, 0.5);
  EXPECT_NEAR(equal_2, 25.0 - net_2, 0.5);
}

}  // namespace
}  // namespace ceems
