#include <gtest/gtest.h>

#include "common/strutil.h"
#include "node/node_sim.h"

namespace ceems::node {
namespace {

using common::make_sim_clock;

// ---------- power model ----------

TEST(PowerModel, IdleNodeDrawsIdlePower) {
  PowerModel model(make_intel_cpu_node("n1"));
  PowerBreakdown power = model.node_power({});
  EXPECT_DOUBLE_EQ(power.cpu_pkg_w, model.spec().cpu_idle_w());
  EXPECT_GT(power.ipmi_w, power.node_dc_w);  // PSU overhead applied
}

TEST(PowerModel, FullLoadApproachesTdp) {
  NodeSpec spec = make_intel_cpu_node("n1");
  PowerModel model(spec);
  WorkloadUsage usage;
  usage.job_id = 1;
  usage.alloc_cpus = spec.total_cpus();
  usage.cpu_util = 1.0;
  PowerBreakdown power = model.node_power({usage});
  EXPECT_NEAR(power.cpu_pkg_w, spec.cpu_tdp_w(), 1e-6);
}

TEST(PowerModel, MonotoneInUtilization) {
  PowerModel model(make_amd_cpu_node("n1"));
  double last = 0;
  for (double util : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    WorkloadUsage usage;
    usage.job_id = 1;
    usage.alloc_cpus = model.spec().total_cpus();
    usage.cpu_util = util;
    double watts = model.node_power({usage}).cpu_pkg_w;
    EXPECT_GE(watts, last);
    last = watts;
  }
}

TEST(PowerModel, IpmiExcludesGpusOnSecondServerType) {
  NodeSpec incl = make_v100_node("v");
  NodeSpec excl = make_a100_node("a");
  ASSERT_TRUE(incl.ipmi_includes_gpu);
  ASSERT_FALSE(excl.ipmi_includes_gpu);

  PowerModel model_incl(incl), model_excl(excl);
  PowerBreakdown p_incl = model_incl.node_power({});
  PowerBreakdown p_excl = model_excl.node_power({});
  // incl: IPMI covers GPU idle draw; excl: it does not.
  EXPECT_NEAR(p_incl.ipmi_w,
              p_incl.node_dc_w * incl.psu_overhead_factor, 1e-9);
  EXPECT_NEAR(p_excl.ipmi_w,
              (p_excl.node_dc_w - p_excl.gpus_w) * excl.psu_overhead_factor,
              1e-9);
}

TEST(PowerModel, AttributionConservesPower) {
  NodeSpec spec = make_v100_node("n1");
  PowerModel model(spec);
  std::vector<WorkloadUsage> usages;
  for (int i = 0; i < 3; ++i) {
    WorkloadUsage usage;
    usage.job_id = i + 1;
    usage.alloc_cpus = 10;
    usage.cpu_util = 0.3 + 0.2 * i;
    usage.memory_bytes = (20LL + 10 * i) << 30;
    usage.memory_activity = 0.5;
    if (i == 0) {
      usage.gpu_ordinals = {0, 1};
      usage.gpu_util = 0.9;
    }
    usages.push_back(usage);
  }
  PowerBreakdown total = model.node_power(usages);
  double attributed = 0;
  for (const auto& truth : model.attribute(usages)) {
    attributed += truth.total_w();
  }
  // Attributed power ≈ node power minus unbound-GPU idle draw (2 of 4
  // bound) — conservation within 2%.
  double unbound_gpu_idle = 2 * spec.gpus[0].idle_power_w;
  EXPECT_NEAR(attributed, total.node_dc_w - unbound_gpu_idle,
              0.02 * total.node_dc_w);
}

TEST(PowerModel, GpuJobOwnsItsGpuPower) {
  NodeSpec spec = make_a100_node("n1");
  PowerModel model(spec);
  WorkloadUsage usage;
  usage.job_id = 1;
  usage.alloc_cpus = 16;
  usage.cpu_util = 0.5;
  usage.gpu_ordinals = {0};
  usage.gpu_util = 1.0;
  auto truths = model.attribute({usage});
  ASSERT_EQ(truths.size(), 1u);
  EXPECT_NEAR(truths[0].gpu_w, spec.gpus[0].max_power_w, 1e-9);
}

// ---------- RAPL ----------

TEST(Rapl, CountersAccumulateEnergy) {
  auto fs = std::make_shared<simfs::PseudoFs>();
  NodeSpec spec = make_intel_cpu_node("n1");
  RaplBank bank(fs, spec);
  bank.integrate(/*pkg_w=*/200, /*dram_w=*/50, /*dt_ms=*/1000);

  auto readings = read_rapl(*fs);
  // 2 sockets × (package + dram).
  ASSERT_EQ(readings.size(), 4u);
  double pkg_total = 0, dram_total = 0;
  for (const auto& reading : readings) {
    if (reading.domain.rfind("package", 0) == 0)
      pkg_total += static_cast<double>(reading.energy_uj) * 1e-6;
    else
      dram_total += static_cast<double>(reading.energy_uj) * 1e-6;
  }
  EXPECT_NEAR(pkg_total, 200.0, 0.001);  // 200 W × 1 s = 200 J
  EXPECT_NEAR(dram_total, 50.0, 0.001);
}

TEST(Rapl, AmdHasNoDramDomain) {
  auto fs = std::make_shared<simfs::PseudoFs>();
  RaplBank bank(fs, make_amd_cpu_node("n1"));
  for (const auto& reading : read_rapl(*fs)) {
    EXPECT_NE(reading.domain, "dram");
  }
}

TEST(Rapl, CounterWrapsAtMaxRange) {
  RaplDomain domain("package-0", /*max_energy_range_uj=*/1000000);
  domain.add_energy_uj(900000);
  domain.add_energy_uj(300000);  // wraps past 1e6
  EXPECT_EQ(domain.energy_uj(), 200000);
  EXPECT_NEAR(domain.lifetime_joules(), 1.2, 1e-9);
}

TEST(Rapl, JoulesBetweenHandlesWrap) {
  EXPECT_DOUBLE_EQ(rapl_joules_between(100, 300, 1000000), 200e-6);
  EXPECT_DOUBLE_EQ(rapl_joules_between(900000, 100000, 1000000), 0.2);
}

// ---------- IPMI ----------

TEST(Ipmi, RefreshesOnlyAtInterval) {
  auto clock = make_sim_clock(0);
  IpmiDcmi ipmi(clock, /*update_interval_ms=*/5000);
  ipmi.offer_power(100);
  EXPECT_EQ(ipmi.read().watts, 100);
  clock->advance(1000);
  ipmi.offer_power(500);  // too soon: BMC keeps the old sample
  EXPECT_EQ(ipmi.read().watts, 100);
  clock->advance(4000);
  ipmi.offer_power(500);
  EXPECT_EQ(ipmi.read().watts, 500);
}

TEST(Ipmi, TracksMinMaxAvg) {
  auto clock = make_sim_clock(0);
  IpmiDcmi ipmi(clock, 1000);
  for (int64_t watts : {100, 300, 200}) {
    ipmi.offer_power(static_cast<double>(watts));
    clock->advance(1000);
  }
  auto reading = ipmi.read();
  EXPECT_EQ(reading.min_watts, 100);
  EXPECT_EQ(reading.max_watts, 300);
  EXPECT_EQ(reading.avg_watts, 200);
}

TEST(Ipmi, DcmiOutputFormatRoundTrips) {
  DcmiPowerReading reading{213, 180, 250, 210, 0};
  auto parsed = parse_dcmi_output(format_dcmi_output(reading));
  EXPECT_EQ(parsed.watts, 213);
  EXPECT_EQ(parsed.min_watts, 180);
  EXPECT_EQ(parsed.max_watts, 250);
  EXPECT_EQ(parsed.avg_watts, 210);
}

// parse_dcmi_output as it was, on split() pieces: the string_view parser
// must read the same values from every input.
DcmiPowerReading parse_dcmi_output_by_split(const std::string& text) {
  DcmiPowerReading reading;
  for (const auto& line : common::split(text, '\n')) {
    auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key(common::trim(std::string_view(line).substr(0, colon)));
    auto fields = common::split_fields(line.substr(colon + 1));
    if (fields.empty()) continue;
    int64_t value = common::parse_int64(fields[0]).value_or(0);
    if (key == "Instantaneous power reading") reading.watts = value;
    else if (key == "Minimum during sampling period") reading.min_watts = value;
    else if (key == "Maximum during sampling period") reading.max_watts = value;
    else if (key == "Average power reading over sample period")
      reading.avg_watts = value;
  }
  return reading;
}

TEST(Ipmi, DcmiParserMatchesSplitParser) {
  std::vector<std::string> inputs = {
      "",
      format_dcmi_output({213, 180, 250, 210, 0}),
      format_dcmi_output({0, -5, 99999, 7, 0}),
      "Instantaneous power reading:\t\t 300\tWatts\r\n"
      "  Minimum during sampling period :120",
      "Instantaneous power reading: x Watts\nMaximum during sampling "
      "period:\nAverage power reading over sample period: 12: 13\n"
      "no colon here 5\n: 9\nMinimum during sampling period: 4W",
      "Instantaneous power reading: 1\nInstantaneous power reading: 2\n",
  };
  for (const auto& text : inputs) {
    DcmiPowerReading got = parse_dcmi_output(text);
    DcmiPowerReading want = parse_dcmi_output_by_split(text);
    EXPECT_EQ(got.watts, want.watts) << text;
    EXPECT_EQ(got.min_watts, want.min_watts) << text;
    EXPECT_EQ(got.max_watts, want.max_watts) << text;
    EXPECT_EQ(got.avg_watts, want.avg_watts) << text;
  }
}

// ---------- GPU bank ----------

TEST(Gpu, DeterministicUuids) {
  EXPECT_EQ(make_gpu_uuid("node1", 0), make_gpu_uuid("node1", 0));
  EXPECT_NE(make_gpu_uuid("node1", 0), make_gpu_uuid("node1", 1));
  EXPECT_NE(make_gpu_uuid("node1", 0), make_gpu_uuid("node2", 0));
  EXPECT_EQ(make_gpu_uuid("n", 0).rfind("GPU-", 0), 0u);
}

TEST(Gpu, BankAccumulatesEnergy) {
  NodeSpec spec = make_v100_node("n1");
  GpuBank bank(spec, "n1");
  ASSERT_EQ(bank.size(), 4u);
  bank.update({100, 200, 25, 25}, {0.5, 1.0, 0, 0}, {1 << 30, 2 << 30, 0, 0},
              2000);
  auto device = bank.device(1);
  ASSERT_TRUE(device.has_value());
  EXPECT_DOUBLE_EQ(device->power_w, 200);
  EXPECT_DOUBLE_EQ(device->utilization, 1.0);
  EXPECT_NEAR(device->lifetime_energy_j, 400, 1e-9);  // 200 W × 2 s
  EXPECT_FALSE(bank.device(7).has_value());
}

// ---------- NodeSim ----------

class NodeSimTest : public ::testing::Test {
 protected:
  NodeSimTest()
      : clock_(make_sim_clock(0)),
        sim_(make_intel_cpu_node("node1"), clock_, 42) {}

  void add_job(int64_t id, int cpus, double util) {
    WorkloadPlacement placement;
    placement.job_id = id;
    placement.user = "alice";
    placement.alloc_cpus = cpus;
    placement.memory_limit_bytes = 8LL << 30;
    WorkloadBehavior behavior;
    behavior.cpu_util_mean = util;
    behavior.cpu_util_jitter = 0;
    behavior.memory_ramp_seconds = 0;
    sim_.add_workload(placement, behavior);
  }

  void step(int64_t dt_ms) {
    sim_.step(dt_ms);
    clock_->advance(dt_ms);
  }

  std::shared_ptr<common::SimClock> clock_;
  NodeSim sim_;
};

TEST_F(NodeSimTest, CgroupAccountingTracksUtilization) {
  add_job(100, 10, 0.8);
  for (int i = 0; i < 10; ++i) step(1000);
  auto stats = simfs::read_cgroup(
      *sim_.fs(), std::string(simfs::kSlurmScope) + "/job_100");
  ASSERT_TRUE(stats.has_value());
  // 0.8 util × 10 cpus × 10 s = 80 cpu-seconds.
  EXPECT_NEAR(static_cast<double>(stats->cpu.usage_usec) * 1e-6, 80.0, 2.0);
}

TEST_F(NodeSimTest, ProcStatConsistentWithCgroups) {
  add_job(100, 10, 0.5);
  add_job(101, 20, 1.0);
  for (int i = 0; i < 5; ++i) step(1000);
  auto stat = simfs::read_proc_stat(*sim_.fs());
  ASSERT_TRUE(stat.has_value());
  // Busy jiffies ≈ (0.5×10 + 1.0×20) cpu-seconds × 100 Hz over 5 s.
  EXPECT_NEAR(static_cast<double>(stat->aggregate.busy()), 25.0 * 5 * 100,
              300.0);
  // Total jiffies = ncpus × 5 s × 100 Hz.
  EXPECT_NEAR(static_cast<double>(stat->aggregate.total()),
              sim_.spec().total_cpus() * 500.0, 100.0);
}

TEST_F(NodeSimTest, GroundTruthEnergyMatchesNodeEnergy) {
  add_job(100, 20, 0.9);
  add_job(101, 20, 0.4);
  for (int i = 0; i < 60; ++i) step(1000);
  double truth_total = 0;
  for (const auto& [id, truth] : sim_.all_energy_truth()) {
    truth_total += truth.total_j();
  }
  EXPECT_NEAR(truth_total, sim_.lifetime_node_energy_j(),
              0.02 * sim_.lifetime_node_energy_j());
}

TEST_F(NodeSimTest, RemoveWorkloadDestroysCgroupKeepsTruth) {
  add_job(100, 10, 0.8);
  step(5000);
  double energy = sim_.job_energy_truth(100).total_j();
  EXPECT_GT(energy, 0);
  sim_.remove_workload(100);
  EXPECT_FALSE(simfs::read_cgroup(
                   *sim_.fs(), std::string(simfs::kSlurmScope) + "/job_100")
                   .has_value());
  EXPECT_DOUBLE_EQ(sim_.job_energy_truth(100).total_j(), energy);
}

TEST_F(NodeSimTest, DuplicateJobThrows) {
  add_job(100, 4, 0.5);
  EXPECT_THROW(add_job(100, 4, 0.5), std::invalid_argument);
}

TEST_F(NodeSimTest, GpuOrdinalValidation) {
  WorkloadPlacement placement;
  placement.job_id = 200;
  placement.alloc_cpus = 4;
  placement.gpu_ordinals = {3};  // CPU node has no GPUs
  EXPECT_THROW(sim_.add_workload(placement, {}), std::invalid_argument);
}

TEST_F(NodeSimTest, AllocatedCpusTracked) {
  EXPECT_EQ(sim_.allocated_cpus(), 0);
  add_job(100, 10, 0.5);
  add_job(101, 6, 0.5);
  EXPECT_EQ(sim_.allocated_cpus(), 16);
  sim_.remove_workload(100);
  EXPECT_EQ(sim_.allocated_cpus(), 6);
}

TEST(NodeSimGpu, BoundGpusShowUtilization) {
  auto clock = make_sim_clock(0);
  NodeSim sim(make_v100_node("g1"), clock, 7);
  WorkloadPlacement placement;
  placement.job_id = 300;
  placement.alloc_cpus = 8;
  placement.memory_limit_bytes = 32LL << 30;
  placement.gpu_ordinals = {1, 2};
  WorkloadBehavior behavior;
  behavior.gpu_util_mean = 0.9;
  behavior.gpu_util_jitter = 0;
  sim.add_workload(placement, behavior);
  sim.step(1000);
  auto telemetry = sim.gpus().snapshot();
  EXPECT_DOUBLE_EQ(telemetry[0].utilization, 0);
  EXPECT_NEAR(telemetry[1].utilization, 0.9, 1e-9);
  EXPECT_GT(telemetry[1].power_w, telemetry[0].power_w);
}

}  // namespace
}  // namespace ceems::node
