#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "core/node_exporter_factory.h"
#include "exporter/rapl_collector.h"
#include "emissions/owid.h"
#include "emissions/rte.h"
#include "exporter/emissions_collector.h"
#include "exporter/exporter.h"
#include "exporter/self_collector.h"
#include "http/client.h"
#include "metrics/text_format.h"
#include "node/node_sim.h"

namespace ceems::exporter {
namespace {

using common::make_sim_clock;

class ExporterTest : public ::testing::Test {
 protected:
  ExporterTest() : clock_(make_sim_clock(1000000)) {}

  node::NodeSimPtr make_node(node::NodeSpec (*spec)(const std::string&),
                             const std::string& hostname) {
    return std::make_shared<node::NodeSim>(spec(hostname), clock_, 11);
  }

  void place_job(node::NodeSim& sim, int64_t id, int cpus,
                 std::vector<int> gpus = {}) {
    node::WorkloadPlacement placement;
    placement.job_id = id;
    placement.user = "alice";
    placement.project = "prj1";
    placement.alloc_cpus = cpus;
    placement.memory_limit_bytes = 8LL << 30;
    placement.gpu_ordinals = std::move(gpus);
    node::WorkloadBehavior behavior;
    behavior.cpu_util_mean = 0.8;
    behavior.cpu_util_jitter = 0;
    behavior.gpu_util_mean = 0.7;
    behavior.gpu_util_jitter = 0;
    sim.add_workload(placement, behavior);
  }

  metrics::ParsedExposition scrape(Exporter& exporter) {
    return metrics::parse_exposition(exporter.render(clock_->now_ms()));
  }

  double find_value(const metrics::ParsedExposition& parsed,
                    const std::string& name,
                    std::initializer_list<metrics::Labels::Pair> pairs = {}) {
    metrics::Labels want(pairs);
    for (const auto& sample : parsed.samples) {
      if (sample.labels.name() != name) continue;
      bool match = true;
      for (const auto& [key, value] : want.pairs()) {
        if (sample.labels.get(key) != value) match = false;
      }
      if (match) return sample.value;
    }
    return std::nan("");
  }

  std::shared_ptr<common::SimClock> clock_;
};

TEST_F(ExporterTest, CgroupCollectorExportsComputeUnits) {
  auto node = make_node(node::make_intel_cpu_node, "n1");
  place_job(*node, 1001, 10);
  for (int i = 0; i < 10; ++i) node->step(1000);

  auto exporter = core::make_ceems_exporter(node, clock_);
  auto parsed = scrape(*exporter);

  double user_sec = find_value(
      parsed, "ceems_compute_unit_cpu_usage_seconds_total",
      {{"uuid", "1001"}, {"mode", "user"}});
  double system_sec = find_value(
      parsed, "ceems_compute_unit_cpu_usage_seconds_total",
      {{"uuid", "1001"}, {"mode", "system"}});
  // 0.8 × 10 cpus × 10 s = 80 cpu-seconds split user/system.
  EXPECT_NEAR(user_sec + system_sec, 80.0, 2.0);
  EXPECT_GT(find_value(parsed, "ceems_compute_unit_memory_current_bytes",
                       {{"uuid", "1001"}}),
            0.0);
  EXPECT_DOUBLE_EQ(find_value(parsed, "ceems_compute_units"), 1.0);
  // Manager label present (resource-manager agnosticism).
  EXPECT_DOUBLE_EQ(
      find_value(parsed, "ceems_compute_units", {{"manager", "slurm"}}), 1.0);
}

TEST_F(ExporterTest, NodeCollectorExportsProcView) {
  auto node = make_node(node::make_intel_cpu_node, "n1");
  place_job(*node, 1, 20);
  node->step(5000);
  auto exporter = core::make_ceems_exporter(node, clock_);
  auto parsed = scrape(*exporter);
  EXPECT_DOUBLE_EQ(find_value(parsed, "node_cpus"),
                   node->spec().total_cpus());
  EXPECT_GT(find_value(parsed, "node_cpu_seconds_total", {{"mode", "idle"}}),
            0.0);
  EXPECT_NEAR(find_value(parsed, "node_memory_MemTotal_bytes"),
              static_cast<double>(node->spec().memory_bytes), 1e6);
}

TEST_F(ExporterTest, RaplCollectorHealsCounterWrap) {
  auto fs = std::make_shared<simfs::PseudoFs>();
  // Hand-written powercap tree with a small wrap range.
  auto publish = [&](int64_t uj) {
    fs->write("/sys/class/powercap/intel-rapl:0/name", "package-0\n");
    fs->write("/sys/class/powercap/intel-rapl:0/energy_uj",
              std::to_string(uj) + "\n");
    fs->write("/sys/class/powercap/intel-rapl:0/max_energy_range_uj",
              "1000000\n");
  };
  RaplCollector collector(fs);
  publish(800000);
  collector.collect(0);
  publish(900000);  // +0.1 J
  collector.collect(0);
  publish(100000);  // wrap: +0.2 J
  auto families = collector.collect(0);
  ASSERT_FALSE(families.empty());
  // Software counter: 0.8 (initial) + 0.1 + 0.2 = 1.1 J, monotone.
  EXPECT_NEAR(families[0].metrics[0].value, 1.1, 1e-6);
}

TEST_F(ExporterTest, RaplDomainsFollowVendor) {
  auto intel = make_node(node::make_intel_cpu_node, "i1");
  intel->step(1000);
  auto amd = make_node(node::make_amd_cpu_node, "a1");
  amd->step(1000);

  auto intel_parsed = scrape(*core::make_ceems_exporter(intel, clock_));
  auto amd_parsed = scrape(*core::make_ceems_exporter(amd, clock_));
  EXPECT_FALSE(std::isnan(
      find_value(intel_parsed, "ceems_rapl_dram_joules_total")));
  EXPECT_TRUE(std::isnan(
      find_value(amd_parsed, "ceems_rapl_dram_joules_total")));
  EXPECT_FALSE(std::isnan(
      find_value(amd_parsed, "ceems_rapl_package_joules_total")));
}

TEST_F(ExporterTest, IpmiCollectorParsesDcmiOutput) {
  auto node = make_node(node::make_intel_cpu_node, "n1");
  node->step(1000);
  auto exporter = core::make_ceems_exporter(node, clock_);
  auto parsed = scrape(*exporter);
  double watts = find_value(parsed, "ceems_ipmi_dcmi_current_watts");
  // Idle Intel node: IPMI reading covers idle CPUs + DRAM + platform + PSU.
  EXPECT_GT(watts, 100);
  EXPECT_LT(watts, 400);
}

TEST_F(ExporterTest, GpuCollectorsEmitDcgmMetricsAndMap) {
  auto node = make_node(node::make_v100_node, "g1");
  place_job(*node, 2001, 8, {0, 2});
  node->step(1000);
  auto exporter = core::make_ceems_exporter(node, clock_);
  auto parsed = scrape(*exporter);

  EXPECT_NEAR(find_value(parsed, "DCGM_FI_DEV_GPU_UTIL", {{"gpu", "0"}}), 70,
              1.0);
  EXPECT_DOUBLE_EQ(find_value(parsed, "DCGM_FI_DEV_GPU_UTIL", {{"gpu", "1"}}),
                   0.0);
  // Binding map: uuid 2001 bound to ordinals 0 and 2 with device uuids.
  double flag0 = find_value(parsed, "ceems_compute_unit_gpu_index_flag",
                            {{"uuid", "2001"}, {"index", "0"}});
  double flag2 = find_value(parsed, "ceems_compute_unit_gpu_index_flag",
                            {{"uuid", "2001"}, {"index", "2"}});
  EXPECT_DOUBLE_EQ(flag0, 1.0);
  EXPECT_DOUBLE_EQ(flag2, 1.0);
  for (const auto& sample : parsed.samples) {
    if (sample.labels.name() == "ceems_compute_unit_gpu_index_flag") {
      EXPECT_EQ(sample.labels.get("gpu_uuid")->substr(0, 4), "GPU-");
    }
  }
}

TEST_F(ExporterTest, AmdGpuExporterPath) {
  auto node = make_node(node::make_mi250_node, "m1");
  place_job(*node, 3001, 16, {1});
  node->step(1000);
  auto exporter = core::make_ceems_exporter(node, clock_);
  auto parsed = scrape(*exporter);
  double microwatts = find_value(parsed, "amd_gpu_power", {{"gpu_id", "1"}});
  EXPECT_GT(microwatts, 45e6);  // above idle, in µW
  EXPECT_TRUE(std::isnan(find_value(parsed, "DCGM_FI_DEV_POWER_USAGE")));
}

TEST_F(ExporterTest, EmissionsCollectorExportsPerProvider) {
  Exporter exporter({}, clock_);
  std::vector<emissions::ProviderPtr> providers = {
      std::make_shared<emissions::RteProvider>(),
      std::make_shared<emissions::OwidProvider>()};
  exporter.add_collector(
      std::make_shared<EmissionsCollector>(providers, "FR"));
  auto parsed = metrics::parse_exposition(exporter.render(clock_->now_ms()));
  double rte = find_value(parsed, "ceems_emissions_gCo2_kWh",
                          {{"provider", "rte"}});
  double owid = find_value(parsed, "ceems_emissions_gCo2_kWh",
                           {{"provider", "owid"}});
  EXPECT_GT(rte, 10);
  EXPECT_DOUBLE_EQ(owid, 56);
}

TEST_F(ExporterTest, SelfMetricsReportRealProcess) {
  auto node = make_node(node::make_intel_cpu_node, "n1");
  ExporterConfig config;
  config.enable_self_metrics = true;
  auto exporter = core::make_ceems_exporter(node, clock_, config);
  exporter->render(clock_->now_ms());
  auto parsed = scrape(*exporter);
  // The test process certainly uses more than 1 MB and less than 10 GB.
  double rss = find_value(parsed, "process_resident_memory_bytes");
  EXPECT_GT(rss, 1e6);
  EXPECT_LT(rss, 10e9);
  EXPECT_GE(find_value(parsed, "process_cpu_seconds_total"), 0.0);
  EXPECT_DOUBLE_EQ(find_value(parsed, "ceems_exporter_scrapes_total"), 1.0);
}

// The stream-based procfs parsers the self collector used before it read
// through RealFs, kept as the reference for the allocation-free ones.
std::size_t reference_statm_resident_pages(const std::string& statm) {
  std::istringstream in(statm);
  std::size_t size_pages = 0, resident_pages = 0;
  in >> size_pages >> resident_pages;
  return resident_pages;
}

long long reference_stat_cpu_ticks(const std::string& stat) {
  std::istringstream in(stat);
  std::string line;
  std::getline(in, line);
  std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  long long utime = 0, stime = 0;
  std::string field;
  for (int i = 3; i <= 13; ++i) rest >> field;
  rest >> utime >> stime;
  return utime + stime;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SelfCollectorParse, MatchesStreamParserOnHostProcfs) {
  // One read per file feeds both parsers, so a counter moving between
  // reads cannot make them disagree.
  for (const std::string pid : {"self", "1"}) {
    const std::string statm = slurp("/proc/" + pid + "/statm");
    const std::string stat = slurp("/proc/" + pid + "/stat");
    ASSERT_FALSE(statm.empty()) << pid;
    ASSERT_FALSE(stat.empty()) << pid;
    EXPECT_EQ(statm_resident_pages(statm),
              reference_statm_resident_pages(statm))
        << statm;
    EXPECT_EQ(stat_cpu_ticks(stat), reference_stat_cpu_ticks(stat)) << stat;
  }
  EXPECT_GT(statm_resident_pages(slurp("/proc/self/statm")), 0u);
}

TEST(SelfCollectorParse, MatchesStreamParserOnEdgeCases) {
  const std::string stats[] = {
      // A comm with spaces and a closing paren of its own.
      "42 (my (odd) comm) S 1 42 42 0 -1 4194560 100 0 0 0 1234 567 0 0 "
      "20 0 1 0 100 1000 50\n",
      "42 (short) R 1 2 3 4 5 6 7 8 9 10 11\n",  // no stime
      "no paren at all 1 2 3\n",
      "",
  };
  for (const std::string& stat : stats) {
    EXPECT_EQ(stat_cpu_ticks(stat), reference_stat_cpu_ticks(stat)) << stat;
  }
  EXPECT_EQ(stat_cpu_ticks(stats[0]), 1234 + 567);
  for (const std::string statm : {"1000 250 10 1 0 100 0\n", "7", ""}) {
    EXPECT_EQ(statm_resident_pages(statm),
              reference_statm_resident_pages(statm))
        << statm;
  }
}

TEST_F(ExporterTest, HttpEndpointServesExposition) {
  auto node = make_node(node::make_intel_cpu_node, "n1");
  place_job(*node, 1, 4);
  node->step(1000);
  auto exporter = core::make_ceems_exporter(node, clock_);
  exporter->start();
  http::Client client;
  auto result = client.get(exporter->metrics_url());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, 200);
  EXPECT_NE(result.response.headers.find("Content-Type")->second.find(
                "text/plain"),
            std::string::npos);
  EXPECT_NO_THROW(metrics::parse_exposition(result.response.body));
  exporter->stop();
}

TEST_F(ExporterTest, SeparateGpuExporterMode) {
  auto node = make_node(node::make_v100_node, "g1");
  node->step(1000);
  auto ceems = core::make_ceems_exporter(node, clock_, {},
                                         /*merge_gpu_exporter=*/false);
  auto dcgm = core::make_gpu_exporter(node, clock_);
  auto ceems_parsed = scrape(*ceems);
  auto dcgm_parsed = scrape(*dcgm);
  EXPECT_TRUE(std::isnan(find_value(ceems_parsed, "DCGM_FI_DEV_POWER_USAGE")));
  EXPECT_FALSE(std::isnan(find_value(dcgm_parsed, "DCGM_FI_DEV_POWER_USAGE")));
  // The map still lives in the CEEMS exporter (it is CEEMS' job, §II-A.d).
  place_job(*node, 5, 4, {0});
  node->step(1000);
  auto parsed = scrape(*ceems);
  EXPECT_FALSE(
      std::isnan(find_value(parsed, "ceems_compute_unit_gpu_index_flag")));
}

TEST_F(ExporterTest, NodegroupClassification) {
  EXPECT_EQ(core::nodegroup_of(node::make_intel_cpu_node("a")), "intel-cpu");
  EXPECT_EQ(core::nodegroup_of(node::make_amd_cpu_node("a")), "amd-cpu");
  EXPECT_EQ(core::nodegroup_of(node::make_v100_node("a")), "gpu-incl");
  EXPECT_EQ(core::nodegroup_of(node::make_h100_node("a")), "gpu-incl");
  EXPECT_EQ(core::nodegroup_of(node::make_a100_node("a")), "gpu-excl");
}

}  // namespace
}  // namespace ceems::exporter
