// Property-style tests: invariants that must hold across randomized
// parameter sweeps (parameterized gtest). These guard the physical and
// accounting laws the whole reproduction rests on.
#include <gtest/gtest.h>

#include <cmath>

#include "core/stack.h"
#include "metrics/text_format.h"
#include "tsdb/promql_eval.h"
#include "append_one.h"

namespace ceems {
namespace {

using common::Rng;
using metrics::LabelMatcher;

// ---------- power-model invariants across random workload mixes ----------

class PowerModelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PowerModelProperty, AttributionConservesAndStaysPositive) {
  Rng rng(GetParam());
  node::NodeSpec spec;
  switch (rng.uniform_int(0, 3)) {
    case 0: spec = node::make_intel_cpu_node("n"); break;
    case 1: spec = node::make_amd_cpu_node("n"); break;
    case 2: spec = node::make_v100_node("n"); break;
    default: spec = node::make_a100_node("n"); break;
  }
  node::PowerModel model(spec);

  std::vector<node::WorkloadUsage> usages;
  int jobs = static_cast<int>(rng.uniform_int(0, 6));
  int cpus_left = spec.total_cpus();
  std::set<int> gpus_free;
  for (std::size_t g = 0; g < spec.gpus.size(); ++g)
    gpus_free.insert(static_cast<int>(g));
  for (int j = 0; j < jobs && cpus_left > 0; ++j) {
    node::WorkloadUsage usage;
    usage.job_id = j + 1;
    usage.alloc_cpus =
        static_cast<int>(rng.uniform_int(1, std::max(1, cpus_left / 2)));
    cpus_left -= usage.alloc_cpus;
    usage.cpu_util = rng.uniform(0, 1);
    usage.memory_bytes = static_cast<int64_t>(
        rng.uniform(0, 0.4) * static_cast<double>(spec.memory_bytes));
    usage.memory_activity = rng.uniform(0, 1);
    if (!gpus_free.empty() && rng.chance(0.5)) {
      usage.gpu_ordinals.push_back(*gpus_free.begin());
      gpus_free.erase(gpus_free.begin());
      usage.gpu_util = rng.uniform(0, 1);
    }
    usages.push_back(usage);
  }

  node::PowerBreakdown power = model.node_power(usages);
  // Component powers within physical bounds.
  EXPECT_GE(power.cpu_pkg_w, spec.cpu_idle_w() - 1e-9);
  EXPECT_LE(power.cpu_pkg_w, spec.cpu_tdp_w() + 1e-9);
  EXPECT_GE(power.dram_w, spec.dram_idle_w - 1e-9);
  EXPECT_LE(power.dram_w, spec.dram_max_w + 1e-9);
  EXPECT_GT(power.ipmi_w, 0);

  // Attribution: non-negative, and total ≈ node power minus idle draw of
  // unbound GPUs.
  double attributed = 0;
  for (const auto& truth : model.attribute(usages)) {
    EXPECT_GE(truth.cpu_w, -1e-9);
    EXPECT_GE(truth.dram_w, -1e-9);
    EXPECT_GE(truth.gpu_w, -1e-9);
    EXPECT_GE(truth.static_share_w, -1e-9);
    attributed += truth.total_w();
  }
  double unbound_idle = 0;
  for (int ordinal : gpus_free) {
    unbound_idle += spec.gpus[static_cast<std::size_t>(ordinal)].idle_power_w;
  }
  if (!usages.empty()) {
    EXPECT_NEAR(attributed, power.node_dc_w - unbound_idle,
                0.03 * power.node_dc_w);
  } else {
    EXPECT_DOUBLE_EQ(attributed, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerModelProperty,
                         ::testing::Range<uint64_t>(1, 25));

// ---------- RAPL counter invariants ----------

class RaplProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RaplProperty, ExportedCounterMonotoneDespiteWraps) {
  Rng rng(GetParam());
  node::RaplDomain domain("package-0", /*max_energy_range_uj=*/500000);
  int64_t last_raw = domain.energy_uj();
  double healed = 0;
  double healed_prev = 0;
  for (int i = 0; i < 200; ++i) {
    int64_t delta = rng.uniform_int(0, 90000);
    domain.add_energy_uj(delta);
    healed += node::rapl_joules_between(last_raw, domain.energy_uj(), 500000);
    last_raw = domain.energy_uj();
    EXPECT_GE(healed, healed_prev);
    healed_prev = healed;
    EXPECT_LT(domain.energy_uj(), 500000);
    EXPECT_GE(domain.energy_uj(), 0);
  }
  // Healed counter equals lifetime energy exactly (single wrap per step).
  EXPECT_NEAR(healed, domain.lifetime_joules(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaplProperty,
                         ::testing::Range<uint64_t>(1, 15));

// ---------- scheduler invariants across workload intensities ----------

struct SchedulerSweep {
  double jobs_per_day;
  uint64_t seed;
};

class SchedulerProperty : public ::testing::TestWithParam<SchedulerSweep> {};

TEST_P(SchedulerProperty, NeverOversubscribesAndAllJobsTerminate) {
  auto clock = common::make_sim_clock(1000000);
  slurm::JeanZayScale scale = slurm::JeanZayScale{}.scaled(0.004);
  auto gen = slurm::make_jean_zay_workload_config(scale,
                                                  GetParam().jobs_per_day);
  gen.seed = GetParam().seed;
  slurm::ClusterSim sim(clock,
                        slurm::make_jean_zay_cluster(clock, scale,
                                                     GetParam().seed),
                        gen, GetParam().seed);
  sim.run_for(2 * common::kMillisPerHour, 15000,
              [&](common::TimestampMs) {
                for (const auto& node : sim.cluster().all_nodes()) {
                  ASSERT_LE(node->allocated_cpus(),
                            node->spec().total_cpus());
                }
              });
  // Job-state ledger is consistent.
  std::size_t terminal = 0, active = 0;
  for (const auto& job : sim.dbd().all_jobs()) {
    if (job.finished()) {
      ++terminal;
      EXPECT_GE(job.end_time_ms, job.start_time_ms);
      if (job.state != slurm::JobState::kCancelled) {
        EXPECT_GT(job.start_time_ms, 0);
      }
    } else {
      ++active;
    }
  }
  EXPECT_EQ(terminal + active, sim.dbd().size());
  EXPECT_GT(sim.jobs_submitted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Load, SchedulerProperty,
    ::testing::Values(SchedulerSweep{500, 1}, SchedulerSweep{2000, 2},
                      SchedulerSweep{8000, 3}, SchedulerSweep{20000, 4}));

// ---------- TSDB query engine vs brute-force reference ----------

class TsdbProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TsdbProperty, SumByEqualsBruteForce) {
  Rng rng(GetParam());
  tsdb::TimeSeriesStore store;
  // Random series over hosts/modes with random sample counts.
  std::map<std::string, double> by_host;
  for (int s = 0; s < 40; ++s) {
    std::string host = "h" + std::to_string(rng.uniform_int(0, 5));
    // A distinct `series` label keeps every generated series unique, so
    // the brute-force reference never collides with the store's
    // out-of-order rejection.
    metrics::Labels labels =
        metrics::Labels{{"host", host}, {"series", std::to_string(s)}}
            .with_name("metric");
    double last = 0;
    int n = static_cast<int>(rng.uniform_int(1, 20));
    for (int i = 0; i < n; ++i) {
      last = rng.uniform(0, 100);
      append_one(store, labels, (i + 1) * 1000, last);
    }
    by_host[host] += last;
  }

  tsdb::promql::Engine engine;
  auto result = engine.eval(store, "sum by (host) (metric)", 25000);
  ASSERT_EQ(result.vector.size(), by_host.size());
  for (const auto& sample : result.vector) {
    std::string host(*sample.labels.get("host"));
    EXPECT_NEAR(sample.value, by_host[host], 1e-9) << host;
  }
}

TEST_P(TsdbProperty, IncreaseMatchesCounterDelta) {
  Rng rng(GetParam());
  tsdb::TimeSeriesStore store;
  metrics::Labels labels = metrics::Labels{}.with_name("c");
  double counter = 0;
  double first_in_window = -1, last_in_window = 0;
  common::TimestampMs window_start = 60001;  // (60s, 360s]
  common::TimestampMs window_end = 360000;
  for (int i = 0; i <= 24; ++i) {
    common::TimestampMs t = i * 15000;
    counter += rng.uniform(0, 50);
    append_one(store, labels, t, counter);
    if (t >= window_start && t <= window_end) {
      if (first_in_window < 0) first_in_window = counter;
      last_in_window = counter;
    }
  }
  tsdb::promql::Engine engine;
  auto result = engine.eval(store, "increase(c[5m])", window_end);
  ASSERT_EQ(result.vector.size(), 1u);
  EXPECT_NEAR(result.vector[0].value, last_in_window - first_in_window, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsdbProperty,
                         ::testing::Range<uint64_t>(1, 15));

// ---------- exposition wire-format round trip ----------

class ExpositionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExpositionProperty, EncodeParseRoundTripsArbitraryLabels) {
  Rng rng(GetParam());
  // Random label values exercising every escape path (backslash, quote,
  // newline, UTF-8-ish bytes).
  auto random_value = [&rng]() {
    static const char* pieces[] = {"plain", "with space", "a\\b", "q\"q",
                                   "nl\nnl", "ünïcode", "{}", "=,"};
    std::string out;
    int n = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < n; ++i) {
      out += pieces[rng.uniform_int(0, 7)];
    }
    return out;
  };

  std::vector<metrics::MetricFamily> families;
  metrics::MetricFamily family{"fuzz_metric", "help text",
                               metrics::MetricType::kGauge, {}};
  int metrics_count = static_cast<int>(rng.uniform_int(1, 20));
  for (int i = 0; i < metrics_count; ++i) {
    metrics::Labels labels{{"a", random_value()},
                           {"b", random_value()},
                           {"i", std::to_string(i)}};
    family.add(labels, rng.uniform(-1e6, 1e6));
  }
  families.push_back(family);

  auto parsed = metrics::parse_exposition(metrics::encode_families(families));
  ASSERT_EQ(parsed.samples.size(), static_cast<std::size_t>(metrics_count));
  for (int i = 0; i < metrics_count; ++i) {
    const auto& original = family.metrics[static_cast<std::size_t>(i)];
    // Find the parsed sample with the same "i" label.
    bool found = false;
    for (const auto& sample : parsed.samples) {
      if (sample.labels.get("i") != std::to_string(i)) continue;
      found = true;
      EXPECT_EQ(*sample.labels.get("a"), *original.labels.get("a"));
      EXPECT_EQ(*sample.labels.get("b"), *original.labels.get("b"));
      EXPECT_DOUBLE_EQ(sample.value, original.value);
    }
    EXPECT_TRUE(found) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpositionProperty,
                         ::testing::Range<uint64_t>(1, 12));

// ---------- WAL replay idempotence ----------

class WalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalProperty, ReplayEqualsOriginal) {
  Rng rng(GetParam());
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto db = reldb::Database::open(dir);
  reldb::Schema schema;
  schema.columns = {{"id", reldb::ColumnType::kInt},
                    {"v", reldb::ColumnType::kReal}};
  schema.primary_key = "id";
  db->create_table("t", schema);
  for (int i = 0; i < 300; ++i) {
    int64_t id = rng.uniform_int(0, 40);
    if (rng.chance(0.25)) {
      db->erase("t", reldb::Value(id));
    } else {
      db->upsert("t", {reldb::Value(id), reldb::Value(rng.uniform(0, 1))});
    }
  }
  dir->crash();
  auto replayed = reldb::Database::open(dir);
  EXPECT_EQ(replayed->table_size("t"), db->table_size("t"));
  EXPECT_EQ(replayed->last_seq(), db->last_seq());
  for (int id = 0; id <= 40; ++id) {
    auto original = db->get("t", reldb::Value(id));
    auto copy = replayed->get("t", reldb::Value(id));
    ASSERT_EQ(original.has_value(), copy.has_value()) << id;
    if (original) {
      EXPECT_DOUBLE_EQ((*original)[1].as_real(), (*copy)[1].as_real());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalProperty,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace ceems
