#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/yamlconf.h"
#include "core/rules_library.h"
#include "tsdb/rules.h"
#include "append_one.h"

namespace ceems::tsdb {
namespace {

Labels named(const std::string& name,
             std::initializer_list<Labels::Pair> pairs = {}) {
  return Labels(pairs).with_name(name);
}

class RulesTest : public ::testing::Test {
 protected:
  RulesTest() : store_(std::make_shared<TimeSeriesStore>()), engine_(store_) {}

  StorePtr store_;
  RuleEngine engine_;
};

TEST_F(RulesTest, RecordWritesNamedSeries) {
  append_one(*store_, named("a", {{"h", "x"}}), 1000, 10);
  append_one(*store_, named("a", {{"h", "y"}}), 1000, 20);
  RuleGroup group;
  group.name = "g";
  group.rules = {{"a:doubled", "a * 2", {}, nullptr}};
  engine_.add_group(std::move(group));

  RuleEvalStats stats = engine_.evaluate_all(1000);
  EXPECT_EQ(stats.rules_evaluated, 1u);
  EXPECT_EQ(stats.samples_written, 2u);
  EXPECT_EQ(stats.rule_failures, 0u);

  auto result = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "a:doubled"}}, 0, 2000);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_DOUBLE_EQ(result[0].samples()[0].v, 20);
}

TEST_F(RulesTest, StaticLabelsAttached) {
  append_one(*store_, named("a"), 1000, 1);
  RuleGroup group;
  group.name = "g";
  group.rules = {{"a:copy", "a", {{"group", "intel"}}, nullptr}};
  engine_.add_group(std::move(group));
  engine_.evaluate_all(1000);
  auto result = store_->select(
      {{"group", metrics::LabelMatcher::Op::kEq, "intel"}}, 0, 2000);
  ASSERT_EQ(result.size(), 1u);
}

TEST_F(RulesTest, LaterRulesSeeEarlierResults) {
  append_one(*store_, named("a"), 1000, 5);
  RuleGroup group;
  group.name = "g";
  group.rules = {{"step:one", "a * 2", {}, nullptr},
                 {"step:two", "step:one + 1", {}, nullptr}};
  engine_.add_group(std::move(group));
  engine_.evaluate_all(1000);
  auto result = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "step:two"}}, 0, 2000);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result[0].samples()[0].v, 11);
}

TEST_F(RulesTest, InvalidRuleFailsFastAtLoad) {
  RuleGroup bad_expr;
  bad_expr.rules = {{"x", "sum(", {}, nullptr}};
  EXPECT_THROW(engine_.add_group(std::move(bad_expr)), promql::ParseError);
  RuleGroup bad_name;
  bad_name.rules = {{"bad-name", "up", {}, nullptr}};
  EXPECT_THROW(engine_.add_group(std::move(bad_name)), promql::ParseError);
}

TEST_F(RulesTest, RuntimeFailureCountedNotFatal) {
  // many-to-many matching error at eval time.
  append_one(*store_, named("a", {{"i", "1"}}), 1000, 1);
  append_one(*store_, named("b", {{"j", "1"}}), 1000, 1);
  append_one(*store_, named("b", {{"j", "2"}}), 1000, 1);
  RuleGroup group;
  group.rules = {{"x", "a * on() group_left() b", {}, nullptr},
                 {"y", "a * 2", {}, nullptr}};
  engine_.add_group(std::move(group));
  RuleEvalStats stats = engine_.evaluate_all(1000);
  EXPECT_EQ(stats.rule_failures, 1u);
  EXPECT_EQ(stats.samples_written, 1u);  // second rule still ran
}

TEST_F(RulesTest, NonVectorAlertCountedAndLogged) {
  // A scalar alert expression is a failure on both rule paths, and both
  // log it, so untraced runs see it as well.
  RuleGroup group;
  group.name = "g";
  AlertingRule rule;
  rule.alert = "ScalarAlert";
  rule.expr = "1 + 1";
  group.alerts.push_back(rule);
  engine_.add_group(std::move(group));

  ::testing::internal::CaptureStderr();
  RuleEvalStats stats = engine_.evaluate_all(1000);
  std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats.rule_failures, 1u);
  EXPECT_EQ(stats.alerts_firing, 0u);
  EXPECT_NE(log.find("[WARN] rules: alert ScalarAlert did not yield a vector"),
            std::string::npos)
      << log;
  EXPECT_TRUE(engine_.active_alerts().empty());
}

TEST_F(RulesTest, EvaluateDueHonorsGroupInterval) {
  append_one(*store_, named("a"), 0, 1);
  RuleGroup fast;
  fast.name = "fast";
  fast.interval_ms = 1000;
  fast.rules = {{"fast:copy", "a", {}, nullptr}};
  RuleGroup slow;
  slow.name = "slow";
  slow.interval_ms = 10000;
  slow.rules = {{"slow:copy", "a", {}, nullptr}};
  engine_.add_group(std::move(fast));
  engine_.add_group(std::move(slow));

  engine_.evaluate_due(0);      // both run
  engine_.evaluate_due(1000);   // only fast due
  engine_.evaluate_due(2000);   // only fast due
  auto fast_series = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "fast:copy"}}, 0, 10000);
  auto slow_series = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "slow:copy"}}, 0, 10000);
  ASSERT_EQ(fast_series.size(), 1u);
  ASSERT_EQ(slow_series.size(), 1u);
  EXPECT_EQ(fast_series[0].samples().size(), 3u);
  EXPECT_EQ(slow_series[0].samples().size(), 1u);
}

TEST(RuleParsing, FromYaml) {
  auto root = common::parse_yaml(
      "groups:\n"
      "  - name: energy\n"
      "    interval: 15s\n"
      "    rules:\n"
      "      - record: job:power\n"
      "        expr: a * 2\n"
      "        labels:\n"
      "          nodegroup: intel\n"
      "      - record: job:other\n"
      "        expr: b\n");
  auto groups = parse_rule_groups(root);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].name, "energy");
  EXPECT_EQ(groups[0].interval_ms, 15000);
  ASSERT_EQ(groups[0].rules.size(), 2u);
  EXPECT_EQ(groups[0].rules[0].record, "job:power");
  ASSERT_EQ(groups[0].rules[0].static_labels.size(), 1u);
  EXPECT_EQ(groups[0].rules[0].static_labels[0].second, "intel");
}

// ---- the shipped Jean-Zay rule library ----

TEST(RulesLibrary, AllRulesParse) {
  auto store = std::make_shared<TimeSeriesStore>();
  RuleEngine engine(store);
  for (auto& group : core::jean_zay_rule_groups()) {
    EXPECT_NO_THROW(engine.add_group(std::move(group)));
  }
  for (auto& group : core::equal_split_baseline_rules()) {
    EXPECT_NO_THROW(engine.add_group(std::move(group)));
  }
  for (auto& group : core::long_range_report_rules()) {
    EXPECT_NO_THROW(engine.add_group(std::move(group)));
  }
  EXPECT_GE(engine.group_count(), 9u);
}

TEST(RulesLibrary, LongRangeReportGroupTilesItsWindow) {
  auto groups = core::long_range_report_rules("30m");
  ASSERT_EQ(groups.size(), 1u);
  // Interval equals the window, so consecutive evaluations tile the
  // timeline and every range lands on the alignment grid the
  // resolution-aware planner needs.
  EXPECT_EQ(groups[0].interval_ms, 30 * common::kMillisPerMinute);
  for (const auto& rule : groups[0].rules) {
    EXPECT_NE(rule.expr.find("[30m]"), std::string::npos) << rule.record;
  }

  // The rules evaluate against a store with the expected inputs.
  auto store = std::make_shared<TimeSeriesStore>();
  for (TimestampMs t = 0; t <= 30 * common::kMillisPerMinute; t += 30000) {
    append_one(*store, named("ceems_job_power_watts", {{"uuid", "1"}}), t, 100);
    append_one(*store, named("ceems_rapl_package_joules_total",
                        {{"hostname", "n1"}, {"nodegroup", "intel-cpu"}}),
                  t, static_cast<double>(t) / 1000.0 * 50);
  }
  RuleEngine engine(store);
  for (auto& group : core::long_range_report_rules("30m")) {
    engine.add_group(std::move(group));
  }
  RuleEvalStats stats = engine.evaluate_all(30 * common::kMillisPerMinute);
  EXPECT_EQ(stats.rule_failures, 0u);
  auto energy = store->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq,
        "report:job_energy_joules"}},
      0, common::kMillisPerHour);
  ASSERT_EQ(energy.size(), 1u);
  // 100 W over a 30 min window.
  EXPECT_NEAR(energy[0].samples()[0].v, 100.0 * 30 * 60, 1e-6);
}

// Feeds hand-built node series for one Intel host with two jobs and checks
// that the full Eq. (1) rule chain yields the expected per-job watts.
TEST(RulesLibrary, EquationOneOnIntelGroup) {
  auto store = std::make_shared<TimeSeriesStore>();
  RuleEngine engine(store);
  for (auto& group : core::jean_zay_rule_groups("2m")) {
    engine.add_group(std::move(group));
  }

  auto put = [&](const std::string& name,
                 std::initializer_list<Labels::Pair> pairs, TimestampMs t,
                 double v) {
    append_one(*store, Labels(pairs).with_name(name), t, v);
  };
  Labels::Pair host{"hostname", "n1"};
  Labels::Pair group{"nodegroup", "intel-cpu"};
  for (int i = 0; i <= 4; ++i) {
    TimestampMs t = i * 30000;
    double sec = i * 30.0;
    put("ceems_rapl_package_joules_total", {host, group, {"index", "0"}}, t,
        sec * 120);  // 120 W package
    put("ceems_rapl_dram_joules_total", {host, group, {"index", "0"}}, t,
        sec * 30);  // 30 W dram
    put("ceems_ipmi_dcmi_current_watts", {host, group}, t, 300);
    put("node_cpu_seconds_total", {host, group, {"mode", "user"}}, t,
        sec * 10);  // 10 busy cores
    put("node_cpu_seconds_total", {host, group, {"mode", "idle"}}, t,
        sec * 30);
    put("node_memory_MemTotal_bytes", {host, group}, t, 100e9);
    put("node_memory_MemAvailable_bytes", {host, group}, t, 60e9);  // 40 GB used
    put("ceems_compute_units", {host, group, {"manager", "slurm"}}, t, 2);
    // Job 1: 8 of the 10 busy cores, 30 GB.
    put("ceems_compute_unit_cpu_usage_seconds_total",
        {host, group, {"uuid", "1"}, {"mode", "user"}}, t, sec * 8);
    put("ceems_compute_unit_memory_current_bytes",
        {host, group, {"uuid", "1"}}, t, 30e9);
    // Job 2: 2 cores, 10 GB.
    put("ceems_compute_unit_cpu_usage_seconds_total",
        {host, group, {"uuid", "2"}, {"mode", "user"}}, t, sec * 2);
    put("ceems_compute_unit_memory_current_bytes",
        {host, group, {"uuid", "2"}}, t, 10e9);
  }

  RuleEvalStats stats = engine.evaluate_all(120000);
  EXPECT_EQ(stats.rule_failures, 0u);

  auto result = store->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "ceems_job_power_watts"}},
      120000, 120000);
  ASSERT_EQ(result.size(), 2u);
  // Budget: 0.9×300 = 270 W; cpu split 120/150 → 216 W, dram → 54 W.
  // Job1: 216×0.8 + 54×(30/40) + 0.1×300/2 = 172.8 + 40.5 + 15 = 228.3.
  // Job2: 216×0.2 + 54×(10/40) + 15 = 43.2 + 13.5 + 15 = 71.7.
  double job1 = 0, job2 = 0;
  for (const auto& series : result) {
    double v = series.samples().back().v;
    if (*series.labels.get("uuid") == "1") job1 = v;
    else job2 = v;
  }
  EXPECT_NEAR(job1, 228.3, 0.5);
  EXPECT_NEAR(job2, 71.7, 0.5);
  // Conservation: jobs sum to the attributable node budget (0.9+0.1 = all
  // of IPMI).
  EXPECT_NEAR(job1 + job2, 300.0, 1.0);
}

// The shipped YAML rule file (etc/rules/jean-zay.rules.yaml) parses and
// produces the same ceems_job_power_watts as the in-code library for an
// Intel host.
TEST(RulesLibrary, YamlRuleFileMatchesLibrary) {
  std::ifstream in(std::string(CEEMS_SOURCE_DIR) +
                   "/etc/rules/jean-zay.rules.yaml");
  ASSERT_TRUE(in.good()) << "rule file missing";
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto groups = parse_rule_groups(common::parse_yaml(buffer.str()));
  ASSERT_GE(groups.size(), 4u);

  auto run = [](RuleEngine& engine, StorePtr store) {
    auto put = [&](const std::string& name,
                   std::initializer_list<Labels::Pair> pairs, TimestampMs t,
                   double v) {
      append_one(*store, Labels(pairs).with_name(name), t, v);
    };
    Labels::Pair host{"hostname", "n1"};
    Labels::Pair group{"nodegroup", "intel-cpu"};
    for (int i = 0; i <= 4; ++i) {
      TimestampMs t = i * 30000;
      double sec = i * 30.0;
      put("ceems_rapl_package_joules_total", {host, group}, t, sec * 120);
      put("ceems_rapl_dram_joules_total", {host, group}, t, sec * 30);
      put("ceems_ipmi_dcmi_current_watts", {host, group}, t, 300);
      put("node_cpu_seconds_total", {host, group, {"mode", "user"}}, t,
          sec * 10);
      put("node_cpu_seconds_total", {host, group, {"mode", "idle"}}, t,
          sec * 30);
      put("node_memory_MemTotal_bytes", {host, group}, t, 100e9);
      put("node_memory_MemAvailable_bytes", {host, group}, t, 60e9);
      put("ceems_compute_units", {host, group}, t, 1);
      put("ceems_compute_unit_cpu_usage_seconds_total",
          {host, group, {"uuid", "1"}, {"mode", "user"}}, t, sec * 10);
      put("ceems_compute_unit_memory_current_bytes",
          {host, group, {"uuid", "1"}}, t, 40e9);
    }
    engine.evaluate_all(120000);
    auto result = store->select(
        {{"__name__", metrics::LabelMatcher::Op::kEq,
          "ceems_job_power_watts"}},
        120000, 120000);
    return result.empty() ? 0.0 : result[0].samples().back().v;
  };

  StorePtr yaml_store = std::make_shared<TimeSeriesStore>();
  RuleEngine yaml_engine(yaml_store);
  for (auto& group : groups) yaml_engine.add_group(std::move(group));
  double yaml_watts = run(yaml_engine, yaml_store);

  StorePtr lib_store = std::make_shared<TimeSeriesStore>();
  RuleEngine lib_engine(lib_store);
  for (auto& group : core::jean_zay_rule_groups()) {
    lib_engine.add_group(std::move(group));
  }
  double lib_watts = run(lib_engine, lib_store);

  EXPECT_GT(yaml_watts, 100.0);
  EXPECT_NEAR(yaml_watts, lib_watts, 1e-6);
}

}  // namespace
}  // namespace ceems::tsdb
