// Alerting-rule engine tests: the pending→firing→resolved lifecycle, `for`
// durations, the ALERTS series, YAML parsing, and the shipped CEEMS alert
// set against a simulated exporter outage.
#include <gtest/gtest.h>

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

class AlertsTest : public ::testing::Test {
 protected:
  AlertsTest() : store_(std::make_shared<TimeSeriesStore>()), engine_(store_) {
    RuleGroup group;
    group.name = "alerts";
    AlertingRule rule;
    rule.alert = "TargetDown";
    rule.expr = "up == 0";
    rule.for_ms = 60000;
    rule.static_labels = {{"severity", "critical"}};
    group.alerts.push_back(rule);
    engine_.add_group(std::move(group));
  }

  void set_up_metric(const std::string& host, common::TimestampMs t,
                     double value) {
    append_one(*store_, named("up", {{"hostname", host}}), t, value);
  }

  StorePtr store_;
  RuleEngine engine_;
};

TEST_F(AlertsTest, PendingThenFiringAfterForDuration) {
  set_up_metric("n1", 0, 0);  // down
  RuleEvalStats first = engine_.evaluate_all(0);
  EXPECT_EQ(first.alerts_pending, 1u);
  EXPECT_EQ(first.alerts_firing, 0u);
  auto active = engine_.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].state, AlertState::kPending);
  EXPECT_EQ(*active[0].labels.get("severity"), "critical");

  set_up_metric("n1", 30000, 0);
  EXPECT_EQ(engine_.evaluate_all(30000).alerts_pending, 1u);

  set_up_metric("n1", 60000, 0);
  RuleEvalStats third = engine_.evaluate_all(60000);
  EXPECT_EQ(third.alerts_firing, 1u);
  active = engine_.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].state, AlertState::kFiring);

  // Firing alerts appear as ALERTS series.
  auto alerts_series = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "ALERTS"},
       {"alertstate", metrics::LabelMatcher::Op::kEq, "firing"}},
      0, 60000);
  ASSERT_EQ(alerts_series.size(), 1u);
  EXPECT_EQ(*alerts_series[0].labels.get("alertname"), "TargetDown");
}

TEST_F(AlertsTest, RecoveryResolvesBeforeFiring) {
  set_up_metric("n1", 0, 0);
  engine_.evaluate_all(0);
  EXPECT_EQ(engine_.active_alerts().size(), 1u);
  // Back up before the `for` window elapses: pending alert resolves and
  // a later outage starts a fresh clock.
  set_up_metric("n1", 30000, 1);
  engine_.evaluate_all(30000);
  EXPECT_TRUE(engine_.active_alerts().empty());

  set_up_metric("n1", 60000, 0);
  RuleEvalStats stats = engine_.evaluate_all(60000);
  EXPECT_EQ(stats.alerts_pending, 1u);  // pending again, not firing
  EXPECT_EQ(stats.alerts_firing, 0u);
}

TEST_F(AlertsTest, PerSeriesAlertInstances) {
  set_up_metric("n1", 0, 0);
  set_up_metric("n2", 0, 0);
  set_up_metric("n3", 0, 1);
  engine_.evaluate_all(0);
  EXPECT_EQ(engine_.active_alerts().size(), 2u);
  // One recovers, the other keeps its clock and eventually fires.
  set_up_metric("n1", 70000, 1);
  set_up_metric("n2", 70000, 0);
  RuleEvalStats stats = engine_.evaluate_all(70000);
  EXPECT_EQ(stats.alerts_firing, 1u);
  auto active = engine_.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(*active[0].labels.get("hostname"), "n2");
}

TEST_F(AlertsTest, ResolvedAlertEndsSeriesWithStalenessMarker) {
  // Fire, then recover: the ALERTS{alertstate="firing"} series must end
  // with a staleness marker at the resolving evaluation, so instant
  // queries drop it immediately instead of replaying the last 1-sample
  // for a full lookback window.
  for (common::TimestampMs t = 0; t <= 120000; t += 30000) {
    set_up_metric("n1", t, 0);
    engine_.evaluate_all(t);
  }
  EXPECT_EQ(engine_.active_alerts().size(), 1u);
  set_up_metric("n1", 150000, 1);  // recovered
  engine_.evaluate_all(150000);
  EXPECT_TRUE(engine_.active_alerts().empty());

  auto alerts_series = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "ALERTS"}}, 0, 200000);
  ASSERT_EQ(alerts_series.size(), 1u);
  auto samples = alerts_series[0].materialize().samples;
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.back().t, 150000);
  EXPECT_TRUE(metrics::is_stale_marker(samples.back().v));

  // While firing the instant selector sees the alert; one step after
  // resolution it is gone — well inside the 5-minute lookback.
  promql::Engine promql_engine;
  auto firing = promql_engine.eval(*store_, "ALERTS", 120000);
  EXPECT_EQ(firing.vector.size(), 1u);
  auto resolved = promql_engine.eval(*store_, "ALERTS", 150000);
  EXPECT_TRUE(resolved.vector.empty());
  auto later = promql_engine.eval(*store_, "ALERTS", 180000);
  EXPECT_TRUE(later.vector.empty());
}

// A pending alert that recovers never wrote ALERTS samples, so it must
// not write a marker either (no phantom one-sample series).
TEST_F(AlertsTest, PendingRecoveryWritesNoMarker) {
  set_up_metric("n1", 0, 0);
  engine_.evaluate_all(0);
  set_up_metric("n1", 30000, 1);
  engine_.evaluate_all(30000);
  auto alerts_series = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "ALERTS"}}, 0, 60000);
  EXPECT_TRUE(alerts_series.empty());
}

TEST(AlertsParsing, YamlAlertRules) {
  auto root = common::parse_yaml(
      "groups:\n"
      "  - name: ops\n"
      "    rules:\n"
      "      - alert: HighPower\n"
      "        expr: watts > 1000\n"
      "        for: 5m\n"
      "        labels:\n"
      "          severity: warning\n"
      "      - record: a:b\n"
      "        expr: up\n");
  auto groups = parse_rule_groups(root);
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].alerts.size(), 1u);
  ASSERT_EQ(groups[0].rules.size(), 1u);
  EXPECT_EQ(groups[0].alerts[0].alert, "HighPower");
  EXPECT_EQ(groups[0].alerts[0].for_ms, 5 * common::kMillisPerMinute);
  ASSERT_EQ(groups[0].alerts[0].static_labels.size(), 1u);
}

TEST(AlertsParsing, InvalidAlertRejectedAtLoad) {
  auto store = std::make_shared<TimeSeriesStore>();
  RuleEngine engine(store);
  RuleGroup group;
  AlertingRule unnamed;
  unnamed.expr = "up == 0";
  group.alerts.push_back(unnamed);
  EXPECT_THROW(engine.add_group(std::move(group)), promql::ParseError);

  RuleGroup bad_expr;
  AlertingRule broken;
  broken.alert = "X";
  broken.expr = "sum((";
  bad_expr.alerts.push_back(broken);
  EXPECT_THROW(engine.add_group(std::move(bad_expr)), promql::ParseError);
}

TEST(CeemsAlerts, ExporterOutageFiresShippedRule) {
  auto store = std::make_shared<TimeSeriesStore>();
  RuleEngine engine(store);
  for (auto& group : core::ceems_alert_rules()) {
    engine.add_group(std::move(group));
  }
  // Healthy scrape generations, then an outage longer than `for: 2m`.
  auto put_up = [&](common::TimestampMs t, double value) {
    append_one(*store, named("up", {{"hostname", "jzcpu7"}}), t, value);
    append_one(*store, named("ceems_emissions_gCo2_kWh",
                        {{"provider", "rte"}, {"country_code", "FR"}}),
                  t, 50);
  };
  common::TimestampMs t = 0;
  for (; t <= 120000; t += 30000) {
    put_up(t, 1);
    EXPECT_EQ(engine.evaluate_all(t).alerts_firing, 0u);
  }
  RuleEvalStats stats;
  for (; t <= 360000; t += 30000) {
    put_up(t, 0);
    stats = engine.evaluate_all(t);
  }
  EXPECT_EQ(stats.alerts_firing, 1u);
  auto active = engine.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].name, "CeemsExporterDown");
}

}  // namespace
}  // namespace ceems::tsdb
