#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>

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

TEST_F(RulesTest, DuplicateOutputLabelsetIsARuleFailure) {
  // Two input series that differ only in what the rule replaces — their
  // name (with_name) or a static label — would land on one output series.
  // Prometheus rejects such a result; nothing of it is written.
  append_one(*store_, named("m1", {{"h", "a"}}), 1000, 1);
  append_one(*store_, named("m2", {{"h", "a"}}), 1000, 2);
  append_one(*store_, named("m", {{"k", "1"}}), 1000, 3);
  append_one(*store_, named("m", {{"k", "2"}}), 1000, 4);
  RuleGroup group;
  group.name = "g";
  group.rules = {{"by_name", "{__name__=~\"m1|m2\"}", {}, nullptr},
                 {"by_static", "m", {{"k", "z"}}, nullptr},
                 {"distinct", "m", {{"s", "z"}}, nullptr}};
  engine_.add_group(std::move(group));

  ::testing::internal::CaptureStderr();
  RuleEvalStats stats = engine_.evaluate_all(1000);
  std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats.rule_failures, 2u);
  EXPECT_EQ(stats.samples_written, 2u);  // only "distinct"
  for (const char* record : {"by_name", "by_static"}) {
    EXPECT_TRUE(store_
                    ->select({{"__name__", metrics::LabelMatcher::Op::kEq,
                               record}},
                             0, 2000)
                    .empty())
        << record;
    EXPECT_NE(log.find(std::string("rules: rule ") + record +
                       ": vector contains metrics with the same labelset"),
              std::string::npos)
        << log;
  }
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

// ---- the conflict graph: a pool pass equals the inline pass ----

// Label text and raw sample bits of every series in the store.
std::string store_digest(const TimeSeriesStore& store) {
  std::string out;
  for (const auto& view :
       store.select({}, std::numeric_limits<TimestampMs>::min(),
                    std::numeric_limits<TimestampMs>::max())) {
    out += view.labels.to_labels().to_string() + "\n";
    for (const auto& sample : view.samples()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &sample.v, sizeof(bits));
      out += " " + std::to_string(sample.t) + ":" + std::to_string(bits);
    }
    out += "\n";
  }
  return out;
}

// Terms that cost a few milliseconds and add nothing. Rules that carry
// one finish well after rules that do not, so a missing edge shows up as
// a pool pass that differs from the inline one. The left operand is
// evaluated first: kSlowThen delays the selectors after it.
const std::string kSlow =
    " + on() group_left() (sum(rate(heavy[5m])) * 0)";
const std::string kSlowThen = "(sum(rate(heavy[5m])) * 0) + on() group_left() ";

void put_heavy(TimeSeriesStore& store, TimestampMs t) {
  for (int i = 0; i < 2000; ++i) {
    append_one(store, named("heavy", {{"i", std::to_string(i)}}), t,
               static_cast<double>(t / 1000 + i));
  }
}

// Engine options that run rule passes on a fresh 4-thread pool.
promql::EngineOptions on_pool() {
  promql::EngineOptions options;
  options.pool = std::make_shared<common::ThreadPool>(4, "rules-test");
  return options;
}

// Runs `groups` on an inline engine and a 4-thread-pool engine over two
// stores fed the same raw samples, and requires equal stats and equal
// stores after every pass. `feed(store, t)` writes the raw samples of
// instant t; `due` picks evaluate_due over evaluate_all.
void expect_graph_matches_inline(
    const std::vector<RuleGroup>& groups,
    const std::function<void(TimeSeriesStore&, TimestampMs)>& feed,
    const std::vector<TimestampMs>& times, bool due = false) {
  auto inline_store = std::make_shared<TimeSeriesStore>();
  auto pool_store = std::make_shared<TimeSeriesStore>();
  RuleEngine inline_engine(inline_store);
  RuleEngine pool_engine(pool_store, on_pool());
  for (const auto& group : groups) {
    inline_engine.add_group(group);
    pool_engine.add_group(group);
  }
  for (TimestampMs t : times) {
    feed(*inline_store, t);
    feed(*pool_store, t);
    RuleEvalStats want =
        due ? inline_engine.evaluate_due(t) : inline_engine.evaluate_all(t);
    RuleEvalStats got =
        due ? pool_engine.evaluate_due(t) : pool_engine.evaluate_all(t);
    EXPECT_EQ(got.rules_evaluated, want.rules_evaluated) << "t=" << t;
    EXPECT_EQ(got.samples_written, want.samples_written) << "t=" << t;
    EXPECT_EQ(got.rule_failures, want.rule_failures) << "t=" << t;
    ASSERT_EQ(store_digest(*pool_store), store_digest(*inline_store))
        << "t=" << t;
  }
}

RuleGroup group_of(std::string name, std::vector<RecordingRule> rules,
                   int64_t interval_ms = 30000) {
  RuleGroup group;
  group.name = std::move(name);
  group.interval_ms = interval_ms;
  group.rules = std::move(rules);
  return group;
}

void feed_a(TimeSeriesStore& store, TimestampMs t) {
  put_heavy(store, t);
  append_one(store, named("a"), t, static_cast<double>(t / 1000));
}

TEST(RulesGraph, ReadOfLaterGroupsRecordSeesPreviousInstant) {
  // "early" reads late:x, which a later group writes: at each instant it
  // must still see the previous instant's late:x (write-after-read).
  std::vector<RuleGroup> groups = {
      group_of("early", {{"early:copy", kSlowThen + "late:x", {}, nullptr}}),
      group_of("late", {{"late:x", "a * 2", {}, nullptr}})};
  auto store = std::make_shared<TimeSeriesStore>();
  RuleEngine engine(store, on_pool());
  for (const auto& group : groups) engine.add_group(group);
  feed_a(*store, 1000);
  engine.evaluate_all(1000);
  feed_a(*store, 2000);
  engine.evaluate_all(2000);
  auto copy = store->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "early:copy"}}, 0, 3000);
  ASSERT_EQ(copy.size(), 1u);
  // At 1000 late:x did not exist yet; at 2000 it reads late:x@1000 = 2.
  ASSERT_EQ(copy[0].samples().size(), 1u);
  EXPECT_EQ(copy[0].samples()[0].t, 2000);
  EXPECT_DOUBLE_EQ(copy[0].samples()[0].v, 2);

  expect_graph_matches_inline(groups, feed_a, {1000, 2000, 3000, 4000});
}

TEST(RulesGraph, SameRecordWritersKeepDeclarationOrder) {
  // Three groups write the same series at the same instant; the last
  // write wins, so the store shows whether the order held
  // (write-after-write). The slow writer comes first.
  std::vector<RuleGroup> groups = {
      group_of("one", {{"budget", "a * 1" + kSlow, {}, nullptr}}),
      group_of("two", {{"budget", "a * 2", {}, nullptr}}),
      group_of("three", {{"reader", "budget", {}, nullptr}})};
  expect_graph_matches_inline(groups, feed_a, {1000, 2000, 3000});

  auto store = std::make_shared<TimeSeriesStore>();
  RuleEngine engine(store, on_pool());
  for (const auto& group : groups) engine.add_group(group);
  feed_a(*store, 5000);
  engine.evaluate_all(5000);
  auto reader = store->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "reader"}}, 0, 6000);
  ASSERT_EQ(reader.size(), 1u);
  EXPECT_DOUBLE_EQ(reader[0].samples().back().v, 10);
}

TEST(RulesGraph, SelectorWithoutFixedNameIsABarrier) {
  // A regex __name__ or a selector of only non-name matchers may read any
  // rule's output, before or after it in declaration order.
  for (const std::string& any :
       {std::string("{__name__=~\"slow:.*\"}"), std::string("{kind=\"s\"}")}) {
    SCOPED_TRACE(any);
    std::vector<RuleGroup> groups = {
        group_of("before", {{"before:count", kSlowThen + "count(" + any + ")",
                             {}, nullptr}}),
        group_of("writer",
                 {{"slow:x", "a" + kSlow, {{"kind", "s"}}, nullptr},
                  {"slow:y", "a * 3", {{"kind", "s"}}, nullptr}}),
        group_of("after", {{"after:count", "count(" + any + ")", {}, nullptr}})};
    expect_graph_matches_inline(groups, feed_a, {1000, 2000, 3000});
  }
}

TEST(RulesGraph, EvaluateDueRunsASubsetInOrder) {
  // A fast group reads the output of a slow-interval group declared
  // before it and feeds one declared after it; only some passes run all
  // three.
  std::vector<RuleGroup> groups = {
      group_of("hourly", {{"hourly:x", "a" + kSlow, {}, nullptr}}, 4000),
      group_of("fast", {{"fast:y", "hourly:x + a" + kSlow, {}, nullptr},
                        {"fast:z", "a * 5", {}, nullptr}},
               1000),
      group_of("mid", {{"mid:w", "fast:y + fast:z + hourly:x", {}, nullptr}},
               2000)};
  expect_graph_matches_inline(groups, feed_a,
                              {0, 1000, 2000, 3000, 4000, 5000, 6000},
                              /*due=*/true);
}

TEST(RulesGraph, ThrowingRuleCountedOnceDependentsRunAsSerially) {
  auto feed = [](TimeSeriesStore& store, TimestampMs t) {
    feed_a(store, t);
    append_one(store, named("b", {{"j", "1"}}), t, 1);
    append_one(store, named("b", {{"j", "2"}}), t, 2);
  };
  // "x" fails with a many-to-many match; "y" reads x and falls back to a.
  std::vector<RuleGroup> groups = {
      group_of("bad", {{"x", "a * on() group_left() b" + kSlow, {}, nullptr},
                       {"fine", "a * 2", {}, nullptr}}),
      group_of("dependent", {{"y", "x or a", {}, nullptr}})};
  expect_graph_matches_inline(groups, feed, {1000, 2000});

  auto store = std::make_shared<TimeSeriesStore>();
  RuleEngine engine(store, on_pool());
  for (const auto& group : groups) engine.add_group(group);
  feed(*store, 1000);
  RuleEvalStats stats = engine.evaluate_all(1000);
  EXPECT_EQ(stats.rules_evaluated, 3u);
  EXPECT_EQ(stats.rule_failures, 1u);
  EXPECT_EQ(stats.samples_written, 2u);  // fine and y
}

TEST(RulesGraph, PassesRaceActiveAlerts) {
  // Graph passes on a pool while another thread snapshots the alerts.
  auto store = std::make_shared<TimeSeriesStore>();
  RuleEngine engine(store, on_pool());
  RuleGroup alerts;
  alerts.name = "alerts";
  for (const char* name : {"Low", "High"}) {
    AlertingRule rule;
    rule.alert = name;
    rule.expr = std::string("load ") + (name[0] == 'L' ? "< 5" : ">= 5");
    alerts.alerts.push_back(rule);
  }
  alerts.rules = {{"load:copy", "load", {}, nullptr}};
  engine.add_group(alerts);
  engine.add_group(group_of("other", {{"load:double", "load * 2", {}, nullptr}}));

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> snapshots{0};
  std::thread reader([&] {
    while (!stop.load()) {
      for (const auto& alert : engine.active_alerts()) {
        EXPECT_EQ(alert.state, AlertState::kFiring);
      }
      ++snapshots;
    }
  });
  // The 50 passes take a few milliseconds: start them only once the
  // reader runs, or a busy machine may not schedule it before they end.
  while (snapshots.load() == 0) std::this_thread::yield();
  for (int pass = 0; pass < 50; ++pass) {
    TimestampMs t = pass * 1000;
    for (int h = 0; h < 8; ++h) {
      append_one(*store, named("load", {{"h", std::to_string(h)}}), t,
                 static_cast<double>((pass + h) % 10));
    }
    RuleEvalStats stats = engine.evaluate_all(t);
    EXPECT_EQ(stats.alerts_firing, 8u);
    EXPECT_EQ(stats.samples_written, 16u);
  }
  stop = true;
  reader.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(engine.active_alerts().size(), 8u);
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
