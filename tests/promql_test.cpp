#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "http/message.h"
#include "tsdb/http_api.h"
#include "tsdb/promql_eval.h"
#include "append_one.h"

namespace ceems::tsdb::promql {
namespace {

using common::kMillisPerMinute;

class PromqlTest : public ::testing::Test {
 protected:
  void add(const Labels& labels, TimestampMs t, double v) {
    append_one(store_, labels, t, v);
  }
  Labels named(const std::string& name,
               std::initializer_list<Labels::Pair> pairs = {}) {
    return Labels(pairs).with_name(name);
  }
  Value eval(const std::string& expr, TimestampMs t) {
    return engine_.eval(store_, expr, t);
  }
  // Single-sample convenience.
  double eval1(const std::string& expr, TimestampMs t) {
    Value value = eval(expr, t);
    EXPECT_EQ(value.kind, Value::Kind::kVector) << expr;
    EXPECT_EQ(value.vector.size(), 1u) << expr;
    return value.vector.empty() ? std::nan("") : value.vector[0].value;
  }

  TimeSeriesStore store_;
  Engine engine_;
};

// ---------- parser ----------

TEST(Parser, PrecedenceAndAssociativity) {
  EXPECT_EQ(parse("1 + 2 * 3")->to_string(), "(1 + (2 * 3))");
  EXPECT_EQ(parse("1 * 2 + 3")->to_string(), "((1 * 2) + 3)");
  EXPECT_EQ(parse("2 ^ 3 ^ 2")->to_string(), "(2 ^ (3 ^ 2))");
  EXPECT_EQ(parse("-1 + 2")->to_string(), "(-1 + 2)");
}

TEST(Parser, SelectorsWithMatchersRangeOffset) {
  ExprPtr expr = parse("up{job=\"x\",mode!=\"idle\"}[5m] offset 1h");
  EXPECT_EQ(expr->kind, Expr::Kind::kMatrixSelector);
  EXPECT_EQ(expr->metric_name, "up");
  ASSERT_EQ(expr->matchers.size(), 2u);
  EXPECT_EQ(expr->matchers[1].op, metrics::LabelMatcher::Op::kNe);
  EXPECT_EQ(expr->range_ms, 5 * kMillisPerMinute);
  EXPECT_EQ(expr->offset_ms, 60 * kMillisPerMinute);
}

TEST(Parser, AggregateBothClausePositions) {
  ExprPtr leading = parse("sum by (host) (up)");
  EXPECT_TRUE(leading->agg_by);
  ASSERT_EQ(leading->grouping.size(), 1u);
  ExprPtr trailing = parse("sum(up) by (host)");
  EXPECT_EQ(trailing->grouping, leading->grouping);
  ExprPtr without = parse("sum without (host) (up)");
  EXPECT_FALSE(without->agg_by);
  EXPECT_TRUE(without->agg_grouped);
}

TEST(Parser, VectorMatchingClauses) {
  ExprPtr expr = parse("a / on(host) group_left() b");
  EXPECT_TRUE(expr->matching.is_on);
  EXPECT_EQ(expr->matching.group, VectorMatching::Group::kLeft);
  ExprPtr ignoring = parse("a * ignoring(mode) b");
  EXPECT_FALSE(ignoring->matching.is_on);
  ASSERT_EQ(ignoring->matching.labels.size(), 1u);
}

TEST(Parser, ColonsInRecordNames) {
  ExprPtr expr = parse("instance:cpu_busy_rate{nodegroup=\"intel-cpu\"}");
  EXPECT_EQ(expr->metric_name, "instance:cpu_busy_rate");
}

TEST(Parser, ErrorsThrow) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("sum("), ParseError);
  EXPECT_THROW(parse("up{job=}"), ParseError);
  EXPECT_THROW(parse("up[5m"), ParseError);
  EXPECT_THROW(parse("1 +"), ParseError);
  EXPECT_THROW(parse("(1"), ParseError);
  EXPECT_THROW(parse("up @ 5"), ParseError);
}

// ---------- selectors & lookback ----------

TEST_F(PromqlTest, InstantSelectorUsesLatestWithinLookback) {
  add(named("up", {{"h", "a"}}), 1000, 1);
  add(named("up", {{"h", "a"}}), 61000, 0);
  EXPECT_DOUBLE_EQ(eval1("up", 61000), 0);
  EXPECT_DOUBLE_EQ(eval1("up", 60000), 1);
  // Beyond the 5m lookback: empty vector.
  Value stale = eval("up", 61000 + 5 * kMillisPerMinute + 1);
  EXPECT_TRUE(stale.vector.empty());
}

TEST_F(PromqlTest, OffsetShiftsEvaluationTime) {
  add(named("m"), 10000, 5);
  add(named("m"), 70000, 9);
  EXPECT_DOUBLE_EQ(eval1("m offset 1m", 70000), 5);
}

TEST_F(PromqlTest, NamelessSelectorMatchesByLabel) {
  add(named("a", {{"uuid", "7"}}), 1000, 1);
  add(named("b", {{"uuid", "7"}}), 1000, 2);
  Value value = eval("{uuid=\"7\"}", 1000);
  EXPECT_EQ(value.vector.size(), 2u);
}

// ---------- range functions ----------

TEST_F(PromqlTest, RateOverCounter) {
  // 10 J/s counter sampled every 30 s.
  for (int i = 0; i <= 4; ++i) {
    add(named("joules_total"), i * 30000, i * 300.0);
  }
  EXPECT_NEAR(eval1("rate(joules_total[2m])", 120000), 10.0, 1e-9);
  // Left-open window (t-2m, t] holds the samples at 30..120 s: the
  // observed counter delta is 900 J (no boundary extrapolation — see the
  // documented deviation in promql_eval.h).
  EXPECT_NEAR(eval1("increase(joules_total[2m])", 120000), 900.0, 1e-9);
}

TEST_F(PromqlTest, RateHandlesCounterReset) {
  add(named("c"), 0, 100);
  add(named("c"), 30000, 200);
  add(named("c"), 60000, 50);  // reset
  add(named("c"), 90000, 150);
  // increase = 100 + 50 (post-reset absolute) + 100 = 250 over 90 s.
  EXPECT_NEAR(eval1("increase(c[2m])", 90000), 250.0, 1e-9);
  EXPECT_NEAR(eval1("resets(c[2m])", 90000), 1.0, 1e-9);
}

TEST_F(PromqlTest, OverTimeFunctions) {
  for (int i = 1; i <= 4; ++i) {
    add(named("g"), i * 10000, i * 1.0);  // 1,2,3,4
  }
  EXPECT_DOUBLE_EQ(eval1("avg_over_time(g[1m])", 40000), 2.5);
  EXPECT_DOUBLE_EQ(eval1("sum_over_time(g[1m])", 40000), 10.0);
  EXPECT_DOUBLE_EQ(eval1("min_over_time(g[1m])", 40000), 1.0);
  EXPECT_DOUBLE_EQ(eval1("max_over_time(g[1m])", 40000), 4.0);
  EXPECT_DOUBLE_EQ(eval1("count_over_time(g[1m])", 40000), 4.0);
  EXPECT_DOUBLE_EQ(eval1("last_over_time(g[1m])", 40000), 4.0);
  EXPECT_DOUBLE_EQ(eval1("delta(g[1m])", 40000), 3.0);
  EXPECT_NEAR(eval1("deriv(g[1m])", 40000), 0.1, 1e-12);  // 3 over 30 s
}

TEST_F(PromqlTest, IrateUsesLastTwoSamples) {
  add(named("c"), 0, 0);
  add(named("c"), 30000, 300);
  add(named("c"), 60000, 1200);  // 30 J/s over the last 30 s
  EXPECT_NEAR(eval1("irate(c[2m])", 60000), 30.0, 1e-9);
}

TEST_F(PromqlTest, RangeIsLeftOpen) {
  add(named("c"), 0, 0);
  add(named("c"), 60000, 60);
  // [1m] at t=60000 covers (0, 60000]; only one sample → no rate.
  Value value = eval("rate(c[1m])", 60000);
  EXPECT_TRUE(value.vector.empty());
}

// ---------- binary operators ----------

TEST_F(PromqlTest, VectorScalarArithmetic) {
  add(named("m", {{"h", "a"}}), 1000, 10);
  EXPECT_DOUBLE_EQ(eval1("m * 3 + 1", 1000), 31);
  EXPECT_DOUBLE_EQ(eval1("100 / m", 1000), 10);
  EXPECT_DOUBLE_EQ(eval1("-m", 1000), -10);
  Value scalar = eval("2 ^ 10", 1000);
  EXPECT_EQ(scalar.kind, Value::Kind::kScalar);
  EXPECT_DOUBLE_EQ(scalar.scalar, 1024);
}

TEST_F(PromqlTest, OneToOneMatchingOnIdenticalLabels) {
  add(named("a", {{"h", "x"}}), 1000, 10);
  add(named("a", {{"h", "y"}}), 1000, 20);
  add(named("b", {{"h", "x"}}), 1000, 2);
  add(named("b", {{"h", "y"}}), 1000, 4);
  Value value = eval("a / b", 1000);
  ASSERT_EQ(value.vector.size(), 2u);
  for (const auto& sample : value.vector) {
    EXPECT_DOUBLE_EQ(sample.value, 5);
    EXPECT_FALSE(sample.labels.to_labels().has("__name__"));
  }
}

TEST_F(PromqlTest, GroupLeftManyToOne) {
  add(named("job_cpu", {{"h", "x"}, {"uuid", "1"}}), 1000, 30);
  add(named("job_cpu", {{"h", "x"}, {"uuid", "2"}}), 1000, 10);
  add(named("node_cpu", {{"h", "x"}}), 1000, 40);
  Value value = eval("job_cpu / on(h) group_left() node_cpu", 1000);
  ASSERT_EQ(value.vector.size(), 2u);
  double total = 0;
  for (const auto& sample : value.vector) {
    EXPECT_TRUE(sample.labels.to_labels().has("uuid"));  // many-side labels kept
    total += sample.value;
  }
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST_F(PromqlTest, GroupRightSwapsRoles) {
  add(named("one", {{"h", "x"}}), 1000, 100);
  add(named("many", {{"h", "x"}, {"uuid", "1"}}), 1000, 25);
  Value value = eval("one * on(h) group_right() many", 1000);
  ASSERT_EQ(value.vector.size(), 1u);
  EXPECT_DOUBLE_EQ(value.vector[0].value, 2500);
  EXPECT_TRUE(value.vector[0].labels.to_labels().has("uuid"));
}

TEST_F(PromqlTest, GroupLeftIncludeCopiesLabels) {
  add(named("flag", {{"h", "x"}, {"uuid", "1"}, {"gpu_uuid", "G-0"}}), 1000, 1);
  add(named("power", {{"h", "x"}, {"gpu_uuid", "G-0"}, {"model", "V100"}}),
      1000, 250);
  Value value =
      eval("flag * on(h, gpu_uuid) group_left(model) power", 1000);
  ASSERT_EQ(value.vector.size(), 1u);
  EXPECT_EQ(*value.vector[0].labels.get("model"), "V100");
  EXPECT_DOUBLE_EQ(value.vector[0].value, 250);
}

TEST_F(PromqlTest, ManyToManyThrows) {
  add(named("a", {{"h", "x"}, {"i", "1"}}), 1000, 1);
  add(named("b", {{"h", "x"}, {"j", "1"}}), 1000, 1);
  add(named("b", {{"h", "x"}, {"j", "2"}}), 1000, 1);
  EXPECT_THROW(eval("a * on(h) group_left() b", 1000), EvalError);
}

TEST_F(PromqlTest, ComparisonFilterAndBool) {
  add(named("v", {{"h", "a"}}), 1000, 5);
  add(named("v", {{"h", "b"}}), 1000, 15);
  Value filtered = eval("v > 10", 1000);
  ASSERT_EQ(filtered.vector.size(), 1u);
  EXPECT_DOUBLE_EQ(filtered.vector[0].value, 15);  // original value kept
  EXPECT_EQ(filtered.vector[0].labels.name(), "v");

  Value boolean = eval("v > bool 10", 1000);
  ASSERT_EQ(boolean.vector.size(), 2u);
  EXPECT_DOUBLE_EQ(boolean.vector[0].value + boolean.vector[1].value, 1);
}

TEST_F(PromqlTest, SetOperators) {
  add(named("a", {{"h", "x"}}), 1000, 1);
  add(named("a", {{"h", "y"}}), 1000, 2);
  add(named("b", {{"h", "y"}}), 1000, 3);
  add(named("b", {{"h", "z"}}), 1000, 4);
  EXPECT_EQ(eval("a and on(h) b", 1000).vector.size(), 1u);
  EXPECT_EQ(eval("a or on(h) b", 1000).vector.size(), 3u);
  Value unless = eval("a unless on(h) b", 1000);
  ASSERT_EQ(unless.vector.size(), 1u);
  EXPECT_EQ(*unless.vector[0].labels.get("h"), "x");
}

TEST_F(PromqlTest, DivisionByZeroVector) {
  add(named("num", {{"h", "x"}}), 1000, 5);
  add(named("den", {{"h", "x"}}), 1000, 0);
  Value value = eval("num / den", 1000);
  ASSERT_EQ(value.vector.size(), 1u);
  EXPECT_TRUE(std::isinf(value.vector[0].value));
}

// ---------- aggregations ----------

TEST_F(PromqlTest, SumByGroups) {
  add(named("m", {{"h", "a"}, {"mode", "user"}}), 1000, 1);
  add(named("m", {{"h", "a"}, {"mode", "sys"}}), 1000, 2);
  add(named("m", {{"h", "b"}, {"mode", "user"}}), 1000, 4);
  Value value = eval("sum by (h) (m)", 1000);
  ASSERT_EQ(value.vector.size(), 2u);
  EXPECT_DOUBLE_EQ(value.vector[0].value, 3);  // h=a sorted first
  EXPECT_DOUBLE_EQ(value.vector[1].value, 4);
  EXPECT_EQ(value.vector[0].labels.size(), 1u);
}

TEST_F(PromqlTest, SumWithoutDropsLabels) {
  add(named("m", {{"h", "a"}, {"mode", "user"}}), 1000, 1);
  add(named("m", {{"h", "a"}, {"mode", "sys"}}), 1000, 2);
  Value value = eval("sum without (mode) (m)", 1000);
  ASSERT_EQ(value.vector.size(), 1u);
  EXPECT_DOUBLE_EQ(value.vector[0].value, 3);
  EXPECT_TRUE(value.vector[0].labels.to_labels().has("h"));
  EXPECT_FALSE(value.vector[0].labels.to_labels().has("__name__"));
}

TEST_F(PromqlTest, GlobalAggregations) {
  for (int i = 1; i <= 4; ++i) {
    add(named("m", {{"i", std::to_string(i)}}), 1000, i);
  }
  EXPECT_DOUBLE_EQ(eval1("sum(m)", 1000), 10);
  EXPECT_DOUBLE_EQ(eval1("avg(m)", 1000), 2.5);
  EXPECT_DOUBLE_EQ(eval1("min(m)", 1000), 1);
  EXPECT_DOUBLE_EQ(eval1("max(m)", 1000), 4);
  EXPECT_DOUBLE_EQ(eval1("count(m)", 1000), 4);
  EXPECT_NEAR(eval1("stddev(m)", 1000), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(eval1("quantile(0.5, m)", 1000), 2.5);
}

TEST_F(PromqlTest, TopkBottomk) {
  for (int i = 1; i <= 5; ++i) {
    add(named("m", {{"i", std::to_string(i)}}), 1000, i);
  }
  Value top = eval("topk(2, m)", 1000);
  ASSERT_EQ(top.vector.size(), 2u);
  EXPECT_DOUBLE_EQ(top.vector[0].value + top.vector[1].value, 9);
  Value bottom = eval("bottomk(1, m)", 1000);
  ASSERT_EQ(bottom.vector.size(), 1u);
  EXPECT_DOUBLE_EQ(bottom.vector[0].value, 1);
}

// ---------- functions ----------

TEST_F(PromqlTest, MathAndClamp) {
  add(named("m"), 1000, -2.7);
  EXPECT_DOUBLE_EQ(eval1("abs(m)", 1000), 2.7);
  EXPECT_DOUBLE_EQ(eval1("ceil(m)", 1000), -2);
  EXPECT_DOUBLE_EQ(eval1("floor(m)", 1000), -3);
  EXPECT_DOUBLE_EQ(eval1("clamp_min(m, 0)", 1000), 0);
  EXPECT_DOUBLE_EQ(eval1("clamp_max(m, -5)", 1000), -5);
  EXPECT_DOUBLE_EQ(eval1("clamp(m, -1, 1)", 1000), -1);
}

TEST_F(PromqlTest, LabelReplace) {
  add(named("power", {{"UUID", "GPU-abc"}}), 1000, 200);
  Value value = eval(
      "label_replace(power, \"gpu_uuid\", \"$1\", \"UUID\", \"(.+)\")",
      1000);
  ASSERT_EQ(value.vector.size(), 1u);
  EXPECT_EQ(*value.vector[0].labels.get("gpu_uuid"), "GPU-abc");
}

// Values a query makes up must not stay in the process-wide symbol table,
// which never frees an entry: through the load balancer any client could
// grow it by one string per request.
TEST(HttpQueries, LabelReplaceDoesNotGrowSymbolTable) {
  auto store = std::make_shared<TimeSeriesStore>();
  for (int i = 0; i < 4; ++i) {
    std::string instance = "n";
    instance += std::to_string(i);
    append_one(*store, Labels{{"instance", instance}}.with_name("up"), 60'000,
               1);
  }
  PromApi api(store, common::make_sim_clock(120'000));
  auto get = [&api](const std::string& path, const std::string& query,
                    const std::string& rest) {
    http::Request request;
    request.method = "GET";
    request.target = path + "?query=" + http::url_encode(query) + rest;
    return path == "/api/v1/query" ? api.handle_query(request)
                                   : api.handle_query_range(request);
  };
  // Each query's JSON must hold every `needle`.
  auto expect_labels = [&get](const std::string& path, const std::string& rest,
                              const std::string& query,
                              const std::vector<std::string>& needles) {
    http::Response response = get(path, query, rest);
    ASSERT_EQ(response.status, 200) << query << " " << response.body;
    for (const auto& needle : needles) {
      EXPECT_NE(response.body.find(needle), std::string::npos)
          << path << " " << query << " lacks " << needle << ": "
          << response.body;
    }
  };
  // One round first, so anything the endpoints intern for themselves is
  // in the table before it is measured.
  auto round = [&expect_labels](int i) {
    const std::string tag = "qsym" + std::to_string(i);
    const std::string quoted = "\"" + tag + "\"";
    const std::string replace = "label_replace(up, " + quoted + ", \"" +
                                tag + "-$1\", \"instance\", \"(.*)\")";
    std::vector<std::string> replaced;
    for (int n = 0; n < 4; ++n) {
      replaced.push_back(quoted + ":\"" + tag + "-n" + std::to_string(n) +
                         "\"");
    }
    const std::string paths[] = {"/api/v1/query", "/api/v1/query_range"};
    for (const std::string& path : paths) {
      // 241 steps: split across the evaluation pool.
      const std::string rest =
          path == "/api/v1/query" ? "" : "&start=60&end=300&step=1";
      expect_labels(path, rest, replace, replaced);
      expect_labels(path, rest,
                    "label_join(up, \"" + tag + "j\", " + quoted +
                        ", \"instance\", \"instance\")",
                    {"\"" + tag + "j\":\"n0" + tag + "n0\""});
      // The made-up name is found again by `by` and by an outer
      // label_replace().
      expect_labels(path, rest, "count by (" + tag + ") (" + replace + ")",
                    replaced);
      expect_labels(path, rest,
                    "label_replace(" + replace + ", \"" + tag +
                        "o\", \"$1\", " + quoted + ", \"" + tag + "-(.*)\")",
                    {"\"" + tag + "o\":\"n3\""});
    }
  };
  round(0);
  const std::size_t before = metrics::SymbolTable::global().size();
  for (int i = 1; i <= 20; ++i) round(i);
  EXPECT_EQ(metrics::SymbolTable::global().size(), before);
}

TEST_F(PromqlTest, VectorScalarTimeAbsent) {
  EXPECT_EQ(eval("vector(42)", 1000).vector.size(), 1u);
  add(named("single"), 1000, 7);
  Value scalar = eval("scalar(single)", 1000);
  EXPECT_EQ(scalar.kind, Value::Kind::kScalar);
  EXPECT_DOUBLE_EQ(scalar.scalar, 7);
  Value time_value = eval("time()", 9000);
  EXPECT_DOUBLE_EQ(time_value.scalar, 9);
  EXPECT_EQ(eval("absent(nothing_here)", 1000).vector.size(), 1u);
  EXPECT_TRUE(eval("absent(single)", 1000).vector.empty());
}

TEST_F(PromqlTest, SortAndSortDesc) {
  for (int i = 1; i <= 3; ++i) {
    add(named("m", {{"i", std::to_string(i)}}), 1000, 4.0 - i);  // 3,2,1
  }
  Value ascending = eval("sort(m)", 1000);
  ASSERT_EQ(ascending.vector.size(), 3u);
  EXPECT_DOUBLE_EQ(ascending.vector[0].value, 1);
  EXPECT_DOUBLE_EQ(ascending.vector[2].value, 3);
  Value descending = eval("sort_desc(m)", 1000);
  EXPECT_DOUBLE_EQ(descending.vector[0].value, 3);
}

TEST_F(PromqlTest, RoundToNearest) {
  add(named("m"), 1000, 123.456);
  EXPECT_DOUBLE_EQ(eval1("round(m)", 1000), 123);
  EXPECT_DOUBLE_EQ(eval1("round(m, 10)", 1000), 120);
  EXPECT_DOUBLE_EQ(eval1("round(m, 0.1)", 1000), 123.5);
  EXPECT_THROW(eval("round(m, 0)", 1000), EvalError);
}

TEST_F(PromqlTest, PredictLinearExtrapolates) {
  // Counter growing 2/s: predict 100 s ahead.
  for (int i = 0; i <= 4; ++i) {
    add(named("c"), i * 30000, i * 60.0);
  }
  double predicted = eval1("predict_linear(c[2m], 100)", 120000);
  // Value now = 240, slope 2/s → 240 + 200 = 440.
  EXPECT_NEAR(predicted, 440.0, 1.0);
}

TEST_F(PromqlTest, CalendarFunctions) {
  // 2023-11-14 22:13:20 UTC = 1700000000.
  common::TimestampMs t = 1700000000000LL;
  add(named("m"), t, 1);
  EXPECT_DOUBLE_EQ(eval1("hour()", t), 22);
  EXPECT_DOUBLE_EQ(eval1("day_of_week()", t), 2);  // Tuesday
  EXPECT_DOUBLE_EQ(eval1("day_of_month()", t), 14);
  EXPECT_DOUBLE_EQ(eval1("month()", t), 11);
  // With an explicit timestamp vector argument.
  EXPECT_DOUBLE_EQ(eval1("hour(vector(1700000000))", t), 22);
}

TEST_F(PromqlTest, DerivIsLeastSquares) {
  // Noisy-but-linear gauge: least squares recovers the slope better than
  // endpoints. Points: 0, 12, 18, 30 at 10 s spacing (slope ~1/s).
  add(named("g"), 10000, 0);
  add(named("g"), 20000, 12);
  add(named("g"), 30000, 18);
  add(named("g"), 40000, 30);
  EXPECT_NEAR(eval1("deriv(g[1m])", 40000), 0.96, 0.05);
}

TEST_F(PromqlTest, UnknownFunctionThrows) {
  EXPECT_THROW(eval("frobnicate(up)", 1000), EvalError);
  add(named("m"), 1000, 1);
  EXPECT_THROW(eval("rate(m)", 1000), EvalError);  // needs range vector
}

// ---------- range queries ----------

TEST_F(PromqlTest, RangeQueryProducesSteps) {
  for (int i = 0; i <= 10; ++i) {
    add(named("g"), i * 10000, i);
  }
  auto matrix = engine_.eval_range(store_, "g * 2", 0, 100000, 20000);
  ASSERT_EQ(matrix.size(), 1u);
  ASSERT_EQ(matrix[0].samples.size(), 6u);
  EXPECT_DOUBLE_EQ(matrix[0].samples[5].v, 20);
}

TEST_F(PromqlTest, EquationOneShapeEndToEnd) {
  // A miniature Eq. (1): two jobs on one host, CPU-time proportional split.
  TimestampMs t = 120000;
  for (int i = 0; i <= 4; ++i) {
    TimestampMs ts = i * 30000;
    add(named("ceems_rapl_package_joules_total", {{"hostname", "n"}}), ts,
        i * 30.0 * 100);  // 100 W
    add(named("ceems_rapl_dram_joules_total", {{"hostname", "n"}}), ts,
        i * 30.0 * 25);  // 25 W
    add(named("node_cpu_seconds_total", {{"hostname", "n"}, {"mode", "user"}}),
        ts, i * 30.0 * 8);  // 8 busy cores
    add(named("ceems_compute_unit_cpu_usage_seconds_total",
              {{"hostname", "n"}, {"uuid", "1"}, {"mode", "user"}}),
        ts, i * 30.0 * 6);  // job 1: 6 cores
    add(named("ceems_compute_unit_cpu_usage_seconds_total",
              {{"hostname", "n"}, {"uuid", "2"}, {"mode", "user"}}),
        ts, i * 30.0 * 2);  // job 2: 2 cores
    add(named("ceems_ipmi_dcmi_current_watts", {{"hostname", "n"}}), ts, 400);
  }
  std::string expr =
      "0.9 * on(hostname) group_left() ("
      "  sum by (hostname) (ceems_ipmi_dcmi_current_watts)"
      "  * (sum by (hostname) (rate(ceems_rapl_package_joules_total[2m]))"
      "     / (sum by (hostname) (rate(ceems_rapl_package_joules_total[2m]))"
      "        + sum by (hostname) (rate(ceems_rapl_dram_joules_total[2m]))))"
      ") "
      "* (sum by (hostname, uuid) "
      "     (rate(ceems_compute_unit_cpu_usage_seconds_total[2m]))"
      "   / on(hostname) group_left() "
      "     sum by (hostname) (rate(node_cpu_seconds_total[2m])))";
  // Hmm: leading scalar times group_left vector: rewrite as vector first.
  std::string job_share =
      "sum by (hostname, uuid) "
      "(rate(ceems_compute_unit_cpu_usage_seconds_total[2m]))"
      " / on(hostname) group_left() "
      "sum by (hostname) (rate(node_cpu_seconds_total[2m]))";
  std::string cpu_budget =
      "0.9 * sum by (hostname) (ceems_ipmi_dcmi_current_watts)"
      " * (sum by (hostname) (rate(ceems_rapl_package_joules_total[2m]))"
      " / (sum by (hostname) (rate(ceems_rapl_package_joules_total[2m]))"
      " + sum by (hostname) (rate(ceems_rapl_dram_joules_total[2m]))))";
  Value value =
      eval("(" + job_share + ") * on(hostname) group_left() (" + cpu_budget +
               ")",
           t);
  (void)expr;
  ASSERT_EQ(value.vector.size(), 2u);
  // Budget = 0.9×400×(100/125) = 288 W; job1 = 6/8 → 216 W, job2 = 72 W.
  double job1 = 0, job2 = 0;
  for (const auto& sample : value.vector) {
    if (*sample.labels.get("uuid") == "1") job1 = sample.value;
    else job2 = sample.value;
  }
  EXPECT_NEAR(job1, 216.0, 0.5);
  EXPECT_NEAR(job2, 72.0, 0.5);
}

}  // namespace
}  // namespace ceems::tsdb::promql
