#include "tsdb/http_api.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/strutil.h"

namespace ceems::tsdb {

using common::Json;
using common::JsonArray;
using common::JsonObject;

namespace {

Json labels_to_json(const Labels& labels) {
  JsonObject object;
  for (const auto& [name, value] : labels.pairs()) {
    object[name] = Json(value);
  }
  return Json(std::move(object));
}

Json sample_pair(common::TimestampMs t, double v) {
  JsonArray pair;
  pair.push_back(Json(static_cast<double>(t) / 1000.0));
  pair.push_back(Json(common::format_double(v)));
  return Json(std::move(pair));
}

Json error_body(const std::string& error) {
  JsonObject object;
  object["status"] = Json("error");
  object["error"] = Json(error);
  return Json(std::move(object));
}

Json success_body(Json data) {
  JsonObject object;
  object["status"] = Json("success");
  object["data"] = std::move(data);
  return Json(std::move(object));
}

// One process-wide evaluation pool shared by every PromApi frontend (the
// stack runs several Thanos-style query backends in one process; a shared
// pool keeps the thread count bounded). run_all() waits on its own tasks
// only, so concurrent range queries interleave safely on it.
std::shared_ptr<common::ThreadPool> query_eval_pool() {
  static std::shared_ptr<common::ThreadPool> pool =
      std::make_shared<common::ThreadPool>(
          std::clamp<std::size_t>(std::thread::hardware_concurrency(), 2, 8),
          "promql-eval");
  return pool;
}

promql::EngineOptions with_default_pool(promql::EngineOptions options) {
  if (!options.pool) options.pool = query_eval_pool();
  return options;
}

}  // namespace

std::optional<common::TimestampMs> parse_time_param(const std::string& text) {
  auto seconds = common::parse_double(text);
  if (!seconds) return std::nullopt;
  return static_cast<common::TimestampMs>(*seconds * 1000.0);
}

Json value_to_json(const promql::Value& value) {
  JsonObject data;
  switch (value.kind) {
    case promql::Value::Kind::kScalar: {
      data["resultType"] = Json("scalar");
      data["result"] = sample_pair(0, value.scalar);
      break;
    }
    case promql::Value::Kind::kVector: {
      data["resultType"] = Json("vector");
      JsonArray result;
      for (const auto& sample : value.vector) {
        JsonObject entry;
        entry["metric"] = labels_to_json(sample.labels.to_labels());
        entry["value"] = sample_pair(0, sample.value);
        result.push_back(Json(std::move(entry)));
      }
      data["result"] = Json(std::move(result));
      break;
    }
    default:
      data["resultType"] = Json("string");
      data["result"] = Json(value.string_value);
  }
  return Json(std::move(data));
}

Json matrix_to_json(const std::vector<Series>& matrix) {
  JsonObject data;
  data["resultType"] = Json("matrix");
  JsonArray result;
  for (const auto& series : matrix) {
    JsonObject entry;
    entry["metric"] = labels_to_json(series.labels);
    JsonArray values;
    for (const auto& sample : series.samples) {
      values.push_back(sample_pair(sample.t, sample.v));
    }
    entry["values"] = Json(std::move(values));
    result.push_back(Json(std::move(entry)));
  }
  data["result"] = Json(std::move(result));
  return Json(std::move(data));
}

PromApi::PromApi(std::shared_ptr<const Queryable> source,
                 common::ClockPtr clock, promql::EngineOptions options)
    : source_(std::move(source)),
      clock_(std::move(clock)),
      engine_(with_default_pool(std::move(options))) {}

void PromApi::attach(http::Server& server) {
  server.handle("/api/v1/query",
                [this](const http::Request& r) { return handle_query(r); });
  server.handle("/api/v1/query_range", [this](const http::Request& r) {
    return handle_query_range(r);
  });
  server.handle("/api/v1/series",
                [this](const http::Request& r) { return handle_series(r); });
  server.handle("/-/healthy", [](const http::Request&) {
    return http::Response::text(200, "ok\n");
  });
}

http::Response PromApi::handle_query(const http::Request& request) const {
  auto params = request.query_params();
  auto query_it = params.find("query");
  if (query_it == params.end())
    return http::Response::json(400, error_body("missing query").dump());
  common::TimestampMs t = clock_->now_ms();
  if (auto time_it = params.find("time"); time_it != params.end()) {
    auto parsed = parse_time_param(time_it->second);
    if (!parsed)
      return http::Response::json(400, error_body("bad time").dump());
    t = *parsed;
  }
  try {
    // Strings the query builds live until its JSON is written, not in the
    // process-wide symbol table.
    metrics::QuerySymbols query_symbols;
    metrics::QuerySymbols::Scope scope(&query_symbols);
    // Fixed-timestamp evaluation: value pairs carry the evaluation time.
    promql::Value value = engine_.eval(*source_, query_it->second, t);
    Json data = value_to_json(value);
    // Patch evaluation timestamps into the value pairs.
    if (data.get("result") && data.at("result").is_array()) {
      for (auto& entry : data["result"].as_array()) {
        if (entry.is_object() && entry.get("value")) {
          entry["value"].as_array()[0] =
              Json(static_cast<double>(t) / 1000.0);
        }
      }
    } else if (data.get_string("resultType") == "scalar") {
      data["result"].as_array()[0] = Json(static_cast<double>(t) / 1000.0);
    }
    return http::Response::json(200, success_body(std::move(data)).dump());
  } catch (const std::exception& e) {
    return http::Response::json(422, error_body(e.what()).dump());
  }
}

http::Response PromApi::handle_query_range(
    const http::Request& request) const {
  auto params = request.query_params();
  auto query_it = params.find("query");
  auto start_it = params.find("start");
  auto end_it = params.find("end");
  auto step_it = params.find("step");
  if (query_it == params.end() || start_it == params.end() ||
      end_it == params.end() || step_it == params.end()) {
    return http::Response::json(
        400, error_body("query, start, end, step required").dump());
  }
  auto start = parse_time_param(start_it->second);
  auto end = parse_time_param(end_it->second);
  // step accepts both "30" (seconds) and "30s" style.
  auto step_ms = common::parse_duration_ms(step_it->second);
  if (!step_ms) {
    if (auto seconds = common::parse_double(step_it->second)) {
      step_ms = static_cast<int64_t>(*seconds * 1000.0);
    }
  }
  if (!start || !end || !step_ms || *step_ms <= 0)
    return http::Response::json(400,
                                error_body("bad start/end/step").dump());
  try {
    auto matrix =
        engine_.eval_range(*source_, query_it->second, *start, *end, *step_ms);
    return http::Response::json(
        200, success_body(matrix_to_json(matrix)).dump());
  } catch (const std::exception& e) {
    return http::Response::json(422, error_body(e.what()).dump());
  }
}

http::Response PromApi::handle_series(const http::Request& request) const {
  auto selectors = request.query_param_all("match[]");
  if (selectors.empty())
    return http::Response::json(400, error_body("missing match[]").dump());
  auto params = request.query_params();
  common::TimestampMs start = 0;
  common::TimestampMs end = clock_->now_ms();
  if (auto it = params.find("start"); it != params.end()) {
    if (auto parsed = parse_time_param(it->second)) start = *parsed;
  }
  if (auto it = params.find("end"); it != params.end()) {
    if (auto parsed = parse_time_param(it->second)) end = *parsed;
  }
  try {
    JsonArray result;
    for (const auto& selector : selectors) {
      promql::ExprPtr expr = promql::parse(selector);
      if (expr->kind != promql::Expr::Kind::kVectorSelector)
        return http::Response::json(
            400, error_body("match[] must be a selector").dump());
      std::vector<LabelMatcher> matchers = expr->matchers;
      if (!expr->metric_name.empty()) {
        matchers.push_back({std::string(metrics::kMetricNameLabel),
                            LabelMatcher::Op::kEq, expr->metric_name});
      }
      for (const auto& series : source_->select(matchers, start, end)) {
        result.push_back(labels_to_json(series.labels.to_labels()));
      }
    }
    return http::Response::json(
        200, success_body(Json(std::move(result))).dump());
  } catch (const std::exception& e) {
    return http::Response::json(422, error_body(e.what()).dump());
  }
}

}  // namespace ceems::tsdb
