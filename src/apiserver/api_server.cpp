#include "apiserver/api_server.h"

#include <algorithm>

#include "apiserver/reports.h"

#include "common/strutil.h"

namespace ceems::apiserver {

using common::Json;
using common::JsonArray;
using common::JsonObject;
using reldb::AggFn;
using reldb::Predicate;
using reldb::Query;
using reldb::Value;

ApiServer::ApiServer(ApiServerConfig config, reldb::Database& db,
                     common::ClockPtr clock)
    : config_(std::move(config)),
      db_(db),
      clock_(std::move(clock)),
      server_(config_.http) {
  create_ceems_tables(db_);
  server_.handle("/api/v1/units", [this](const http::Request& r) {
    return handle_units(r);
  });
  server_.handle_prefix("/api/v1/units/", [this](const http::Request& r) {
    if (r.path() == "/api/v1/units/verify") return handle_verify(r);
    return handle_unit_detail(r);
  });
  server_.handle("/api/v1/usage", [this](const http::Request& r) {
    return handle_usage(r);
  });
  server_.handle("/api/v1/users", [this](const http::Request& r) {
    return handle_users(r);
  });
  server_.handle("/api/v1/projects", [this](const http::Request& r) {
    return handle_projects(r);
  });
  server_.handle("/api/v1/reports/efficiency",
                 [this](const http::Request& r) {
                   std::string user = current_user(r);
                   if (!is_admin(user))
                     return http::Response::forbidden("admin only");
                   auto report = build_efficiency_report(db_);
                   Json body = Json::object();
                   body["status"] = Json("success");
                   body["data"] = efficiency_report_to_json(report);
                   return http::Response::json(200, body.dump());
                 });
  server_.handle("/health", [](const http::Request&) {
    return http::Response::json(200, "{\"status\":\"ok\"}");
  });
}

ApiServer::~ApiServer() { stop(); }

void ApiServer::start() { server_.start(); }
void ApiServer::stop() { server_.stop(); }

std::string ApiServer::current_user(const http::Request& request) const {
  return request.header(kGrafanaUserHeader).value_or("");
}

bool ApiServer::verify_ownership(const std::string& user,
                                 const std::string& uuid) const {
  if (user.empty()) return false;
  if (is_admin(user)) return true;
  auto row = db_.get(kUnitsTable, Value(uuid));
  if (!row) return false;
  Unit unit = unit_from_row(*row);
  if (unit.user == user) return true;
  // Same-project visibility: does `user` own any unit in that project?
  Query query;
  query.where = {{"user", Predicate::Op::kEq, Value(user)},
                 {"project", Predicate::Op::kEq, Value(unit.project)}};
  query.limit = 1;
  return !db_.query(kUnitsTable, query).rows.empty();
}

namespace {

Json units_to_json(const reldb::ResultSet& result) {
  JsonArray array;
  for (const auto& row : result.rows) {
    array.push_back(unit_from_row(row).to_json());
  }
  JsonObject body;
  body["status"] = Json("success");
  body["data"] = Json(std::move(array));
  return Json(std::move(body));
}

}  // namespace

http::Response ApiServer::handle_units(const http::Request& request) const {
  std::string user = current_user(request);
  if (user.empty())
    return http::Response::forbidden("missing " +
                                     std::string(kGrafanaUserHeader));
  auto params = request.query_params();

  Query query;
  if (!is_admin(user)) {
    // Non-admins can list their own units, or a project's units if they
    // belong to it.
    auto project_it = params.find("project");
    if (project_it != params.end()) {
      Query membership;
      membership.where = {{"user", Predicate::Op::kEq, Value(user)},
                          {"project", Predicate::Op::kEq,
                           Value(project_it->second)}};
      membership.limit = 1;
      if (db_.query(kUnitsTable, membership).rows.empty())
        return http::Response::forbidden("not a member of project");
      query.where.push_back(
          {"project", Predicate::Op::kEq, Value(project_it->second)});
    } else {
      query.where.push_back({"user", Predicate::Op::kEq, Value(user)});
    }
  } else {
    if (auto it = params.find("user"); it != params.end())
      query.where.push_back({"user", Predicate::Op::kEq, Value(it->second)});
    if (auto it = params.find("project"); it != params.end())
      query.where.push_back(
          {"project", Predicate::Op::kEq, Value(it->second)});
  }
  if (auto it = params.find("state"); it != params.end())
    query.where.push_back({"state", Predicate::Op::kEq, Value(it->second)});
  if (auto it = params.find("cluster"); it != params.end())
    query.where.push_back({"cluster", Predicate::Op::kEq, Value(it->second)});
  if (auto it = params.find("resource_manager"); it != params.end())
    query.where.push_back(
        {"resource_manager", Predicate::Op::kEq, Value(it->second)});
  if (auto it = params.find("from"); it != params.end()) {
    if (auto from = common::parse_int64(it->second))
      query.where.push_back(
          {"started_at_ms", Predicate::Op::kGe, Value(*from)});
  }
  if (auto it = params.find("to"); it != params.end()) {
    if (auto to = common::parse_int64(it->second))
      query.where.push_back({"started_at_ms", Predicate::Op::kLt, Value(*to)});
  }
  query.order_by = "started_at_ms";
  query.descending = true;
  std::size_t offset = 0;
  if (auto it = params.find("offset"); it != params.end()) {
    offset = static_cast<std::size_t>(
        std::max<int64_t>(0, common::parse_int64(it->second).value_or(0)));
  }
  std::size_t limit = 0;
  if (auto it = params.find("limit"); it != params.end()) {
    limit = static_cast<std::size_t>(
        std::max<int64_t>(0, common::parse_int64(it->second).value_or(0)));
  }
  // Pagination happens after the ordered query (offset before limit).
  reldb::ResultSet result = db_.query(kUnitsTable, query);
  if (offset > 0) {
    result.rows.erase(result.rows.begin(),
                      result.rows.begin() +
                          static_cast<std::ptrdiff_t>(
                              std::min(offset, result.rows.size())));
  }
  if (limit > 0 && result.rows.size() > limit) result.rows.resize(limit);
  return http::Response::json(200, units_to_json(result).dump());
}

http::Response ApiServer::handle_unit_detail(
    const http::Request& request) const {
  std::string user = current_user(request);
  if (user.empty())
    return http::Response::forbidden("missing user header");
  std::string path = request.path();
  std::string uuid = path.substr(std::string("/api/v1/units/").size());
  auto row = db_.get(kUnitsTable, Value(uuid));
  if (!row) return http::Response::not_found("no unit " + uuid);
  if (!verify_ownership(user, uuid))
    return http::Response::forbidden("not the owner of unit " + uuid);
  JsonObject body;
  body["status"] = Json("success");
  body["data"] = unit_from_row(*row).to_json();
  return http::Response::json(200, Json(std::move(body)).dump());
}

http::Response ApiServer::handle_usage(const http::Request& request) const {
  std::string user = current_user(request);
  if (user.empty())
    return http::Response::forbidden("missing user header");
  auto params = request.query_params();
  std::string scope =
      params.count("scope") ? params.at("scope") : std::string("user");

  Query query;
  if (scope == "project") {
    query.group_by = {"project"};
  } else if (scope == "user") {
    query.group_by = {"user"};
  } else {
    return http::Response::bad_request("scope must be user or project");
  }
  if (!is_admin(user)) {
    query.where.push_back({"user", Predicate::Op::kEq, Value(user)});
  }
  if (auto it = params.find("from"); it != params.end()) {
    if (auto from = common::parse_int64(it->second))
      query.where.push_back(
          {"started_at_ms", Predicate::Op::kGe, Value(*from)});
  }
  if (auto it = params.find("to"); it != params.end()) {
    if (auto to = common::parse_int64(it->second))
      query.where.push_back({"started_at_ms", Predicate::Op::kLt, Value(*to)});
  }
  query.aggregates = {
      {AggFn::kCount, "", "num_units"},
      {AggFn::kSum, "total_cpu_time_seconds", "total_cpu_time_seconds"},
      {AggFn::kAvg, "avg_cpu_usage", "avg_cpu_usage"},
      {AggFn::kAvg, "avg_cpu_mem_bytes", "avg_cpu_mem_bytes"},
      {AggFn::kAvg, "avg_gpu_usage", "avg_gpu_usage"},
      {AggFn::kSum, "total_energy_joules", "total_energy_joules"},
      {AggFn::kSum, "total_emissions_grams", "total_emissions_grams"},
      {AggFn::kSum, "total_io_read_bytes", "total_io_read_bytes"},
  };

  reldb::ResultSet result = db_.query(kUnitsTable, query);
  JsonArray rows;
  for (const auto& row : result.rows) {
    JsonObject entry;
    for (std::size_t i = 0; i < result.columns.size(); ++i) {
      const Value& value = row[i];
      if (value.is_int()) entry[result.columns[i]] = Json(value.as_int());
      else if (value.is_real()) entry[result.columns[i]] = Json(value.as_real());
      else entry[result.columns[i]] = Json(value.as_text());
    }
    rows.push_back(Json(std::move(entry)));
  }
  JsonObject body;
  body["status"] = Json("success");
  body["data"] = Json(std::move(rows));
  return http::Response::json(200, Json(std::move(body)).dump());
}

http::Response ApiServer::handle_verify(const http::Request& request) const {
  std::string user = current_user(request);
  auto uuids = request.query_param_all("uuid");
  if (user.empty() || uuids.empty())
    return http::Response::bad_request("user header and uuid required");
  for (const auto& uuid : uuids) {
    if (!verify_ownership(user, uuid))
      return http::Response::forbidden("user " + user +
                                       " does not own unit " + uuid);
  }
  return http::Response::json(200, "{\"status\":\"success\"}");
}

http::Response ApiServer::handle_users(const http::Request& request) const {
  std::string user = current_user(request);
  if (!is_admin(user)) return http::Response::forbidden("admin only");
  Query query;
  query.group_by = {"user"};
  query.aggregates = {{AggFn::kCount, "", "num_units"}};
  reldb::ResultSet result = db_.query(kUnitsTable, query);
  JsonArray users;
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    users.push_back(Json(result.at(i, "user").as_text()));
  }
  JsonObject body;
  body["status"] = Json("success");
  body["data"] = Json(std::move(users));
  return http::Response::json(200, Json(std::move(body)).dump());
}

http::Response ApiServer::handle_projects(const http::Request& request) const {
  std::string user = current_user(request);
  if (!is_admin(user)) return http::Response::forbidden("admin only");
  Query query;
  query.group_by = {"project"};
  query.aggregates = {{AggFn::kCount, "", "num_units"}};
  reldb::ResultSet result = db_.query(kUnitsTable, query);
  JsonArray projects;
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    projects.push_back(Json(result.at(i, "project").as_text()));
  }
  JsonObject body;
  body["status"] = Json("success");
  body["data"] = Json(std::move(projects));
  return http::Response::json(200, Json(std::move(body)).dump());
}

}  // namespace ceems::apiserver
