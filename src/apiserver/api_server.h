// CEEMS API server HTTP surface (§II-B.b): JSON endpoints serving the
// units DB — per-user job lists with aggregate metrics (Fig. 2b), usage
// rollups per user/project (Fig. 2a) and the ownership-verification
// endpoint the load balancer falls back to when it cannot read the DB file
// directly (§II-C).
//
// The requesting user is taken from the X-Grafana-User header, exactly as
// Grafana forwards it (send_user_header). Admin users see everything.
#pragma once

#include <memory>
#include <set>
#include <string>

#include "apiserver/updater.h"
#include "http/server.h"
#include "reldb/database.h"

namespace ceems::apiserver {

inline constexpr const char* kGrafanaUserHeader = "X-Grafana-User";

struct ApiServerConfig {
  http::ServerConfig http;
  std::set<std::string> admin_users;
};

class ApiServer {
 public:
  ApiServer(ApiServerConfig config, reldb::Database& db,
            common::ClockPtr clock);
  ~ApiServer();

  void start();
  void stop();
  uint16_t port() const { return server_.port(); }
  std::string base_url() const { return server_.base_url(); }

  // Direct ownership check (also used by the LB's direct-DB path).
  bool verify_ownership(const std::string& user, const std::string& uuid) const;

  // Handlers (exposed for unit tests without sockets).
  http::Response handle_units(const http::Request& request) const;
  http::Response handle_unit_detail(const http::Request& request) const;
  http::Response handle_usage(const http::Request& request) const;
  http::Response handle_verify(const http::Request& request) const;
  http::Response handle_users(const http::Request& request) const;
  http::Response handle_projects(const http::Request& request) const;

 private:
  bool is_admin(const std::string& user) const {
    return config_.admin_users.count(user) > 0;
  }
  std::string current_user(const http::Request& request) const;

  ApiServerConfig config_;
  reldb::Database& db_;
  common::ClockPtr clock_;
  http::Server server_;
};

}  // namespace ceems::apiserver
