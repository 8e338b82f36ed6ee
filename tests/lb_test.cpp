#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

#include "http/client.h"
#include "lb/load_balancer.h"
#include "lb/query_introspect.h"
#include "metrics/text_format.h"
#include "stack_fixture.h"

namespace ceems::lb {
namespace {

// ---------- query introspection ----------

TEST(Introspect, ExtractsUuidsFromSelectors) {
  auto result = introspect_query(
      "sum(rate(ceems_compute_unit_cpu_usage_seconds_total{uuid=\"123\"}[2m]))"
      " + ceems_job_power_watts{uuid=\"456\"}");
  EXPECT_TRUE(result.parse_ok);
  EXPECT_FALSE(result.has_unverifiable_selector);
  EXPECT_EQ(result.uuids, (std::set<std::string>{"123", "456"}));
}

TEST(Introspect, UuidlessSelectorIsUnverifiable) {
  auto result = introspect_query("sum(node_cpu_seconds_total)");
  EXPECT_TRUE(result.parse_ok);
  EXPECT_TRUE(result.has_unverifiable_selector);
}

TEST(Introspect, RegexUuidIsUnverifiable) {
  auto result = introspect_query("m{uuid=~\"12.*\"}");
  EXPECT_TRUE(result.has_unverifiable_selector);
  auto negated = introspect_query("m{uuid!=\"12\"}");
  EXPECT_TRUE(negated.has_unverifiable_selector);
}

TEST(Introspect, WalksAllExpressionShapes) {
  auto result = introspect_query(
      "topk(3, abs(m{uuid=\"1\"}) and (n{uuid=\"2\"} or vector(0)))");
  EXPECT_TRUE(result.parse_ok);
  EXPECT_TRUE(result.uuids.count("1"));
  EXPECT_TRUE(result.uuids.count("2"));
  // vector(0) has no selector, so nothing unverifiable from it; but the
  // full expression is fine since every *selector* pins a uuid.
  EXPECT_FALSE(result.has_unverifiable_selector);
}

TEST(Introspect, ParseFailureReported) {
  auto result = introspect_query("sum(((");
  EXPECT_FALSE(result.parse_ok);
  EXPECT_FALSE(result.error.empty());
}

// ---------- LB over a live mini-stack ----------

class LbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ceems::testing::MiniStackOptions options;
    mini_ = new ceems::testing::MiniStack(options);
    mini_->run(20 * common::kMillisPerMinute);
    mini_->stack().start_servers();
  }
  static void TearDownTestSuite() {
    delete mini_;
    mini_ = nullptr;
  }

  http::Response query_via_lb(const std::string& user,
                              const std::string& query) {
    http::Client client;
    http::HeaderMap headers;
    if (!user.empty()) headers["X-Grafana-User"] = user;
    auto result = client.get(
        mini_->stack().lb_url() + "/api/v1/query?query=" +
            http::url_encode(query) + "&time=" +
            std::to_string(mini_->clock()->now_ms() / 1000),
        headers);
    EXPECT_TRUE(result.ok) << result.error;
    return result.response;
  }

  // (user, uuid) of some unit with data.
  static std::pair<std::string, std::string> some_unit() {
    for (const auto& job : mini_->sim().dbd().all_jobs()) {
      if (job.start_time_ms != 0) {
        return {job.request.user, std::to_string(job.job_id)};
      }
    }
    return {"user0", "0"};
  }

  static ceems::testing::MiniStack* mini_;
};

ceems::testing::MiniStack* LbTest::mini_ = nullptr;

TEST_F(LbTest, OwnerQueriesTheirUnit) {
  auto [user, uuid] = some_unit();
  auto response = query_via_lb(
      user, "ceems_compute_unit_memory_current_bytes{uuid=\"" + uuid + "\"}");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"success\""), std::string::npos);
}

TEST_F(LbTest, StrangerDenied) {
  auto [user, uuid] = some_unit();
  auto response = query_via_lb(
      "mallory", "ceems_compute_unit_memory_current_bytes{uuid=\"" + uuid +
                     "\"}");
  EXPECT_EQ(response.status, 403);
  EXPECT_GT(mini_->stack().load_balancer().denied_total(), 0u);
}

TEST_F(LbTest, MissingUserHeaderDenied) {
  auto response = query_via_lb("", "up{uuid=\"1\"}");
  EXPECT_EQ(response.status, 403);
}

TEST_F(LbTest, UuidlessQueryDeniedForUsersAllowedForAdmins) {
  auto denied = query_via_lb("user0", "sum(node_cpu_seconds_total)");
  EXPECT_EQ(denied.status, 403);
  auto allowed = query_via_lb("admin", "sum(node_cpu_seconds_total)");
  EXPECT_EQ(allowed.status, 200);
}

TEST_F(LbTest, UnparsableQueryRejected) {
  auto response = query_via_lb("user0", "sum(((");
  EXPECT_EQ(response.status, 400);
}

TEST_F(LbTest, MixedOwnershipDenied) {
  auto [user, uuid] = some_unit();
  // Find a unit of a different user.
  std::string other_uuid;
  for (const auto& job : mini_->sim().dbd().all_jobs()) {
    if (job.start_time_ms != 0 && job.request.user != user) {
      other_uuid = std::to_string(job.job_id);
      break;
    }
  }
  ASSERT_FALSE(other_uuid.empty());
  auto response = query_via_lb(
      user, "m{uuid=\"" + uuid + "\"} + m{uuid=\"" + other_uuid + "\"}");
  EXPECT_EQ(response.status, 403);
}

TEST_F(LbTest, RangeQueryProxied) {
  auto [user, uuid] = some_unit();
  http::Client client;
  http::HeaderMap headers;
  headers["X-Grafana-User"] = user;
  common::TimestampMs now = mini_->clock()->now_ms();
  auto result = client.get(
      mini_->stack().lb_url() + "/api/v1/query_range?query=" +
          http::url_encode("ceems_compute_unit_memory_current_bytes{uuid=\"" +
                           uuid + "\"}") +
          "&start=" + std::to_string((now - 600000) / 1000) +
          "&end=" + std::to_string(now / 1000) + "&step=30s",
      headers);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_NE(result.response.body.find("matrix"), std::string::npos);
}

TEST_F(LbTest, HttpFallbackOwnershipPath) {
  // An LB without the direct DB handle must round-trip to the API server.
  lb::LbConfig config;
  config.api_server_url = mini_->stack().api_url();
  config.admin_users = {"admin"};
  LoadBalancer lb(config, mini_->stack().query_backend_urls(),
                  mini_->clock());
  lb.start();

  auto [user, uuid] = some_unit();
  http::Client client;
  http::HeaderMap headers;
  headers["X-Grafana-User"] = user;
  auto granted = client.get(
      lb.base_url() + "/api/v1/query?query=" +
          http::url_encode("up{uuid=\"" + uuid + "\"}"),
      headers);
  ASSERT_TRUE(granted.ok);
  EXPECT_EQ(granted.response.status, 200);

  headers["X-Grafana-User"] = "mallory";
  auto denied = client.get(
      lb.base_url() + "/api/v1/query?query=" +
          http::url_encode("up{uuid=\"" + uuid + "\"}"),
      headers);
  ASSERT_TRUE(denied.ok);
  EXPECT_EQ(denied.response.status, 403);
  lb.stop();
}

TEST_F(LbTest, RoundRobinSpreadsBackends) {
  for (int i = 0; i < 10; ++i) {
    query_via_lb("admin", "vector(1)");
  }
  auto stats = mini_->stack().load_balancer().backend_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].requests, 0u);
  EXPECT_GT(stats[1].requests, 0u);
}

TEST(LbStandalone, FailsOverToHealthyBackend) {
  auto clock = common::make_sim_clock(0);
  http::Server healthy{http::ServerConfig{}};
  healthy.handle_prefix("/api/", [](const http::Request&) {
    return http::Response::json(200, "{\"who\":\"healthy\"}");
  });
  healthy.start();

  LbConfig config;
  config.admin_users = {"admin"};
  // First backend dead, second alive: every request must still succeed.
  LoadBalancer lb(config, {"http://127.0.0.1:1", healthy.base_url()}, clock);
  lb.start();
  http::Client client;
  http::HeaderMap headers;
  headers["X-Grafana-User"] = "admin";
  for (int i = 0; i < 6; ++i) {
    auto result =
        client.get(lb.base_url() + "/api/v1/query?query=vector(1)", headers);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.response.status, 200);
    EXPECT_NE(result.response.body.find("healthy"), std::string::npos);
  }
  auto stats = lb.backend_stats();
  EXPECT_GT(stats[0].failures, 0u);  // dead backend was tried and skipped
  lb.stop();
  healthy.stop();
}

TEST(LbStandalone, DeadBackendIs502) {
  auto clock = common::make_sim_clock(0);
  LbConfig config;
  config.admin_users = {"admin"};
  LoadBalancer lb(config, {"http://127.0.0.1:1"}, clock);
  lb.start();
  http::Client client;
  http::HeaderMap headers;
  headers["X-Grafana-User"] = "admin";
  auto result = client.get(lb.base_url() + "/api/v1/query?query=vector(1)",
                           headers);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, 502);
  EXPECT_EQ(lb.backend_stats()[0].failures, 1u);
  lb.stop();
}

// ---------- circuit breaker (handle_proxy, no sockets) ----------

http::Request admin_query() {
  http::Request request;
  request.method = "GET";
  request.target = "/api/v1/query?query=vector(1)";
  request.headers["X-Grafana-User"] = "admin";
  return request;
}

TEST(LbCircuit, OpensAfterThresholdRecoversAtCooldownBoundary) {
  auto clock = common::make_sim_clock(0);
  http::Server healthy{http::ServerConfig{}};
  healthy.handle_prefix("/api/", [](const http::Request&) {
    return http::Response::json(200, "{\"who\":\"healthy\"}");
  });
  healthy.start();

  bool down = true;
  LbConfig config;
  config.admin_users = {"admin"};
  config.circuit_failure_threshold = 3;
  config.failover_cooldown_ms = 2000;
  config.fault_hook = [&](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    if (down) fault.kind = faults::FaultKind::kConnectTimeout;
    return fault;
  };
  LoadBalancer lb(config, {healthy.base_url()}, clock);

  // Three consecutive transport failures trip the circuit.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(lb.handle_proxy(admin_query()).status, 502);
  }
  auto stats = lb.backend_stats();
  EXPECT_EQ(stats[0].circuit, CircuitState::kOpen);
  EXPECT_EQ(stats[0].circuit_opens, 1u);

  // While open, requests are rejected with 503 without touching the
  // backend — including at cooldown_ms - 1.
  uint64_t requests_before = stats[0].requests;
  EXPECT_EQ(lb.handle_proxy(admin_query()).status, 503);
  clock->advance(1999);
  EXPECT_EQ(lb.handle_proxy(admin_query()).status, 503);
  EXPECT_EQ(lb.backend_stats()[0].requests, requests_before);

  // At exactly the boundary the half-open probe goes through; the backend
  // recovered, so the circuit closes again.
  clock->advance(1);
  down = false;
  EXPECT_EQ(lb.handle_proxy(admin_query()).status, 200);
  EXPECT_EQ(lb.backend_stats()[0].circuit, CircuitState::kClosed);

  healthy.stop();
}

TEST(LbCircuit, FailedHalfOpenProbeReopens) {
  auto clock = common::make_sim_clock(0);
  LbConfig config;
  config.admin_users = {"admin"};
  config.circuit_failure_threshold = 1;
  config.failover_cooldown_ms = 1000;
  config.fault_hook = [](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    fault.kind = faults::FaultKind::kIoTimeout;
    return fault;
  };
  LoadBalancer lb(config, {"http://127.0.0.1:1"}, clock);

  EXPECT_EQ(lb.handle_proxy(admin_query()).status, 502);  // trips
  EXPECT_EQ(lb.handle_proxy(admin_query()).status, 503);  // open
  clock->advance(1000);
  EXPECT_EQ(lb.handle_proxy(admin_query()).status, 502);  // failed probe
  auto stats = lb.backend_stats();
  EXPECT_EQ(stats[0].circuit, CircuitState::kOpen);
  EXPECT_EQ(stats[0].circuit_opens, 2u);
  EXPECT_EQ(lb.handle_proxy(admin_query()).status, 503);  // open again
}

TEST(LbCircuit, AllBackendsDownIs503NotHang) {
  auto clock = common::make_sim_clock(0);
  LbConfig config;
  config.admin_users = {"admin"};
  config.circuit_failure_threshold = 1;
  config.failover_cooldown_ms = 60000;
  config.fault_hook = [](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    fault.kind = faults::FaultKind::kConnectTimeout;
    return fault;
  };
  LoadBalancer lb(config, {"http://127.0.0.1:1", "http://127.0.0.1:2"},
                  clock);

  // First request probes (and trips) both circuits: 502 = probed and
  // failed.
  EXPECT_EQ(lb.handle_proxy(admin_query()).status, 502);
  auto stats = lb.backend_stats();
  uint64_t total_requests = stats[0].requests + stats[1].requests;
  EXPECT_EQ(total_requests, 2u);
  // With every circuit open, requests answer 503 immediately and no
  // backend is contacted.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(lb.handle_proxy(admin_query()).status, 503);
  }
  stats = lb.backend_stats();
  EXPECT_EQ(stats[0].requests + stats[1].requests, total_requests);
  EXPECT_EQ(stats[0].circuit, CircuitState::kOpen);
  EXPECT_EQ(stats[1].circuit, CircuitState::kOpen);
}

TEST(LbCircuit, MetricsExportCircuitState) {
  auto clock = common::make_sim_clock(0);
  LbConfig config;
  config.admin_users = {"admin"};
  config.circuit_failure_threshold = 1;
  config.fault_hook = [](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    fault.kind = faults::FaultKind::kConnectTimeout;
    return fault;
  };
  LoadBalancer lb(config, {"http://127.0.0.1:1"}, clock);
  lb.handle_proxy(admin_query());
  std::string metrics = lb.render_metrics();
  EXPECT_NE(metrics.find("ceems_lb_backend_circuit_state{backend=\"http://"
                         "127.0.0.1:1\"} 1"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("ceems_lb_backend_circuit_opens_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("ceems_lb_denied_total"), std::string::npos);
}

TEST(LbCircuit, MetricsFamiliesAreContiguousAndRoundTrip) {
  auto clock = common::make_sim_clock(0);
  LbConfig config;
  config.admin_users = {"admin"};
  // The second URL needs escaping inside a label value.
  const std::vector<std::string> urls = {"http://127.0.0.1:1",
                                         "http://h/\"q\"\\x:2"};
  LoadBalancer lb(config, urls, clock);
  std::string text = lb.render_metrics();

  // Each family's samples form one group: once a family ends, its name
  // never appears again.
  std::vector<std::string> runs;
  std::set<std::string> seen;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of("{ "));
    if (!runs.empty() && runs.back() == name) continue;
    EXPECT_TRUE(seen.insert(name).second) << name << " split in\n" << text;
    runs.push_back(name);
  }
  EXPECT_EQ(runs.size(), 5u) << text;

  auto parsed = metrics::parse_exposition(text);
  ASSERT_EQ(parsed.samples.size(), 4 * urls.size() + 1) << text;
  for (std::size_t i = 0; i < 4 * urls.size(); ++i) {
    EXPECT_EQ(parsed.samples[i].labels.get("backend"), urls[i % urls.size()])
        << text;
  }
  for (const auto& family : parsed.families) {
    EXPECT_NE(family.type, metrics::MetricType::kUntyped) << family.name;
  }
}

TEST(LbStandalone, LeastConnectionPrefersIdleBackend) {
  auto clock = common::make_sim_clock(0);
  // Backend A is slow; backend B fast. Under concurrency, least-connection
  // must route most requests to B.
  http::Server slow{http::ServerConfig{}};
  slow.handle_prefix("/api/", [](const http::Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return http::Response::json(200, "{\"who\":\"slow\"}");
  });
  http::Server fast{http::ServerConfig{}};
  fast.handle_prefix("/api/", [](const http::Request&) {
    return http::Response::json(200, "{\"who\":\"fast\"}");
  });
  slow.start();
  fast.start();

  LbConfig config;
  config.strategy = Strategy::kLeastConnection;
  config.admin_users = {"admin"};
  config.http.worker_threads = 8;
  LoadBalancer lb(config, {slow.base_url(), fast.base_url()}, clock);
  lb.start();

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      http::Client client;
      http::HeaderMap headers;
      headers["X-Grafana-User"] = "admin";
      for (int i = 0; i < 10; ++i) {
        client.get(lb.base_url() + "/api/v1/query?query=vector(1)", headers);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  auto stats = lb.backend_stats();
  uint64_t slow_requests = stats[0].requests;
  uint64_t fast_requests = stats[1].requests;
  EXPECT_EQ(slow_requests + fast_requests, 40u);
  EXPECT_GT(fast_requests, slow_requests);
  lb.stop();
  slow.stop();
  fast.stop();
}

}  // namespace
}  // namespace ceems::lb
