// E9 — the CEEMS load balancer (§II-B.c): cost of the access-control
// introspection, end-to-end proxy overhead versus querying the backend
// directly, and the round-robin vs least-connection strategies under a
// skewed backend (the case least-connection exists for).
//
// Expected shape: introspection is microseconds; the proxy adds one local
// HTTP hop (~a few hundred µs); under a slow+fast backend pair,
// least-connection completes a fixed workload measurably faster than
// round-robin by steering around the slow backend.
#include <benchmark/benchmark.h>

#include "common/logging.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "http/client.h"
#include "lb/load_balancer.h"
#include "tsdb/http_api.h"
#include "tsdb/storage.h"

using namespace ceems;

namespace {

void BM_query_introspection(benchmark::State& state) {
  std::string query =
      "sum by (hostname) (rate(ceems_compute_unit_cpu_usage_seconds_total{"
      "uuid=\"123456\"}[2m])) * on(hostname) group_left() "
      "instance:cpu_budget_watts + ceems_job_gpu_power_watts{uuid=\"123456\"}";
  for (auto _ : state) {
    auto result = lb::introspect_query(query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_query_introspection);

// Shared backend serving a small PromQL corpus.
struct Backend {
  std::shared_ptr<tsdb::TimeSeriesStore> store;
  std::unique_ptr<http::Server> server;
  std::unique_ptr<tsdb::PromApi> api;

  explicit Backend(common::ClockPtr clock) {
    store = std::make_shared<tsdb::TimeSeriesStore>();
    for (int u = 0; u < 50; ++u) {
      metrics::InternedLabels labels(metrics::Labels{
          {"uuid", std::to_string(u)}}.with_name("ceems_job_power_watts"));
      std::vector<metrics::SampleRef> batch;
      for (int i = 0; i < 60; ++i) {
        batch.push_back({&labels, 1700000000000LL + i * 30000, 100.0 + u});
      }
      store->append_refs(batch.data(), batch.size());
    }
    server = std::make_unique<http::Server>(http::ServerConfig{});
    api = std::make_unique<tsdb::PromApi>(store, clock);
    api->attach(*server);
    server->start();
  }
};

void BM_direct_backend_query(benchmark::State& state) {
  auto clock = common::make_sim_clock(1700000000000LL + 60 * 30000);
  Backend backend(clock);
  http::Client client;
  std::string url = backend.server->base_url() +
                    "/api/v1/query?query=" +
                    http::url_encode("ceems_job_power_watts{uuid=\"7\"}");
  for (auto _ : state) {
    auto result = client.get(url);
    if (!result.ok) {
      state.SkipWithError("backend query failed");
      break;
    }
    benchmark::DoNotOptimize(result.response.body);
  }
  backend.server->stop();
}
BENCHMARK(BM_direct_backend_query)->Unit(benchmark::kMicrosecond);

void BM_via_lb_admin(benchmark::State& state) {
  auto clock = common::make_sim_clock(1700000000000LL + 60 * 30000);
  Backend backend(clock);
  lb::LbConfig config;
  config.admin_users = {"admin"};
  lb::LoadBalancer balancer(config, {backend.server->base_url()}, clock);
  balancer.start();
  http::Client client;
  http::HeaderMap headers;
  headers["X-Grafana-User"] = "admin";
  std::string url = balancer.base_url() +
                    "/api/v1/query?query=" +
                    http::url_encode("ceems_job_power_watts{uuid=\"7\"}");
  for (auto _ : state) {
    auto result = client.get(url, headers);
    if (!result.ok || result.response.status != 200) {
      state.SkipWithError("lb query failed");
      break;
    }
    benchmark::DoNotOptimize(result.response.body);
  }
  balancer.stop();
  backend.server->stop();
}
BENCHMARK(BM_via_lb_admin)->Unit(benchmark::kMicrosecond);

// Strategy comparison under a skewed backend pair: fixed workload of 80
// concurrent-ish requests, wall time reported.
double run_strategy(lb::Strategy strategy) {
  auto clock = common::make_sim_clock(0);
  http::ServerConfig slow_config;
  slow_config.worker_threads = 4;
  http::Server slow(slow_config);
  slow.handle_prefix("/api/", [](const http::Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return http::Response::json(200, "{}");
  });
  http::Server fast(slow_config);
  fast.handle_prefix("/api/", [](const http::Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return http::Response::json(200, "{}");
  });
  slow.start();
  fast.start();

  lb::LbConfig config;
  config.strategy = strategy;
  config.admin_users = {"admin"};
  config.http.worker_threads = 8;
  lb::LoadBalancer balancer(config, {slow.base_url(), fast.base_url()}, clock);
  balancer.start();

  auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      http::Client client;
      http::HeaderMap headers;
      headers["X-Grafana-User"] = "admin";
      for (int i = 0; i < 10; ++i) {
        client.get(balancer.base_url() + "/api/v1/query?query=vector(1)",
                   headers);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  balancer.stop();
  slow.stop();
  fast.stop();
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf("\nE9 — 80 requests, 8 clients, slow(20ms)+fast(1ms) backends\n");
  double rr = run_strategy(lb::Strategy::kRoundRobin);
  double lc = run_strategy(lb::Strategy::kLeastConnection);
  std::printf("  round-robin:      %.3f s\n", rr);
  std::printf("  least-connection: %.3f s  (%.2fx faster)\n", lc, rr / lc);
  return 0;
}
