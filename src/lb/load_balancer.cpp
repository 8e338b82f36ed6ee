#include "lb/load_balancer.h"

#include <limits>

#include "common/logging.h"
#include "metrics/text_format.h"

namespace ceems::lb {

const char* circuit_state_name(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed: return "closed";
    case CircuitState::kOpen: return "open";
    case CircuitState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

LoadBalancer::LoadBalancer(LbConfig config,
                           std::vector<std::string> backend_urls,
                           common::ClockPtr clock)
    : config_(std::move(config)),
      clock_(std::move(clock)),
      server_(config_.http) {
  for (auto& url : backend_urls) {
    auto backend = std::make_unique<Backend>();
    backend->base_url = std::move(url);
    backends_.push_back(std::move(backend));
  }
  server_.handle_prefix("/api/v1/", [this](const http::Request& request) {
    return handle_proxy(request);
  });
  server_.handle("/health", [](const http::Request&) {
    return http::Response::json(200, "{\"status\":\"ok\"}");
  });
  server_.handle("/metrics", [this](const http::Request&) {
    return http::Response::text(200, render_metrics());
  });
}

LoadBalancer::~LoadBalancer() { stop(); }

void LoadBalancer::start() { server_.start(); }
void LoadBalancer::stop() { server_.stop(); }

bool LoadBalancer::check_ownership(const std::string& user,
                                   const std::set<std::string>& uuids) {
  if (api_server_) {
    for (const auto& uuid : uuids) {
      if (!api_server_->verify_ownership(user, uuid)) return false;
    }
    return true;
  }
  if (config_.api_server_url.empty()) return false;
  // HTTP fallback (§II-C): ask the API server's verify endpoint.
  std::string url = config_.api_server_url + "/api/v1/units/verify?";
  bool first = true;
  for (const auto& uuid : uuids) {
    if (!first) url += "&";
    first = false;
    url += "uuid=" + http::url_encode(uuid);
  }
  http::Client client;
  http::HeaderMap headers;
  headers[apiserver::kGrafanaUserHeader] = user;
  auto result = client.get(url, headers);
  return result.ok && result.response.status == 200;
}

bool LoadBalancer::selectable(const Backend& backend,
                              common::TimestampMs now) const {
  if (!circuit_enabled()) return true;
  std::lock_guard lock(backend.mu);
  switch (backend.state) {
    case CircuitState::kClosed:
      return true;
    case CircuitState::kOpen:
      return now >= backend.open_until_ms;
    case CircuitState::kHalfOpen:
      return !backend.probe_inflight;
  }
  return true;
}

bool LoadBalancer::try_acquire(Backend& backend, common::TimestampMs now) {
  if (!circuit_enabled()) return true;
  std::lock_guard lock(backend.mu);
  switch (backend.state) {
    case CircuitState::kClosed:
      return true;
    case CircuitState::kOpen:
      if (now < backend.open_until_ms) return false;
      backend.state = CircuitState::kHalfOpen;
      backend.probe_inflight = true;
      return true;
    case CircuitState::kHalfOpen:
      if (backend.probe_inflight) return false;
      backend.probe_inflight = true;
      return true;
  }
  return true;
}

void LoadBalancer::on_result(Backend& backend, bool ok,
                             common::TimestampMs now) {
  if (!circuit_enabled()) return;
  std::lock_guard lock(backend.mu);
  backend.probe_inflight = false;
  if (ok) {
    backend.state = CircuitState::kClosed;
    backend.consecutive_failures = 0;
    return;
  }
  if (backend.state == CircuitState::kHalfOpen) {
    // Failed probe: straight back to open for another cooldown.
    backend.state = CircuitState::kOpen;
    backend.open_until_ms = now + config_.failover_cooldown_ms;
    ++backend.opens_total;
    return;
  }
  if (++backend.consecutive_failures >= config_.circuit_failure_threshold) {
    backend.state = CircuitState::kOpen;
    backend.open_until_ms = now + config_.failover_cooldown_ms;
    backend.consecutive_failures = 0;
    ++backend.opens_total;
  }
}

LoadBalancer::Backend* LoadBalancer::pick_backend(common::TimestampMs now) {
  if (backends_.empty()) return nullptr;
  if (config_.strategy == Strategy::kRoundRobin) {
    // Skip backends whose circuit won't admit a request, up to one
    // rotation; when nothing is selectable the caller answers 503.
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      std::size_t index = round_robin_next_.fetch_add(1) % backends_.size();
      if (selectable(*backends_[index], now)) return backends_[index].get();
    }
    return nullptr;
  }
  // Least connection among selectable backends.
  Backend* best = nullptr;
  int best_inflight = std::numeric_limits<int>::max();
  for (const auto& backend : backends_) {
    if (!selectable(*backend, now)) continue;
    int inflight = backend->inflight.load();
    if (inflight < best_inflight) {
      best_inflight = inflight;
      best = backend.get();
    }
  }
  return best;
}

http::Response LoadBalancer::handle_proxy(const http::Request& request) {
  std::string user =
      request.header(apiserver::kGrafanaUserHeader).value_or("");
  if (user.empty()) {
    ++denied_;
    return http::Response::forbidden("missing X-Grafana-User header");
  }
  bool admin = config_.admin_users.count(user) > 0;

  // Introspect the PromQL query (query endpoints only; /api/v1/series uses
  // match[] selectors which go through the same code).
  std::string path = request.path();
  std::vector<std::string> queries;
  if (path == "/api/v1/query" || path == "/api/v1/query_range") {
    auto params = request.query_params();
    auto it = params.find("query");
    if (it != params.end()) queries.push_back(it->second);
  } else if (path == "/api/v1/series") {
    queries = request.query_param_all("match[]");
  }

  if (!admin) {
    if (queries.empty()) {
      ++denied_;
      return http::Response::forbidden("only query endpoints are allowed");
    }
    std::set<std::string> uuids;
    for (const auto& query : queries) {
      IntrospectResult result = introspect_query(query);
      if (!result.parse_ok) {
        ++denied_;
        return http::Response::bad_request("unparsable query: " +
                                           result.error);
      }
      if (result.has_unverifiable_selector) {
        ++denied_;
        return http::Response::forbidden(
            "query must pin uuid=\"...\" on every selector");
      }
      uuids.insert(result.uuids.begin(), result.uuids.end());
    }
    if (!check_ownership(user, uuids)) {
      ++denied_;
      return http::Response::forbidden("user " + user +
                                       " does not own the queried units");
    }
  }

  http::HeaderMap headers = request.headers;
  headers.erase("Host");
  headers.erase("Content-Length");
  headers.erase("Connection");

  // Failover: a transport failure moves on to the next backend, up to one
  // full rotation. The circuit breaker decides which backends may even be
  // tried; when no circuit admits a request the answer is an immediate
  // 503, which is distinct from 502 (= every admitted backend was probed
  // and failed).
  std::string last_error = "no backends configured";
  bool attempted = false;
  for (std::size_t attempt = 0; attempt < backends_.size(); ++attempt) {
    common::TimestampMs now = clock_->now_ms();
    Backend* backend = pick_backend(now);
    if (!backend) break;
    if (!try_acquire(*backend, now)) continue;
    attempted = true;
    ++backend->inflight;
    ++backend->requests;
    http::FetchResult result;
    faults::FaultDecision fault;
    if (config_.fault_hook) {
      fault = config_.fault_hook("lb.backend", backend->base_url);
    }
    if (fault) {
      result.ok = false;
      result.error = std::string("injected fault: ") +
                     faults::fault_kind_name(fault.kind);
    } else {
      http::Client client;
      result = client.request(request.method,
                              backend->base_url + request.target,
                              request.body, headers);
    }
    --backend->inflight;
    on_result(*backend, result.ok, clock_->now_ms());
    if (result.ok) return result.response;
    ++backend->failures;
    last_error = result.error;
  }
  if (!attempted && !backends_.empty()) {
    return http::Response::json(
        503,
        "{\"status\":\"error\",\"error\":\"all backends circuit-open\"}");
  }
  return http::Response::json(
      502, "{\"status\":\"error\",\"error\":\"backends unreachable: " +
               last_error + "\"}");
}

std::vector<BackendStats> LoadBalancer::backend_stats() const {
  std::vector<BackendStats> out;
  for (const auto& backend : backends_) {
    BackendStats stats;
    stats.base_url = backend->base_url;
    stats.requests = backend->requests.load();
    stats.failures = backend->failures.load();
    stats.inflight = backend->inflight.load();
    {
      std::lock_guard lock(backend->mu);
      stats.circuit = backend->state;
      stats.circuit_opens = backend->opens_total;
    }
    out.push_back(std::move(stats));
  }
  return out;
}

std::string LoadBalancer::render_metrics() const {
  using metrics::MetricType;
  std::vector<metrics::MetricFamily> families = {
      {"ceems_lb_backend_circuit_state", "", MetricType::kGauge, {}},
      {"ceems_lb_backend_circuit_opens_total", "", MetricType::kCounter, {}},
      {"ceems_lb_backend_requests_total", "", MetricType::kCounter, {}},
      {"ceems_lb_backend_failures_total", "", MetricType::kCounter, {}},
      {"ceems_lb_denied_total", "", MetricType::kCounter, {}},
  };
  for (const auto& stats : backend_stats()) {
    metrics::Labels labels{{"backend", stats.base_url}};
    // 0 = closed, 1 = open, 2 = half-open.
    families[0].add(labels, static_cast<double>(stats.circuit));
    families[1].add(labels, static_cast<double>(stats.circuit_opens));
    families[2].add(labels, static_cast<double>(stats.requests));
    families[3].add(labels, static_cast<double>(stats.failures));
  }
  families[4].add({}, static_cast<double>(denied_.load()));
  return metrics::encode_families(families);
}

}  // namespace ceems::lb
