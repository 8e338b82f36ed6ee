#include "soak/invariants.h"

#include <algorithm>

#include "common/strutil.h"
#include "metrics/model.h"
#include "tsdb/promql_eval.h"

namespace ceems::soak {
namespace {

using metrics::LabelMatcher;

const tsdb::promql::Engine& invariant_engine() {
  static const tsdb::promql::Engine engine;
  return engine;
}

}  // namespace

InvariantChecker::InvariantChecker(const Scenario& scenario, int node_count,
                                   std::size_t target_count)
    : scenario_(scenario),
      node_count_(node_count),
      target_count_(target_count) {
  bytes_ceiling_ = scenario.budgets.bytes_fixed +
                   scenario.budgets.bytes_per_node *
                       static_cast<std::size_t>(node_count);
  ingest_lag_budget_ms_ = scenario.budgets.ingest_lag_ms > 0
                              ? scenario.budgets.ingest_lag_ms
                              : 3 * scenario.scrape_interval_ms;
}

void InvariantChecker::violate(common::TimestampMs now,
                               const std::string& what) {
  violations_.push_back("[t=" + common::format_duration_ms(now) + "] " + what);
}

void InvariantChecker::at_checkpoint(core::CeemsStack& stack,
                                     common::TimestampMs now) {
  auto hot = stack.hot_store()->stats();
  auto longterm = stack.longterm()->stats();
  // Recent samples live only in the hot store and history only in the
  // long-term ladder, so nothing is counted twice; symbol_bytes is
  // process-wide and reported once, not per store.
  std::size_t total_bytes =
      hot.approx_bytes + longterm.approx_bytes + hot.symbol_bytes;
  peak_bytes_ = std::max(peak_bytes_, total_bytes);
  max_series_ = std::max(max_series_, hot.num_series);
  if (total_bytes > bytes_ceiling_) {
    violate(now, "memory ceiling: " + std::to_string(total_bytes) +
                     " bytes > " + std::to_string(bytes_ceiling_) +
                     " (hot=" + std::to_string(hot.approx_bytes) +
                     " longterm=" + std::to_string(longterm.approx_bytes) +
                     " symbols=" + std::to_string(hot.symbol_bytes) + ")");
  }

  auto newest = stack.hot_store()->max_time();
  if (!newest) {
    violate(now, "ingest lag: hot store is empty");
  } else if (now - *newest > ingest_lag_budget_ms_) {
    violate(now, "ingest lag: newest sample trails the clock by " +
                     common::format_duration_ms(now - *newest) + " > " +
                     common::format_duration_ms(ingest_lag_budget_ms_));
  }

  // Every scrape target must keep an `up` series — flapping turns up to
  // 0, it never silently removes the target from the store.
  auto ups = stack.hot_store()->select(
      {{"__name__", LabelMatcher::Op::kEq, "up"}},
      now - 2 * scenario_.scrape_interval_ms, now);
  if (ups.size() != target_count_) {
    violate(now, "up coverage: " + std::to_string(ups.size()) +
                     " up series in the last two sweeps, expected " +
                     std::to_string(target_count_));
  }
}

void InvariantChecker::record_query_points(uint64_t points) {
  query_points_.push_back(points);
}

void InvariantChecker::after_cardinality_storm(core::CeemsStack& stack,
                                               common::TimestampMs now) {
  auto& hot = *stack.hot_store();
  // The raw store must still hold the storm series (retention has not
  // caught up yet)...
  auto raw = hot.select({{"__name__", LabelMatcher::Op::kEq,
                          kStormMetricName}},
                        0, now);
  if (raw.empty()) {
    violate(now, "cardinality storm left no trace in the raw store "
                 "(storm exporter never scraped?)");
    return;
  }
  // ...yet every storm series must be invisible to instant queries: the
  // sweep after the storm ended stale-marked them all.
  auto value = invariant_engine().eval(hot, kStormMetricName, now);
  if (!value.vector.empty()) {
    violate(now, "staleness leak: " + std::to_string(value.vector.size()) +
                     " of " + std::to_string(raw.size()) + " " +
                     kStormMetricName +
                     " series still visible to instant queries after the "
                     "cardinality storm ended");
  }
}

void InvariantChecker::at_recovery_end(core::CeemsStack& stack,
                                       common::TimestampMs now,
                                       bool lb_running) {
  auto& hot = *stack.hot_store();

  // Every target recovered: a full complement of up series, all == 1.
  auto ups = invariant_engine().eval(hot, "up", now);
  std::size_t up_ok = 0;
  for (const auto& sample : ups.vector) {
    if (sample.value == 1.0) ++up_ok;
  }
  if (ups.vector.size() != target_count_ || up_ok != target_count_) {
    violate(now, "recovery: " + std::to_string(up_ok) + "/" +
                     std::to_string(ups.vector.size()) + " up series are 1, "
                     "expected all " + std::to_string(target_count_) +
                     " targets up");
  }

  // Live node series must be query-visible — a staleness marker leaked
  // onto a healthy node's series would drop it from the instant vector.
  auto power = invariant_engine().eval(hot, "ceems_ipmi_dcmi_current_watts",
                                       now);
  if (power.vector.size() != static_cast<std::size_t>(node_count_)) {
    violate(now, "staleness leak: " + std::to_string(power.vector.size()) +
                     "/" + std::to_string(node_count_) +
                     " nodes report IPMI power after recovery");
  }

  // Emissions providers back from the outage: the factor series carries a
  // fresh, non-stale sample.
  if (scenario_.outage) {
    auto factors = hot.select_newest(
        {{"__name__", LabelMatcher::Op::kEq, "ceems_emissions_gCo2_kWh"}},
        now - 2 * scenario_.scrape_interval_ms, now);
    bool fresh = false;
    for (const auto& factor : factors) {
      if (!metrics::is_stale_marker(factor.sample.v)) fresh = true;
    }
    if (!fresh) {
      violate(now, "emissions recovery: no fresh factor sample within two "
                   "sweeps of the run end");
    }
  }

  // LB circuit breakers re-closed, and the proxy path serves again.
  if (lb_running) {
    for (const auto& backend : stack.load_balancer().backend_stats()) {
      if (backend.circuit != lb::CircuitState::kClosed) {
        violate(now, "circuit breaker for " + backend.base_url +
                         " still " +
                         lb::circuit_state_name(backend.circuit) +
                         " after recovery (opened " +
                         std::to_string(backend.circuit_opens) + "x)");
      }
    }
    http::Request probe;
    probe.method = "GET";
    probe.target = "/api/v1/query?query=sum(up)";
    probe.headers["X-Grafana-User"] = "admin";
    auto response = stack.load_balancer().handle_proxy(probe);
    if (response.status != 200) {
      violate(now, "LB probe after recovery returned " +
                       std::to_string(response.status) + ", expected 200");
    }
  }
}

bool InvariantChecker::finish() {
  if (!query_points_.empty()) {
    std::vector<uint64_t> sorted = query_points_;
    std::sort(sorted.begin(), sorted.end());
    std::size_t index =
        (sorted.size() * 99 + 99) / 100;  // ceil(0.99 * n), 1-based
    query_points_p99_ = sorted[std::min(index, sorted.size()) - 1];
    if (query_points_p99_ > scenario_.budgets.query_points_p99) {
      violations_.push_back(
          "[end] query step budget: p99 points scanned per checkpoint "
          "query is " +
          std::to_string(query_points_p99_) + " > budget " +
          std::to_string(scenario_.budgets.query_points_p99));
    }
  }
  return violations_.empty();
}

}  // namespace ceems::soak
