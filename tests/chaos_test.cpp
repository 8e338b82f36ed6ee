// Chaos suite (DESIGN.md "Failure model"): drives the full CEEMS stack
// under seeded, randomized fault plans and asserts the recovery invariants
//   1. nothing crashes and the pipeline keeps producing `up` samples;
//   2. a failed scrape never drops a series silently — `up` goes to 0 and
//      the series gets a staleness marker, never a fabricated sample;
//   3. samples that survive the faults are bit-identical to the no-fault
//      run (the differential guard: faults may erase data, never alter it);
//   4. an installed-but-unconfigured FaultPlan is behaviourally inert;
//   5. the LB never routes to a backend whose circuit is open (except the
//      single half-open probe, observable via circuit_opens/state).
//
// Every assertion carries the chaos seed, so a CI failure reproduces with
// CHAOS_SEEDS="<seed>" ctest -R Chaos.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faults/plan.h"
#include "http/server.h"
#include "lb/load_balancer.h"
#include "metrics/model.h"
#include "stack_fixture.h"

namespace ceems {
namespace {

using common::TimestampMs;
using metrics::LabelMatcher;

// Two full flap cycles (flap_period_ms defaults to 10 min), 40 sweeps.
constexpr int64_t kChaosRunMs = 20 * common::kMillisPerMinute;

// Raw exporter metrics for the differential guard: scraped (never
// rule-derived), present on every node, and — because the exposition body
// is rendered exactly once per sweep regardless of faults — expected to be
// bit-identical between the fault and no-fault runs wherever they survive.
// Emissions series are excluded (provider fallback legitimately changes
// which factor is exported).
const char* const kDifferentialMetrics[] = {
    "ceems_compute_unit_cpu_usage_seconds_total",
    "ceems_compute_unit_memory_current_bytes",
    "node_cpu_seconds_total",
    "ceems_rapl_package_joules_total",
    "ceems_ipmi_dcmi_current_watts",
};

// First failure prints a one-line reproduction command (the soak-smoke CI
// job surfaces these lines from the log — see .github/workflows/ci.yml):
// the failing seed is pinned via CHAOS_SEEDS and the suite re-run alone.
void print_replay_once(uint64_t seed) {
  static bool printed = false;
  if (printed || !::testing::Test::HasFailure()) return;
  printed = true;
  std::fprintf(stderr,
               "[chaos replay] CHAOS_SEEDS=\"%llu\" ctest --test-dir build "
               "--output-on-failure -R Chaos\n",
               static_cast<unsigned long long>(seed));
}

std::vector<uint64_t> chaos_seeds() {
  if (const char* env = std::getenv("CHAOS_SEEDS")) {
    std::vector<uint64_t> seeds;
    std::istringstream in(env);
    uint64_t seed;
    while (in >> seed) seeds.push_back(seed);
    if (!seeds.empty()) return seeds;
  }
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
}

uint64_t bits_of(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Full store contents as labels-string -> {t -> value bit pattern}.
using StoreDump = std::map<std::string, std::map<int64_t, uint64_t>>;

StoreDump dump_store(const tsdb::TimeSeriesStore& store,
                     bool include_durations = false) {
  StoreDump out;
  auto views =
      store.select({{"__name__", LabelMatcher::Op::kRegexMatch, ".+"}}, 0,
                   std::numeric_limits<int64_t>::max());
  for (const auto& view : views) {
    // scrape_duration_seconds measures wall time and is never identical
    // across runs; everything else in the stack is simulated-time pure.
    if (!include_durations && view.labels.name() == "scrape_duration_seconds")
      continue;
    auto& series = out[view.labels.to_labels().to_string()];
    for (const auto& sample : view.samples()) {
      series[sample.t] = bits_of(sample.v);
    }
  }
  return out;
}

bool is_scrape_synthetic(std::string_view name) {
  return name == "up" || name == "scrape_duration_seconds" ||
         name == "ceems_http_retries_total";
}

bool is_rule_output(std::string_view name) {
  return name.find(':') != std::string_view::npos ||
         name.substr(0, 6) == "ALERTS";
}

// Randomized per-seed fault mix. simfs read faults silently thin the
// exposition body, which legitimately shifts stateful collectors'
// accumulation order — so they are only enabled for runs that skip the
// bitwise differential check.
std::shared_ptr<faults::FaultPlan> make_chaos_plan(uint64_t seed,
                                                   bool include_simfs) {
  auto plan = std::make_shared<faults::FaultPlan>(seed);
  common::Rng rng(seed ^ 0xC0FFEEULL);

  faults::SiteFaults scrape;
  scrape.connect_timeout = 0.04 + 0.08 * rng.next_double();
  scrape.io_timeout = 0.06 * rng.next_double();
  scrape.truncate = 0.03 + 0.05 * rng.next_double();
  scrape.slow = 0.04 * rng.next_double();  // delay >= timeout: a failure
  scrape.unavailable = 0.04 * rng.next_double();
  scrape.flap = 0.25;
  plan->configure("scrape.target", scrape);

  faults::SiteFaults emissions;
  emissions.http_429 = 0.25 * rng.next_double();
  emissions.unavailable = 0.25 * rng.next_double();
  plan->configure("emissions.provider", emissions);

  if (include_simfs) {
    faults::SiteFaults fs_faults;
    fs_faults.read_error = 0.01 + 0.02 * rng.next_double();
    plan->configure("simfs.read", fs_faults);
  }
  return plan;
}

// Invariants 1 + 2 over a finished chaos run: up is 0/1 and present every
// sweep; a sweep with up==0 never carries a live sample of that instance,
// and the first failed sweep stale-marks every series that was live on the
// previous sweep.
void check_staleness_invariants(ceems::testing::MiniStack& mini,
                                bool expect_failures) {
  auto& store = *mini.stack().hot_store();
  const TimestampMs end = mini.clock()->now_ms();

  auto ups = store.select({{"__name__", LabelMatcher::Op::kEq, "up"}}, 0, end);
  ASSERT_FALSE(ups.empty());
  bool any_down = false;

  for (const auto& up_view : ups) {
    auto instance = up_view.labels.get("instance");
    ASSERT_TRUE(instance.has_value()) << up_view.labels.to_labels().to_string();
    SCOPED_TRACE("instance " + std::string(*instance));

    std::map<int64_t, double> up_at;
    std::set<int64_t> down_times;
    for (const auto& sample : up_view.samples()) {
      EXPECT_TRUE(sample.v == 0.0 || sample.v == 1.0) << sample.v;
      up_at[sample.t] = sample.v;
      if (sample.v == 0.0) {
        down_times.insert(sample.t);
        any_down = true;
      }
    }
    if (down_times.empty()) continue;

    auto series = store.select(
        {{"instance", LabelMatcher::Op::kEq, std::string(*instance)}}, 0,
        end);
    for (const auto& view : series) {
      std::string name(view.labels.name());
      if (is_scrape_synthetic(name) || is_rule_output(name)) continue;
      SCOPED_TRACE("series " + view.labels.to_labels().to_string());

      std::map<int64_t, double> by_t;
      for (const auto& sample : view.samples()) by_t[sample.t] = sample.v;

      // No live sample on a failed sweep.
      for (int64_t t : down_times) {
        auto it = by_t.find(t);
        if (it != by_t.end()) {
          EXPECT_TRUE(metrics::is_stale_marker(it->second))
              << "live sample at failed sweep t=" << t;
        }
      }
      // Live on the previous sweep + down now => marker now.
      int64_t prev_t = -1;
      for (const auto& [t, up] : up_at) {
        if (up == 0.0 && prev_t >= 0 && up_at[prev_t] == 1.0) {
          auto prev = by_t.find(prev_t);
          if (prev != by_t.end() &&
              !metrics::is_stale_marker(prev->second)) {
            auto cur = by_t.find(t);
            ASSERT_TRUE(cur != by_t.end())
                << "series live at t=" << prev_t
                << " dropped silently at failed sweep t=" << t;
            EXPECT_TRUE(metrics::is_stale_marker(cur->second));
          }
        }
        prev_t = t;
      }
    }
  }
  if (expect_failures) {
    EXPECT_TRUE(any_down);
  }
}

// Invariant 3: every surviving (non-stale) sample of the differential
// metrics exists bit-identically in the no-fault baseline.
void check_differential_subset(ceems::testing::MiniStack& mini,
                               const StoreDump& baseline) {
  auto& store = *mini.stack().hot_store();
  for (const char* name : kDifferentialMetrics) {
    auto views = store.select({{"__name__", LabelMatcher::Op::kEq, name}}, 0,
                              std::numeric_limits<int64_t>::max());
    EXPECT_FALSE(views.empty()) << name;
    for (const auto& view : views) {
      const std::string key = view.labels.to_labels().to_string();
      auto base_it = baseline.find(key);
      ASSERT_TRUE(base_it != baseline.end()) << key;
      for (const auto& sample : view.samples()) {
        if (metrics::is_stale_marker(sample.v)) continue;
        auto t_it = base_it->second.find(sample.t);
        ASSERT_TRUE(t_it != base_it->second.end())
            << key << " @ " << sample.t;
        EXPECT_EQ(t_it->second, bits_of(sample.v)) << key << " @ "
                                                   << sample.t;
      }
    }
  }
}

// No-fault baseline, computed once: the cluster seed is fixed (MiniStack
// default), only the chaos seed varies per run.
const StoreDump& baseline_dump() {
  static const StoreDump* dump = [] {
    ceems::testing::MiniStack mini;
    mini.run(kChaosRunMs);
    return new StoreDump(dump_store(*mini.stack().hot_store()));
  }();
  return *dump;
}

TEST(ChaosStack, RandomFaultPlansKeepInvariants) {
  for (uint64_t seed : chaos_seeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    ceems::testing::MiniStackOptions options;
    options.stack.fault_plan = make_chaos_plan(seed, /*include_simfs=*/false);
    ceems::testing::MiniStack mini(options);
    options.stack.fault_plan->set_clock(mini.clock());
    mini.run(kChaosRunMs);

    EXPECT_GT(options.stack.fault_plan->stats().faults, 0u);
    check_staleness_invariants(mini, /*expect_failures=*/true);
    check_differential_subset(mini, baseline_dump());
    print_replay_once(seed);
  }
}

TEST(ChaosStack, SimfsReadFaultsSurvived) {
  // Collector-level faults: missing pseudo-files thin the exposition (and
  // may shift stateful collectors' accumulation), so only the staleness
  // invariants apply — not the bitwise differential.
  for (uint64_t seed : {7001ULL, 7002ULL, 7003ULL}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    ceems::testing::MiniStackOptions options;
    options.stack.fault_plan = make_chaos_plan(seed, /*include_simfs=*/true);
    ceems::testing::MiniStack mini(options);
    options.stack.fault_plan->set_clock(mini.clock());
    mini.run(kChaosRunMs);
    EXPECT_GT(options.stack.fault_plan->stats().faults, 0u);
    check_staleness_invariants(mini, /*expect_failures=*/true);
    print_replay_once(seed);
  }
}

TEST(ChaosStack, UnconfiguredPlanIsBitIdenticalToNoPlan) {
  // Invariant 4 — the differential guard's foundation: merely installing
  // the fault machinery (hooks on every site, retry loops armed) must not
  // change a single stored bit.
  ceems::testing::MiniStackOptions with_plan;
  with_plan.stack.fault_plan = std::make_shared<faults::FaultPlan>(12345);
  ceems::testing::MiniStack faulty(with_plan);
  with_plan.stack.fault_plan->set_clock(faulty.clock());
  faulty.run(kChaosRunMs);

  ceems::testing::MiniStack plain;
  plain.run(kChaosRunMs);

  StoreDump a = dump_store(*faulty.stack().hot_store());
  StoreDump b = dump_store(*plain.stack().hot_store());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(with_plan.stack.fault_plan->stats().faults, 0u);
}

TEST(ChaosStack, SameSeedReproducesBitIdentically) {
  // One seed, two complete runs: the whole point of seeded chaos.
  StoreDump dumps[2];
  for (int run = 0; run < 2; ++run) {
    ceems::testing::MiniStackOptions options;
    options.stack.fault_plan = make_chaos_plan(99, /*include_simfs=*/false);
    ceems::testing::MiniStack mini(options);
    options.stack.fault_plan->set_clock(mini.clock());
    mini.run(kChaosRunMs);
    dumps[run] = dump_store(*mini.stack().hot_store());
  }
  EXPECT_TRUE(dumps[0] == dumps[1]);
}

// ---------- LB circuit breaker under chaos (invariant 5) ----------

http::Request admin_query() {
  http::Request request;
  request.method = "GET";
  request.target = "/api/v1/query?query=vector(1)";
  request.headers["X-Grafana-User"] = "admin";
  return request;
}

TEST(ChaosLb, NeverRoutesToOpenCircuit) {
  for (uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    auto clock = common::make_sim_clock(0);
    auto plan = std::make_shared<faults::FaultPlan>(seed);
    plan->set_clock(clock);
    faults::SiteFaults backend_faults;
    backend_faults.connect_timeout = 0.25;
    backend_faults.flap = 0.5;
    backend_faults.flap_period_ms = 20000;
    backend_faults.flap_down_ms = 8000;
    plan->configure("lb.backend", backend_faults);

    http::Server healthy{http::ServerConfig{}};
    healthy.handle_prefix("/", [](const http::Request&) {
      return http::Response::json(200, "{\"status\":\"success\"}");
    });
    healthy.start();

    lb::LbConfig config;
    config.admin_users = {"admin"};
    config.circuit_failure_threshold = 2;
    config.failover_cooldown_ms = 5000;
    config.fault_hook = plan->hook();
    // Two urls for the same live server: faults are keyed per-url, so the
    // breaker sees two independent flapping backends.
    lb::LoadBalancer lb(config,
                        {healthy.base_url(), healthy.base_url() + "/"},
                        clock);

    for (int i = 0; i < 200; ++i) {
      auto before = lb.backend_stats();
      auto response = lb.handle_proxy(admin_query());
      auto after = lb.backend_stats();

      EXPECT_TRUE(response.status == 200 || response.status == 502 ||
                  response.status == 503)
          << response.status;
      uint64_t requests_delta = 0;
      for (std::size_t b = 0; b < before.size(); ++b) {
        requests_delta += after[b].requests - before[b].requests;
        if (before[b].circuit == lb::CircuitState::kOpen &&
            after[b].requests > before[b].requests) {
          // The only admissible request through an open circuit is the
          // half-open probe, which always changes observable state.
          EXPECT_TRUE(after[b].circuit_opens > before[b].circuit_opens ||
                      after[b].circuit != lb::CircuitState::kOpen)
              << "request routed through an open circuit (backend " << b
              << ", iteration " << i << ")";
        }
      }
      // 503 == "all circuits open": no backend may have been contacted.
      if (response.status == 503) {
        EXPECT_EQ(requests_delta, 0u);
      }
      clock->advance(500);
    }
    healthy.stop();
    print_replay_once(seed);
  }
}

// ---------- FaultPlan determinism ----------

TEST(FaultPlan, SameSeedSameDecisions) {
  auto run = [](uint64_t seed) {
    faults::FaultPlan plan(seed);
    faults::SiteFaults site;
    site.connect_timeout = 0.2;
    site.http_5xx = 0.2;
    site.truncate = 0.2;
    plan.configure("s", site);
    std::string trace;
    for (int key = 0; key < 4; ++key) {
      for (int i = 0; i < 64; ++i) {
        auto decision = plan.decide("s", "k" + std::to_string(key));
        trace += faults::fault_kind_name(decision.kind);
        trace += std::to_string(decision.http_status);
        trace += ';';
      }
    }
    return trace;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(FaultPlan, UnconfiguredSiteNeverFaults) {
  faults::FaultPlan plan(1);
  faults::SiteFaults site;
  site.unavailable = 1.0;
  plan.configure("configured", site);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(plan.decide("other", "k"));
    EXPECT_TRUE(plan.decide("configured", "k"));
  }
  // Unconfigured sites short-circuit before the decision stream, so only
  // the configured site's calls are counted.
  EXPECT_EQ(plan.stats().decisions, 32u);
  EXPECT_EQ(plan.stats().faults, 32u);
}

TEST(FaultPlan, FlapperFollowsSquareWave) {
  faults::FaultPlan plan(3);
  faults::SiteFaults site;
  site.flap = 1.0;  // every key flaps
  site.flap_period = 8;
  site.flap_down = 3;
  plan.configure("s", site);
  // Call-count mode (no clock): dark for the first 3 of every 8 decisions.
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int n = 0; n < 8; ++n) {
      auto decision = plan.decide("s", "k");
      EXPECT_EQ(static_cast<bool>(decision), n < 3)
          << "cycle " << cycle << " n " << n;
      if (decision) {
        EXPECT_EQ(decision.kind, faults::FaultKind::kUnavailable);
      }
    }
  }
}

}  // namespace
}  // namespace ceems
