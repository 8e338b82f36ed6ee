// Soak scenarios — the declarative layer of the thousand-node soak
// harness (DESIGN.md §11). A Scenario describes one fleet-scale run:
// how many nodes, how long, what job churn, and which storms hit the
// stack when — job-arrival storms, label-cardinality explosions from a
// misbehaving exporter, scrape-target flapping, emissions-provider
// outages and LB backend brown-outs — all composed on top of the seeded
// ceems::faults machinery so a run replays bit-identically from
// (scenario, seed).
//
// Scenarios are expressed in a line-oriented text DSL so CI logs, replay
// commands and committed fixtures all share one canonical form:
//
//   scenario full
//   nodes 1000
//   duration 45m
//   seed 7
//   storm flap from 5m for 20m fraction 0.25
//   storm cardinality from 10m for 10m series 5000 churn 4
//   storm churn from 15m for 10m factor 4
//   outage emissions from 20m for 10m
//   storm lb from 24m for 8m
//   storm crash_restart from 22m for 12m every 4m
//   budget bytes_per_node 192k
//
// parse_scenario_text() reads it back; to_text() round-trips. The
// builtin scenarios (smoke, churn, cardinality, outage, full) are stored
// as DSL text and go through the same parser, so the parser is exercised
// on every soak run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"

namespace ceems::soak {

// Half-open window [start_ms, end_ms) in simulated time since run start.
struct StormWindow {
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  bool contains(int64_t t_ms) const { return t_ms >= start_ms && t_ms < end_ms; }
};

// A misbehaving exporter starts exposing `series` unique label sets; the
// label values churn to a fresh "wave" every `churn_sweeps` scrapes, so
// total cardinality grows wave by wave — the classic runaway-exporter
// explosion the API server's cardinality knobs exist for.
struct CardinalityStorm {
  StormWindow window;
  int series = 2000;
  int churn_sweeps = 4;
};

// Scrape targets start flapping (square-wave outages plus sporadic
// transport faults) via the "scrape.target" fault site.
struct FlapStorm {
  StormWindow window;
  double fraction = 0.25;       // share of targets that flap
  double connect_timeout = 0.05;  // per-scrape transport fault rate
};

// Arrival-rate storm: the workload generator's jobs_per_day is multiplied
// by `factor` for the window — a submission burst at fleet scale.
struct ChurnStorm {
  StormWindow window;
  double factor = 4.0;
};

// Every emissions provider goes dark ("emissions.provider" site at
// unavailable=1); the chain must serve last-known-good factors and
// recover cleanly after the window.
struct EmissionsOutage {
  StormWindow window;
};

// LB backend brown-out ("lb.backend" site): transport faults plus
// flapping trip the per-backend circuit breakers, which must re-close
// after the window.
struct LbStorm {
  StormWindow window;
  double connect_timeout = 0.25;
  double flap_fraction = 0.5;
};

// Hot-store crash/restart storm: every `every_ms` within the window the
// hot TSDB process "loses power" (its durable dir drops unsynced bytes)
// and is recovered in place from snapshot + WAL replay — the write-path
// durability claim exercised mid-scenario. Because every append is group-
// committed before it returns and crashes land between pipeline steps,
// recovery must be lossless: series/sample counts and canonical query
// results are asserted identical across each crash.
struct CrashRestartStorm {
  StormWindow window;
  int64_t every_ms = 4 * common::kMillisPerMinute;
};

// Hard-invariant budgets, asserted continuously at every checkpoint.
struct InvariantBudgets {
  // Memory ceiling: hot + long-term approx_bytes + the process symbol
  // table must stay under bytes_fixed + bytes_per_node * node_count.
  std::size_t bytes_fixed = 64u << 20;
  std::size_t bytes_per_node = 256u << 10;
  // Ingest lag: newest hot-store sample may trail the clock by at most
  // this (0 = default to 3 * scrape_interval).
  int64_t ingest_lag_ms = 0;
  // Deterministic per-query step budget: the p99 of points scanned per
  // canonical checkpoint query must stay under this.
  uint64_t query_points_p99 = 200000;
};

struct Scenario {
  std::string name = "unnamed";
  int nodes = 100;
  int64_t duration_ms = 30 * common::kMillisPerMinute;
  int64_t step_ms = 10 * common::kMillisPerSecond;
  int64_t scrape_interval_ms = 30 * common::kMillisPerSecond;
  // 0 = derived from the node count (the MiniStack-calibrated churn of
  // ~700 jobs/day/node).
  double jobs_per_day = 0;
  uint64_t seed = 7;
  // Invariants are evaluated (and counters sampled) this often.
  int64_t checkpoint_every_ms = 5 * common::kMillisPerMinute;
  // Hot-store retention: the stack's long-term downsample horizon, so
  // compaction purges hot samples older than this (aligned down to a
  // bucket boundary). It is what makes the memory ceiling a steady-state
  // claim instead of a function of run length.
  int64_t hot_retention_ms = 30 * common::kMillisPerMinute;
  // Clean tail after `duration_ms` with every storm lifted, before the
  // recovery invariants (all up, circuits closed, no staleness leaks).
  int64_t recovery_ms = 5 * common::kMillisPerMinute;
  InvariantBudgets budgets;

  std::optional<CardinalityStorm> cardinality;
  std::optional<FlapStorm> flap;
  std::optional<ChurnStorm> churn;
  std::optional<EmissionsOutage> outage;
  std::optional<LbStorm> lb;
  std::optional<CrashRestartStorm> crash_restart;

  // Derived: jobs_per_day, honoring the 0 = per-node default.
  double effective_jobs_per_day() const;
  // End of the last configured storm window (0 when storm-free).
  int64_t last_storm_end_ms() const;
};

// Parses the DSL; on error returns nullopt and sets *error to a
// "line N: what" message.
std::optional<Scenario> parse_scenario_text(const std::string& text,
                                            std::string* error);

// Canonical DSL text for a scenario; parse_scenario_text() round-trips it.
std::string to_text(const Scenario& scenario);

// Builtin scenario names, and their DSL text (empty string = unknown).
std::vector<std::string> builtin_scenario_names();
std::string builtin_scenario_text(const std::string& name);

// Series the misbehaving soak exporter exposes: one heartbeat (always
// present, so the target is legitimately up outside storms) and the
// exploding storm metric whose label sets churn wave by wave.
inline constexpr const char* kHeartbeatMetricName =
    "soak_bad_exporter_heartbeat";
inline constexpr const char* kStormMetricName = "soak_storm_series";

}  // namespace ceems::soak
