#include "soak/runner.h"

#include <cinttypes>
#include <memory>

#include "common/json.h"
#include "common/strutil.h"
#include "core/stack.h"
#include "faults/plan.h"
#include "simfs/durable_dir.h"
#include "slurm/cluster_sim.h"
#include "tsdb/promql_eval.h"

namespace ceems::soak {
namespace {

using common::TimestampMs;

// Fixed epoch shared with the scale benches: counters must be functions
// of (scenario, seed) only, so the clock never starts from wall time.
constexpr int64_t kSoakEpochMs = 1700000000000LL;

// The misbehaving exporter's exposition body. Outside the storm window it
// is a healthy one-series target; inside, it explodes into `series` label
// sets whose values are pure functions of (id, wave), with the wave
// churning every churn_sweeps scrapes so cardinality keeps growing.
std::string bad_exporter_body(const Scenario& scenario, int64_t rel_ms) {
  std::string out;
  out += "# TYPE ";
  out += kHeartbeatMetricName;
  out += " gauge\n";
  out += kHeartbeatMetricName;
  out += " 1\n";
  const CardinalityStorm& storm = *scenario.cardinality;
  if (!storm.window.contains(rel_ms)) return out;
  int64_t wave = (rel_ms - storm.window.start_ms) /
                 (storm.churn_sweeps * scenario.scrape_interval_ms);
  out += "# TYPE ";
  out += kStormMetricName;
  out += " gauge\n";
  out.reserve(out.size() + static_cast<std::size_t>(storm.series) * 56);
  for (int i = 0; i < storm.series; ++i) {
    out += kStormMetricName;
    out += "{id=\"";
    out += std::to_string(i);
    out += "\",wave=\"";
    out += std::to_string(wave);
    out += "\"} ";
    out += std::to_string((i * 31 + wave * 17) % 997);
    out += "\n";
  }
  return out;
}

// Canonical checkpoint queries: a mix the dashboards actually issue —
// fleet health, per-nodegroup power, and two window queries over the
// long-term store. Their points-scanned deltas are the deterministic
// stand-in for query latency (wall time is meaningless in CI).
struct CanonicalQuery {
  const char* expr;
  bool range;            // instant at now vs range over the trailing span
  int64_t span_ms;
  int64_t step_ms;
};

constexpr CanonicalQuery kCanonicalQueries[] = {
    {"sum(up)", false, 0, 0},
    {"sum by (nodegroup) (ceems_job_power_watts)", false, 0, 0},
    {"sum(avg_over_time(ceems_ipmi_dcmi_current_watts[5m]))", true,
     15 * common::kMillisPerMinute, common::kMillisPerMinute},
    {"sum(rate(ceems_rapl_package_joules_total[2m]))", true,
     10 * common::kMillisPerMinute, common::kMillisPerMinute},
};

uint64_t longterm_points(const tsdb::LongTermStore& store) {
  auto stats = store.select_stats();
  uint64_t points = stats.raw_points_scanned;
  for (uint64_t level : stats.level_points_scanned) points += level;
  return points;
}

}  // namespace

std::string SoakReport::replay_command() const {
  return "ceems_soak --scenario " + scenario.name + " --nodes " +
         std::to_string(scenario.nodes) + " --seed " +
         std::to_string(scenario.seed);
}

SoakRunner::SoakRunner(Scenario scenario, SoakOptions options)
    : scenario_(std::move(scenario)), options_(options) {}

SoakReport SoakRunner::run() {
  SoakReport report;
  report.scenario = scenario_;
  auto log = [&](const char* fmt, auto... args) {
    if (options_.log) {
      std::fprintf(options_.log, "[soak %s seed %" PRIu64 "] ",
                   scenario_.name.c_str(), scenario_.seed);
      std::fprintf(options_.log, fmt, args...);
      std::fputc('\n', options_.log);
      std::fflush(options_.log);
    }
  };

  // --- fleet + stack ---
  auto clock = common::make_sim_clock(kSoakEpochMs);
  const TimestampMs start_ms = clock->now_ms();
  slurm::JeanZayScale scale =
      slurm::JeanZayScale{}.scaled(scenario_.nodes / 1400.0);
  auto gen_config = slurm::make_jean_zay_workload_config(
      scale, scenario_.effective_jobs_per_day());
  gen_config.seed = scenario_.seed;
  slurm::ClusterSim sim(
      clock, slurm::make_jean_zay_cluster(clock, scale, scenario_.seed),
      gen_config, scenario_.seed);
  report.node_count = sim.cluster().node_count();

  auto plan = std::make_shared<faults::FaultPlan>(scenario_.seed);
  plan->set_clock(clock);

  core::StackConfig config;
  config.scrape_interval_ms = scenario_.scrape_interval_ms;
  config.http_exporter_count = 0;  // local transport: one process, any fleet
  config.fault_plan = plan;
  // The stack owns hot retention: compaction purges the hot store past
  // the long-term store's downsample horizon.
  config.longterm.downsample_after_ms = scenario_.hot_retention_ms;
  // Only crash_restart scenarios get a WAL-backed hot store: every other
  // scenario keeps the purely in-memory store, so its counters stay
  // bit-identical to what BENCH_soak.json recorded before durability
  // existed.
  std::shared_ptr<simfs::SimDurableDir> wal_dir;
  if (scenario_.crash_restart) {
    wal_dir = std::make_shared<simfs::SimDurableDir>();
    config.hot_durable_dir = wal_dir;
    config.hot_wal.segment_bytes = 1u << 20;  // several rotations per run
  }
  core::CeemsStack stack(sim, config);

  if (scenario_.cardinality) {
    tsdb::ScrapeTarget target;
    target.labels = metrics::Labels{{"instance", "soak-bad-exporter"},
                                    {"cluster", sim.cluster().name()}};
    Scenario scenario_copy = scenario_;
    auto clock_copy = clock;
    target.local_fetch = [scenario_copy, clock_copy, start_ms] {
      return bad_exporter_body(scenario_copy, clock_copy->now_ms() - start_ms);
    };
    stack.scraper().add_target(std::move(target));
  }

  const bool lb_running = scenario_.lb.has_value();
  if (lb_running) stack.start_servers();

  InvariantChecker checker(scenario_, report.node_count,
                           stack.scraper().target_count());
  tsdb::promql::EngineOptions engine_options;
  engine_options.query_cache_capacity = 0;  // every checkpoint scans afresh
  tsdb::promql::Engine engine(engine_options);

  log("fleet up: %d nodes, %zu scrape targets, %s jobs/day %.0f",
      report.node_count, stack.scraper().target_count(),
      common::format_duration_ms(scenario_.duration_ms).c_str(),
      scenario_.effective_jobs_per_day());

  // --- storm toggles ---
  bool flap_on = false, outage_on = false, churn_on = false, lb_on = false;
  const double base_jobs_per_day = scenario_.effective_jobs_per_day();
  auto apply_storms = [&](int64_t rel_ms) {
    if (scenario_.flap) {
      bool want = scenario_.flap->window.contains(rel_ms);
      if (want != flap_on) {
        flap_on = want;
        if (want) {
          faults::SiteFaults faults;
          faults.connect_timeout = scenario_.flap->connect_timeout;
          faults.flap = scenario_.flap->fraction;
          faults.flap_period_ms = 3 * common::kMillisPerMinute;
          faults.flap_down_ms = common::kMillisPerMinute;
          plan->configure("scrape.target", faults);
        } else {
          plan->clear("scrape.target");
        }
        log("t=+%s flap storm %s", common::format_duration_ms(rel_ms).c_str(),
            want ? "ON" : "off");
      }
    }
    if (scenario_.outage) {
      bool want = scenario_.outage->window.contains(rel_ms);
      if (want != outage_on) {
        outage_on = want;
        if (want) {
          faults::SiteFaults faults;
          faults.unavailable = 1.0;  // every provider fully dark
          plan->configure("emissions.provider", faults);
        } else {
          plan->clear("emissions.provider");
        }
        log("t=+%s emissions outage %s",
            common::format_duration_ms(rel_ms).c_str(), want ? "ON" : "off");
      }
    }
    if (scenario_.churn) {
      bool want = scenario_.churn->window.contains(rel_ms);
      if (want != churn_on) {
        churn_on = want;
        sim.generator().set_jobs_per_day(
            want ? base_jobs_per_day * scenario_.churn->factor
                 : base_jobs_per_day);
        log("t=+%s churn storm %s (%.0f jobs/day)",
            common::format_duration_ms(rel_ms).c_str(), want ? "ON" : "off",
            sim.generator().config().jobs_per_day);
      }
    }
    if (scenario_.lb) {
      bool want = scenario_.lb->window.contains(rel_ms);
      if (want != lb_on) {
        lb_on = want;
        if (want) {
          faults::SiteFaults faults;
          faults.connect_timeout = scenario_.lb->connect_timeout;
          faults.flap = scenario_.lb->flap_fraction;
          faults.flap_period_ms = 90 * common::kMillisPerSecond;
          faults.flap_down_ms = 40 * common::kMillisPerSecond;
          plan->configure("lb.backend", faults);
        } else {
          plan->clear("lb.backend");
        }
        log("t=+%s lb storm %s", common::format_duration_ms(rel_ms).c_str(),
            want ? "ON" : "off");
      }
    }
  };

  // --- per-checkpoint work: invariants, canonical queries with
  // per-query points-scanned accounting ---
  auto checkpoint = [&](TimestampMs now) {
    // WAL-backed runs fold the store into a snapshot and truncate the
    // log at every checkpoint, so replay after a crash covers at most
    // one checkpoint interval.
    if (stack.durable_tsdb() && !stack.durable_tsdb()->checkpoint()) {
      report.violations.push_back(
          "durable checkpoint failed at t=+" +
          common::format_duration_ms(now - start_ms));
    }
    checker.at_checkpoint(stack, now);
    auto longterm = stack.longterm();
    for (const CanonicalQuery& query : kCanonicalQueries) {
      uint64_t before = longterm_points(*longterm);
      try {
        if (query.range) {
          engine.eval_range(*longterm, query.expr,
                            std::max(start_ms, now - query.span_ms), now,
                            query.step_ms);
        } else {
          engine.eval(*longterm, query.expr, now);
        }
      } catch (const tsdb::promql::EvalError& error) {
        report.violations.push_back(std::string("canonical query '") +
                                    query.expr + "' failed: " + error.what());
      }
      uint64_t delta = longterm_points(*longterm) - before;
      checker.record_query_points(delta);
      report.points_scanned += delta;
    }
    auto hot = stack.hot_store()->stats();
    log("t=+%s checkpoint: bytes=%zu series=%zu samples=%zu "
        "faults=%" PRIu64 " dropped=%" PRIu64,
        common::format_duration_ms(now - start_ms).c_str(),
        hot.approx_bytes + hot.symbol_bytes, hot.num_series, hot.num_samples,
        plan->stats().faults, stack.scraper().stats().scrapes_failed);
  };

  // --- crash_restart storm: power-cut the hot store's durable dir and
  // recover it in place from snapshot + WAL replay, asserting lossless
  // recovery. Crashes land between pipeline steps (the stack is
  // quiesced), and every append group-committed before returning, so a
  // torn tail or any divergence is an invariant violation.
  auto hot_query_fingerprint = [&](TimestampMs now) {
    std::string out;
    for (const char* expr :
         {"sum(up)", "sum by (nodegroup) (ceems_job_power_watts)"}) {
      out += expr;
      out += ':';
      try {
        auto value = engine.eval(*stack.hot_store(), expr, now);
        if (value.kind == tsdb::promql::Value::Kind::kVector) {
          for (const auto& sample : value.vector) {
            out += sample.labels.to_string();
            out += '=';
            out += std::to_string(sample.value);
            out += ';';
          }
        } else {
          out += std::to_string(value.scalar);
          out += ';';
        }
      } catch (const tsdb::promql::EvalError& error) {
        out += std::string("error ") + error.what() + ";";
      }
    }
    return out;
  };
  auto do_crash_restart = [&](TimestampMs now, int64_t rel_ms) {
    auto pre = stack.hot_store()->stats();
    std::string pre_queries = hot_query_fingerprint(now);
    wal_dir->crash();  // the power cut: unsynced bytes vanish
    auto result = stack.recover_hot_store();
    ++report.crash_restarts;
    report.wal_records_replayed += result.replay.records_applied;
    std::string when = common::format_duration_ms(rel_ms);
    if (!result.replay.error.empty())
      report.violations.push_back("crash_restart t=+" + when +
                                  ": replay error: " + result.replay.error);
    if (result.replay.torn_tail)
      report.violations.push_back("crash_restart t=+" + when +
                                  ": torn tail at a quiesced crash point");
    auto post = stack.hot_store()->stats();
    if (post.num_series != pre.num_series ||
        post.num_samples != pre.num_samples)
      report.violations.push_back(
          "crash_restart t=+" + when + ": recovered " +
          std::to_string(post.num_series) + " series / " +
          std::to_string(post.num_samples) + " samples, expected " +
          std::to_string(pre.num_series) + " / " +
          std::to_string(pre.num_samples));
    if (hot_query_fingerprint(now) != pre_queries)
      report.violations.push_back(
          "crash_restart t=+" + when +
          ": canonical hot-store queries changed across recovery");
    log("t=+%s crash_restart: snapshot %zu + %" PRIu64
        " wal records replayed; %zu series / %zu samples intact",
        when.c_str(), result.snapshot_samples, result.replay.records_applied,
        post.num_series, post.num_samples);
  };

  auto lb_probe = [&] {
    http::Request request;
    request.method = "GET";
    request.target = "/api/v1/query?query=sum(up)";
    request.headers["X-Grafana-User"] = "admin";
    // Failures during the storm window are the point; the breaker's
    // verdict is read in at_recovery_end().
    stack.load_balancer().handle_proxy(request);
  };

  // --- main loop: scenario plus the storm-free recovery tail ---
  const int64_t total_ms = scenario_.duration_ms + scenario_.recovery_ms;
  TimestampMs next_update = start_ms;
  TimestampMs next_checkpoint = start_ms + scenario_.checkpoint_every_ms;
  const int64_t card_check_rel =
      scenario_.cardinality
          ? scenario_.cardinality->window.end_ms +
                2 * scenario_.scrape_interval_ms
          : -1;
  bool card_checked = false;
  // First crash one period into the storm window, then on cadence.
  int64_t next_crash_rel =
      scenario_.crash_restart ? scenario_.crash_restart->window.start_ms +
                                    scenario_.crash_restart->every_ms
                              : -1;

  sim.run_for(total_ms, scenario_.step_ms, [&](TimestampMs now) {
    int64_t rel_ms = now - start_ms;
    apply_storms(rel_ms);
    stack.pipeline_step();
    if (now >= next_update) {
      stack.update_api();
      next_update = now + common::kMillisPerMinute;
    }
    // Grafana-like traffic through the LB: steady probes, plus one per
    // step during the storm so the circuit breakers see enough
    // consecutive failures to actually trip (and enough post-storm
    // successes to re-close — the recovery invariant is not vacuous).
    if (lb_running &&
        (lb_on || rel_ms % (30 * common::kMillisPerSecond) == 0))
      lb_probe();
    if (!card_checked && card_check_rel >= 0 && rel_ms >= card_check_rel) {
      card_checked = true;
      checker.after_cardinality_storm(stack, now);
    }
    if (now >= next_checkpoint) {
      checkpoint(now);
      next_checkpoint += scenario_.checkpoint_every_ms;
    }
    if (scenario_.crash_restart && rel_ms >= next_crash_rel &&
        scenario_.crash_restart->window.contains(rel_ms)) {
      do_crash_restart(now, rel_ms);
      next_crash_rel = rel_ms + scenario_.crash_restart->every_ms;
    }
  });

  // --- recovery verdict + counters ---
  stack.update_api();
  checker.at_recovery_end(stack, clock->now_ms(), lb_running);
  report.ok = checker.finish();
  auto& violations = checker.violations();
  report.violations.insert(report.violations.end(), violations.begin(),
                           violations.end());
  if (!report.violations.empty()) report.ok = false;

  auto scrape = stack.scraper().stats();
  report.samples_ingested = scrape.samples_ingested;
  report.dropped_scrapes = scrape.scrapes_failed;
  report.stale_markers = scrape.stale_markers;
  report.scrape_retries = scrape.retries;
  report.faults_injected = plan->stats().faults;
  report.queries_run = checker.queries_run();
  report.query_points_p99 = checker.query_points_p99();
  report.peak_bytes = checker.peak_bytes();
  report.max_series = checker.max_series();
  report.units_total = stack.db().table_size(apiserver::kUnitsTable);
  report.jobs_submitted = sim.jobs_submitted();
  if (lb_running) {
    for (const auto& backend : stack.load_balancer().backend_stats())
      report.circuit_opens += backend.circuit_opens;
  }

  log("done: ok=%d units=%" PRIu64 " samples=%" PRIu64 " dropped=%" PRIu64
      " stale=%" PRIu64 " peak_bytes=%zu max_series=%zu p99_points=%" PRIu64
      " circuit_opens=%" PRIu64,
      report.ok ? 1 : 0, report.units_total, report.samples_ingested,
      report.dropped_scrapes, report.stale_markers, report.peak_bytes,
      report.max_series, report.query_points_p99, report.circuit_opens);
  for (const auto& violation : report.violations)
    log("VIOLATION: %s", violation.c_str());
  return report;
}

std::string bench_json(const std::vector<SoakReport>& reports) {
  common::JsonObject context;
#ifdef NDEBUG
  context["library_build_type"] = "release";
#else
  context["library_build_type"] = "debug";
#endif
  context["harness"] = "ceems_soak";
  common::JsonArray benchmarks;
  for (const SoakReport& report : reports) {
    common::JsonObject bench;
    bench["name"] = "soak/" + report.scenario.name + "/seed" +
                    std::to_string(report.scenario.seed);
    bench["run_type"] = "iteration";
    bench["nodes"] = static_cast<uint64_t>(report.node_count);
    bench["invariants_ok"] = report.ok;
    bench["peak_bytes"] = static_cast<uint64_t>(report.peak_bytes);
    bench["max_series"] = static_cast<uint64_t>(report.max_series);
    bench["dropped_scrapes"] = report.dropped_scrapes;
    bench["samples_ingested"] = report.samples_ingested;
    bench["points_scanned"] = report.points_scanned;
    bench["query_points_p99"] = report.query_points_p99;
    bench["stale_markers"] = report.stale_markers;
    bench["units_total"] = report.units_total;
    bench["jobs_submitted"] = report.jobs_submitted;
    bench["faults_injected"] = report.faults_injected;
    bench["circuit_opens"] = report.circuit_opens;
    bench["crash_restarts"] = report.crash_restarts;
    bench["wal_records_replayed"] = report.wal_records_replayed;
    benchmarks.push_back(common::Json(std::move(bench)));
  }
  common::JsonObject root;
  root["context"] = common::Json(std::move(context));
  root["benchmarks"] = common::Json(std::move(benchmarks));
  return common::Json(std::move(root)).dump(2) + "\n";
}

bool write_bench_json(const std::string& path,
                      const std::vector<SoakReport>& reports) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  std::string text = bench_json(reports);
  std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  return std::fclose(file) == 0 && written == text.size();
}

}  // namespace ceems::soak
