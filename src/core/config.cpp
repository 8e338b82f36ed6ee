#include "core/config.h"

#include "common/strutil.h"
#include "common/yamlconf.h"

namespace ceems::core {

using common::Json;

namespace {

int64_t duration_of(const Json& node, const std::string& key,
                    int64_t fallback_ms) {
  auto value = node.get(key);
  if (!value) return fallback_ms;
  if (value->is_number()) return value->as_int() * 1000;  // bare seconds
  if (value->is_string()) {
    if (auto parsed = common::parse_duration_ms(value->as_string()))
      return *parsed;
  }
  return fallback_ms;
}

}  // namespace

SimSetupConfig load_sim_config(const Json& root) {
  SimSetupConfig config;
  auto section = root.get("simulation");
  if (!section || !section->is_object()) return config;
  config.cluster_scale =
      section->get_number("cluster_scale", config.cluster_scale);
  config.jobs_per_day = section->get_number("jobs_per_day",
                                            config.jobs_per_day);
  config.seed = static_cast<uint64_t>(section->get_int("seed", 42));
  config.sim_step_ms = duration_of(*section, "step", config.sim_step_ms);
  return config;
}

StackConfig load_stack_config(const Json& root) {
  StackConfig config;
  auto section = root.get("ceems");
  if (!section || !section->is_object()) return config;

  if (auto scrape = section->get("scrape"); scrape && scrape->is_object()) {
    config.scrape_interval_ms =
        duration_of(*scrape, "interval", config.scrape_interval_ms);
    config.http_exporter_count = static_cast<std::size_t>(scrape->get_int(
        "http_exporters", static_cast<int64_t>(config.http_exporter_count)));
    if (auto auth = scrape->get("basic_auth"); auth && auth->is_object()) {
      config.exporter_auth.username = auth->get_string("username");
      config.exporter_auth.password = auth->get_string("password");
    }
  }
  if (auto rules = section->get("rules"); rules && rules->is_object()) {
    config.rate_window = rules->get_string("rate_window", config.rate_window);
    config.include_equal_split_baseline =
        rules->get_bool("equal_split_baseline",
                        config.include_equal_split_baseline);
  }
  if (auto updater = section->get("updater");
      updater && updater->is_object()) {
    config.updater.interval_ms =
        duration_of(*updater, "interval", config.updater.interval_ms);
    config.updater.small_unit_cutoff_ms = duration_of(
        *updater, "small_unit_cutoff", config.updater.small_unit_cutoff_ms);
    if (auto path = updater->get_string("db_path"); !path.empty())
      config.db_durable_dir = std::make_shared<simfs::RealDurableDir>(path);
  }
  if (auto longterm = section->get("longterm");
      longterm && longterm->is_object()) {
    config.longterm.downsample_after_ms = duration_of(
        *longterm, "downsample_after", config.longterm.downsample_after_ms);
    // The flat resolution/retention keys describe a one-level ladder; a
    // non-empty `levels:` array replaces it.
    tsdb::AggLevelConfig flat;
    flat.resolution_ms =
        duration_of(*longterm, "resolution", flat.resolution_ms);
    flat.retention_ms =
        duration_of(*longterm, "retention", flat.retention_ms);
    config.longterm.levels = {flat};
    if (auto levels = longterm->get("levels"); levels && levels->is_array()) {
      std::vector<tsdb::AggLevelConfig> ladder;
      for (const auto& level_node : levels->as_array()) {
        if (!level_node.is_object()) continue;
        tsdb::AggLevelConfig level;
        level.resolution_ms =
            duration_of(level_node, "resolution", level.resolution_ms);
        level.retention_ms =
            duration_of(level_node, "retention", level.retention_ms);
        ladder.push_back(level);
      }
      if (!ladder.empty()) config.longterm.levels = std::move(ladder);
    }
  }
  if (auto lb = section->get("lb"); lb && lb->is_object()) {
    std::string strategy = lb->get_string("strategy", "round-robin");
    config.lb_strategy = strategy == "least-connection"
                             ? lb::Strategy::kLeastConnection
                             : lb::Strategy::kRoundRobin;
    config.query_backend_count = static_cast<std::size_t>(lb->get_int(
        "backends", static_cast<int64_t>(config.query_backend_count)));
    if (auto admins = lb->get("admins"); admins && admins->is_array()) {
      config.admin_users.clear();
      for (const auto& admin : admins->as_array()) {
        if (admin.is_string()) config.admin_users.insert(admin.as_string());
      }
    }
  }
  if (auto emissions = section->get("emissions");
      emissions && emissions->is_object()) {
    config.country_code =
        emissions->get_string("country", config.country_code);
    config.emission_provider =
        emissions->get_string("provider", config.emission_provider);
  }
  return config;
}

LoadedConfig parse_config_text(const std::string& yaml_text) {
  Json root = common::parse_yaml(yaml_text);
  return {load_sim_config(root), load_stack_config(root)};
}

std::string reference_config_yaml() {
  return R"(# CEEMS single-file configuration (every component reads its section).
simulation:
  cluster_scale: 0.02      # fraction of the 1400-node Jean-Zay deployment
  jobs_per_day: 3000
  seed: 42
  step: 10s

ceems:
  scrape:
    interval: 30s
    http_exporters: 8      # nodes with real HTTP exporters (rest: local transport)
  rules:
    rate_window: 2m
    equal_split_baseline: false
  updater:
    interval: 60s
    small_unit_cutoff: 0s  # >0 deletes TSDB series of shorter jobs
    db_path: ""            # units DB directory; empty = in-memory
  longterm:
    downsample_after: 2h
    resolution: 5m
    retention: 0s          # 0 = keep forever
    # Optional multi-resolution ladder (overrides resolution/retention):
    # levels:
    #   - resolution: 5m
    #     retention: 30d
    #   - resolution: 1h
  lb:
    strategy: round-robin  # or least-connection
    backends: 2
    admins: [admin]
  emissions:
    country: FR
    provider: rte          # rte | emaps | owid
)";
}

}  // namespace ceems::core
