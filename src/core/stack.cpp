#include "core/stack.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace ceems::core {

CeemsStack::CeemsStack(slurm::ClusterSim& sim, StackConfig config)
    : sim_(sim), config_(std::move(config)), clock_(sim.clock()) {
  hot_store_ = std::make_shared<tsdb::TimeSeriesStore>();
  if (config_.hot_durable_dir) {
    durable_ = std::make_unique<tsdb::DurableTsdb>(
        hot_store_, config_.hot_durable_dir, config_.hot_wal);
    durable_->open();
  }
  longterm_ =
      std::make_shared<tsdb::LongTermStore>(hot_store_, config_.longterm);

  faults::FaultHook fault_hook;
  if (config_.fault_plan) fault_hook = config_.fault_plan->hook();

  // --- exporters + scrape targets ---
  tsdb::ScrapeConfig scrape_config;
  scrape_config.interval_ms = config_.scrape_interval_ms;
  scrape_config.parallelism = 8;
  scrape_config.fault_hook = fault_hook;
  scraper_ = std::make_unique<tsdb::ScrapeManager>(hot_store_, clock_,
                                                   scrape_config);

  std::size_t http_budget = config_.http_exporter_count;
  for (const auto& node : sim_.cluster().all_nodes()) {
    exporter::ExporterConfig exporter_config;
    exporter_config.http.basic_auth = config_.exporter_auth;
    exporter_config.http.worker_threads = 2;
    exporter_config.http.fault_hook = fault_hook;
    // Self-metrics read real procfs; at cluster scale that is pure noise,
    // keep it for the HTTP-exporter subset only.
    exporter_config.enable_self_metrics = http_budget > 0;
    auto exporter = make_ceems_exporter(node, clock_, exporter_config);
    if (fault_hook) node->fs()->set_fault_hook(fault_hook);

    tsdb::ScrapeTarget target;
    target.labels =
        metrics::Labels{{"hostname", node->hostname()},
                        {"nodegroup", nodegroup_of(node->spec())},
                        {"cluster", sim_.cluster().name()}};
    target.auth = config_.exporter_auth;
    if (http_budget > 0) {
      --http_budget;
      exporter->start();
      target.url = exporter->metrics_url();
      target.labels = target.labels.with("instance", exporter->metrics_url());
    } else {
      exporter::Exporter* raw = exporter.get();
      auto clock = clock_;
      target.local_fetch = [raw, clock] {
        return raw->render(clock->now_ms());
      };
      target.labels = target.labels.with("instance", node->hostname());
    }
    scraper_->add_target(std::move(target));
    exporters_.push_back(std::move(exporter));
  }

  // Dedicated emissions target (one per cluster): OWID static + simulated
  // real-time providers behind the free-tier-aware cache.
  {
    exporter::ExporterConfig exporter_config;
    exporter_config.enable_self_metrics = false;
    emissions_exporter_ =
        std::make_unique<exporter::Exporter>(exporter_config, clock_);
    auto emaps = std::make_shared<emissions::CachingProvider>(
        std::make_shared<emissions::ElectricityMapsProvider>(clock_),
        15 * common::kMillisPerMinute);
    std::vector<emissions::ProviderPtr> providers = {
        std::make_shared<emissions::RteProvider>(),
        emaps,
        std::make_shared<emissions::OwidProvider>(),
    };
    if (fault_hook) {
      for (auto& provider : providers) {
        provider = std::make_shared<emissions::FaultInjectedProvider>(
            provider, fault_hook);
      }
    }
    emissions_exporter_->add_collector(
        std::make_shared<exporter::EmissionsCollector>(providers,
                                                       config_.country_code));
    tsdb::ScrapeTarget target;
    target.labels = metrics::Labels{{"instance", "emissions"},
                                    {"cluster", sim_.cluster().name()}};
    exporter::Exporter* raw = emissions_exporter_.get();
    auto clock = clock_;
    target.local_fetch = [raw, clock] { return raw->render(clock->now_ms()); };
    scraper_->add_target(std::move(target));
  }

  // --- recording rules ---
  // The rule pass runs as a conflict graph on its own pool. The shipped
  // library's critical path is about a fifth of its serial work, so more
  // than four workers buy little, and each one adds a malloc arena.
  tsdb::promql::EngineOptions rule_options;
  rule_options.pool = std::make_shared<common::ThreadPool>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u), "rules");
  rules_ = std::make_unique<tsdb::RuleEngine>(hot_store_, rule_options);
  for (auto& group :
       jean_zay_rule_groups(config_.rate_window, config_.emission_provider)) {
    rules_->add_group(std::move(group));
  }
  if (config_.include_equal_split_baseline) {
    for (auto& group : equal_split_baseline_rules(config_.rate_window)) {
      rules_->add_group(std::move(group));
    }
  }
  if (config_.include_ebpf_network_rules) {
    for (auto& group : ebpf_network_rules(config_.rate_window)) {
      rules_->add_group(std::move(group));
    }
  }
  if (config_.include_alert_rules) {
    for (auto& group : ceems_alert_rules()) {
      rules_->add_group(std::move(group));
    }
  }

  // --- Thanos-style query frontends over the long-term store ---
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.query_backend_count); ++i) {
    QueryBackend backend;
    backend.server = std::make_unique<http::Server>(http::ServerConfig{});
    backend.api = std::make_unique<tsdb::PromApi>(longterm_, clock_);
    backend.api->attach(*backend.server);
    query_backends_.push_back(std::move(backend));
  }

  // --- API server + updater ---
  db_ = reldb::Database::open(config_.db_durable_dir);
  apiserver::ApiServerConfig api_config;
  api_config.admin_users = config_.admin_users;
  api_server_ = std::make_unique<apiserver::ApiServer>(api_config, *db_,
                                                       clock_);
  std::vector<apiserver::AdapterPtr> adapters = {
      std::make_shared<apiserver::SlurmAdapter>(sim_.dbd(),
                                                sim_.cluster().name())};
  apiserver::UpdaterConfig updater_config = config_.updater;
  updater_config.emission_provider = config_.emission_provider;
  updater_ = std::make_unique<apiserver::Updater>(
      *db_, longterm_, hot_store_, adapters, clock_, updater_config);

  // --- load balancer (backends filled at start_servers) ---
}

CeemsStack::~CeemsStack() { stop_servers(); }

void CeemsStack::pipeline_step() {
  common::TimestampMs now = clock_->now_ms();
  if (last_scrape_ms_ >= 0 && now - last_scrape_ms_ < config_.scrape_interval_ms)
    return;
  pipeline_step_forced();
}

void CeemsStack::pipeline_step_forced() {
  common::TimestampMs now = clock_->now_ms();
  last_scrape_ms_ = now;
  scraper_->scrape_all_once();
  rules_->evaluate_all(now);
  longterm_->sync_from(*hot_store_);
  longterm_->compact(now);
}

tsdb::DurableTsdb::OpenResult CeemsStack::recover_hot_store() {
  return durable_->open();
}

apiserver::UpdateStats CeemsStack::update_api() {
  return updater_->update_once();
}

void CeemsStack::start_servers() {
  if (servers_running_) return;
  servers_running_ = true;
  for (auto& backend : query_backends_) backend.server->start();
  api_server_->start();

  std::vector<std::string> backend_urls = query_backend_urls();
  lb::LbConfig lb_config;
  lb_config.strategy = config_.lb_strategy;
  lb_config.admin_users = config_.admin_users;
  lb_config.api_server_url = api_server_->base_url();
  if (config_.fault_plan) lb_config.fault_hook = config_.fault_plan->hook();
  lb_ = std::make_unique<lb::LoadBalancer>(lb_config, backend_urls, clock_);
  lb_->set_api_server(api_server_.get());
  lb_->start();
}

void CeemsStack::stop_servers() {
  if (!servers_running_) return;
  servers_running_ = false;
  if (lb_) lb_->stop();
  api_server_->stop();
  for (auto& backend : query_backends_) backend.server->stop();
  for (auto& exporter : exporters_) exporter->stop();
}

std::vector<std::string> CeemsStack::query_backend_urls() const {
  std::vector<std::string> urls;
  for (const auto& backend : query_backends_) {
    urls.push_back(backend.server->base_url());
  }
  return urls;
}

}  // namespace ceems::core
