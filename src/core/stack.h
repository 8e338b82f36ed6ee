// CeemsStack — the full Fig. 1 architecture wired over a simulated
// cluster:
//
//   exporters (one per node) ──scrape──▶ hot TSDB ◀─read-through─ long-term
//        │                                  │ recording rules        store
//        └─ /metrics over HTTP or local     ▼                         │
//           transport                  cardinality cleanup            ▼
//                                                        Thanos-style query
//   SLURM dbd ──poll──▶ API server (units DB + aggregates)   API servers ×N
//                              ▲   │ direct-DB ownership          ▲
//                              │   ▼                              │
//   Grafana-style clients ──▶ CEEMS LB (access control + balancing)
//
// Driving modes mirror ScrapeManager's: pipeline_step()/update_api() for
// deterministic simulated-time runs, start()/stop() background loops for
// wall-clock demos.
#pragma once

#include <memory>
#include <vector>

#include "apiserver/api_server.h"
#include "apiserver/updater.h"
#include "core/node_exporter_factory.h"
#include "core/rules_library.h"
#include "emissions/electricity_maps.h"
#include "emissions/owid.h"
#include "emissions/rte.h"
#include "exporter/emissions_collector.h"
#include "faults/plan.h"
#include "lb/load_balancer.h"
#include "simfs/durable_dir.h"
#include "slurm/cluster_sim.h"
#include "tsdb/http_api.h"
#include "tsdb/longterm.h"
#include "tsdb/rules.h"
#include "tsdb/scrape.h"
#include "tsdb/wal.h"

namespace ceems::core {

struct StackConfig {
  int64_t scrape_interval_ms = 30 * common::kMillisPerSecond;
  std::string rate_window = "2m";
  // Nodes get real HTTP exporters up to this count; the rest use the local
  // transport (identical parse path, no listening socket) — see E4.
  std::size_t http_exporter_count = 8;
  std::size_t query_backend_count = 2;  // Thanos-style query replicas
  lb::Strategy lb_strategy = lb::Strategy::kRoundRobin;
  std::set<std::string> admin_users = {"admin"};
  std::string country_code = "FR";
  std::string emission_provider = "rte";
  apiserver::UpdaterConfig updater;
  tsdb::LongTermConfig longterm;
  bool include_equal_split_baseline = false;
  // §IV-roadmap rules: network power attributed by eBPF-measured traffic
  // share instead of the equal split of Eq. (1)'s last term.
  bool include_ebpf_network_rules = true;
  // Operational alerting rules (exporter down, power anomaly, ...).
  bool include_alert_rules = true;
  // Units DB directory (Database::open: snapshot + log). Empty = in-memory.
  simfs::DurableDirPtr db_durable_dir;
  // Durability for the hot TSDB: when set, every append is WAL-logged to
  // this directory before it is applied (group commit), and the stack
  // exposes checkpoint/recovery through durable_tsdb(). Empty = the hot
  // store is purely in-memory, zero write-path overhead.
  simfs::DurableDirPtr hot_durable_dir;
  tsdb::WalOptions hot_wal;
  http::BasicAuthConfig exporter_auth;  // applied to every exporter
  // Chaos: when set, the plan's hook is installed on every fault site the
  // stack owns — scrape fetches ("scrape.target"), exporter HTTP servers
  // ("http.server"), node pseudo-filesystems ("simfs.read"), emissions
  // providers ("emissions.provider") and the LB proxy path ("lb.backend").
  // Sites the plan leaves unconfigured behave exactly as without a plan.
  std::shared_ptr<faults::FaultPlan> fault_plan;
};

class CeemsStack {
 public:
  CeemsStack(slurm::ClusterSim& sim, StackConfig config);
  ~CeemsStack();

  // --- deterministic pipeline (simulated time) ---
  // Scrapes all targets if a scrape is due, evaluates recording rules,
  // syncs the long-term store's cursor and compacts, which purges the hot
  // store past config.longterm.downsample_after_ms. Call after sim steps.
  void pipeline_step();
  // Forces a scrape+rules pass regardless of the interval.
  void pipeline_step_forced();
  // Runs the API-server updater once (resource-manager poll + aggregates).
  apiserver::UpdateStats update_api();

  // --- servers (HTTP endpoints for LB / dashboards / examples) ---
  void start_servers();
  void stop_servers();

  // --- durability (present iff config.hot_durable_dir is set) ---
  tsdb::DurableTsdb* durable_tsdb() { return durable_.get(); }
  // In-place crash recovery: clears the hot store and rebuilds it from
  // the durable directory (snapshot + WAL replay). Every component
  // holding the StorePtr — scraper, rules, long-term sync — sees the
  // recovered state.
  tsdb::DurableTsdb::OpenResult recover_hot_store();

  // --- accessors ---
  tsdb::StorePtr hot_store() { return hot_store_; }
  std::shared_ptr<tsdb::LongTermStore> longterm() { return longterm_; }
  tsdb::ScrapeManager& scraper() { return *scraper_; }
  tsdb::RuleEngine& rules() { return *rules_; }
  reldb::Database& db() { return *db_; }
  apiserver::ApiServer& api_server() { return *api_server_; }
  apiserver::Updater& updater() { return *updater_; }
  lb::LoadBalancer& load_balancer() { return *lb_; }
  const StackConfig& config() const { return config_; }
  std::string lb_url() const { return lb_->base_url(); }
  std::string api_url() const { return api_server_->base_url(); }
  std::vector<std::string> query_backend_urls() const;

 private:
  slurm::ClusterSim& sim_;
  StackConfig config_;
  common::ClockPtr clock_;

  std::vector<std::unique_ptr<exporter::Exporter>> exporters_;
  std::unique_ptr<exporter::Exporter> emissions_exporter_;

  tsdb::StorePtr hot_store_;
  std::unique_ptr<tsdb::DurableTsdb> durable_;
  std::unique_ptr<tsdb::ScrapeManager> scraper_;
  std::unique_ptr<tsdb::RuleEngine> rules_;
  std::shared_ptr<tsdb::LongTermStore> longterm_;

  // Thanos-style query frontends over the long-term store.
  struct QueryBackend {
    std::unique_ptr<http::Server> server;
    std::unique_ptr<tsdb::PromApi> api;
  };
  std::vector<QueryBackend> query_backends_;

  std::unique_ptr<reldb::Database> db_;
  std::unique_ptr<apiserver::ApiServer> api_server_;
  std::unique_ptr<apiserver::Updater> updater_;
  std::unique_ptr<lb::LoadBalancer> lb_;

  common::TimestampMs last_scrape_ms_ = -1;
  bool servers_running_ = false;
};

}  // namespace ceems::core
