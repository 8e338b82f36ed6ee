// API-server updater (§II-B.b / §II-C): the single writer of the CEEMS DB.
// Each cycle it (1) polls every resource-manager adapter for new/changed
// compute units, (2) batch-queries the TSDB (long-term store) for the
// window's worth of per-unit metrics and folds them into the units'
// aggregate columns, and (3) optionally deletes the TSDB series of units
// shorter than a cutoff — the cardinality-reduction knob of §II-C.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "apiserver/resource_manager.h"
#include "reldb/database.h"
#include "tsdb/promql_eval.h"
#include "tsdb/storage.h"

namespace ceems::apiserver {

struct UpdaterConfig {
  int64_t interval_ms = 60 * common::kMillisPerSecond;
  // Preferred provider of the emission factor series.
  std::string emission_provider = "rte";
  // Units shorter than this get their TSDB series deleted at end of job
  // (0 = never delete).
  int64_t small_unit_cutoff_ms = 0;
  // When > 0, aggregate queries snap to this grid: the evaluation instant
  // rounds down to a multiple, so window length and instant are both
  // grid-aligned and the increase()/avg_over_time() batch queries tile
  // the long-term store's aggregate buckets — the resolution-aware
  // planner then answers them from the ladder instead of scanning raw
  // samples. Set it to the ladder's finest resolution; 0 keeps the
  // legacy evaluate-at-now behaviour.
  int64_t align_window_ms = 0;
};

struct UpdateStats {
  std::size_t units_upserted = 0;
  std::size_t units_aggregated = 0;
  std::size_t series_deleted = 0;
};

class Updater {
 public:
  Updater(reldb::Database& db, std::shared_ptr<const tsdb::Queryable> tsdb,
          tsdb::StorePtr hot_store_for_cleanup,
          std::vector<AdapterPtr> adapters, common::ClockPtr clock,
          UpdaterConfig config = {});

  // One update cycle at the current clock time.
  UpdateStats update_once();

  void start();
  void stop();

 private:
  void poll_managers(common::TimestampMs now, UpdateStats& stats);
  void update_aggregates(common::TimestampMs now, UpdateStats& stats);
  void cleanup_small_units(UpdateStats& stats);

  reldb::Database& db_;
  std::shared_ptr<const tsdb::Queryable> tsdb_;
  tsdb::StorePtr hot_store_;
  std::vector<AdapterPtr> adapters_;
  common::ClockPtr clock_;
  UpdaterConfig config_;
  tsdb::promql::Engine engine_;

  common::TimestampMs last_poll_ms_ = 0;
  common::TimestampMs last_agg_ms_ = -1;
  std::vector<Unit> newly_ended_;  // candidates for series cleanup

  std::atomic<bool> running_{false};
  std::thread loop_thread_;
};

}  // namespace ceems::apiserver
