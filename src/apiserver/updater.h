// API-server updater (§II-B.b / §II-C): the single writer of the CEEMS DB.
// Each cycle it (1) polls every resource-manager adapter for new/changed
// compute units, (2) batch-queries the TSDB (long-term store) for the
// window's worth of per-unit metrics and folds them into the units'
// aggregate columns, and (3) optionally deletes the TSDB series of units
// shorter than a cutoff — the cardinality-reduction knob of §II-C.
//
// A cycle is one transaction: its rows are staged, committed as one
// batch (one log record, one sync on a durable DB), and only then do the
// poll and aggregation cursors advance. A cycle whose commit fails
// applies nothing and leaves the cursors where they were, so the next
// cycle redoes its window exactly once.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "apiserver/resource_manager.h"
#include "reldb/database.h"
#include "tsdb/promql_eval.h"
#include "tsdb/storage.h"

namespace ceems::apiserver {

struct UpdaterConfig {
  // Cadence of update_once() in simulated time. The Updater itself has no
  // schedule; core::CeemsStack::pipeline_step() runs it on this interval.
  int64_t interval_ms = 60 * common::kMillisPerSecond;
  // Preferred provider of the emission factor series.
  std::string emission_provider = "rte";
  // Units shorter than this get their TSDB series deleted at end of job
  // (0 = never delete).
  int64_t small_unit_cutoff_ms = 0;
  // When > 0, aggregate queries snap to this grid: the evaluation instant
  // rounds down to a multiple, so window length and instant are both
  // grid-aligned and the avg_over_time() batch queries tile the long-term
  // store's aggregate buckets — the resolution-aware planner then answers
  // them from the ladder instead of scanning raw samples. (Counters are
  // read as raw samples either way, from where the previous cycle's read
  // ended.) Set it to the ladder's finest resolution; 0 keeps
  // the legacy evaluate-at-now behaviour.
  int64_t align_window_ms = 0;
};

struct UpdateStats {
  std::size_t units_upserted = 0;    // rows written by the poll
  std::size_t units_aggregated = 0;  // rows written by the aggregation
  std::size_t series_deleted = 0;
};

class Updater {
 public:
  Updater(reldb::Database& db, std::shared_ptr<const tsdb::Queryable> tsdb,
          tsdb::StorePtr hot_store_for_cleanup,
          std::vector<AdapterPtr> adapters, common::ClockPtr clock,
          UpdaterConfig config = {});

  // One update cycle at the current clock time. Throws what
  // reldb::Database::commit throws, having applied nothing.
  UpdateStats update_once();

 private:
  // Counter metrics tiled across cycles: cpu time, io read and io write
  // bytes.
  static constexpr std::size_t kCounters = 3;

  // What one cycle commits: its rows by uuid, which reads within the
  // cycle see, the aggregation cursor it reaches and the units it saw end.
  struct Cycle {
    std::map<std::string, reldb::Row> rows;
    common::TimestampMs agg_ms = -1;
    // Per counter metric: where its next read starts counting from.
    std::array<common::TimestampMs, kCounters> counter_ms{};
    std::vector<Unit> newly_ended;  // candidates for series cleanup
  };

  // The unit as the cycle leaves it so far.
  std::optional<Unit> find_unit(const Cycle& cycle,
                                const std::string& uuid) const;
  void poll_managers(common::TimestampMs now, Cycle& cycle,
                     UpdateStats& stats);
  void update_aggregates(common::TimestampMs now, Cycle& cycle,
                         UpdateStats& stats);
  void cleanup_small_units(const std::vector<Unit>& newly_ended,
                           UpdateStats& stats);

  reldb::Database& db_;
  std::shared_ptr<const tsdb::Queryable> tsdb_;
  tsdb::StorePtr hot_store_;
  std::vector<AdapterPtr> adapters_;
  common::ClockPtr clock_;
  UpdaterConfig config_;
  tsdb::promql::Engine engine_;

  common::TimestampMs last_poll_ms_ = 0;
  common::TimestampMs last_agg_ms_ = -1;
  std::array<common::TimestampMs, kCounters> counter_ms_{};
};

}  // namespace ceems::apiserver
