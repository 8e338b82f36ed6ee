// API-server updater (§II-B.b / §II-C): the single writer of the CEEMS DB.
// Each cycle it (1) polls every resource-manager adapter for new/changed
// compute units, (2) walks the samples each per-unit metric gained in the
// TSDB (long-term store) since the previous cycle's read ended and folds
// them into the units' aggregate columns (walk_tiled), and (3) optionally
// deletes the TSDB series of units shorter than a cutoff — the
// cardinality-reduction knob of §II-C. What a unit is charged does not
// depend on how often the cycles run.
//
// A cycle is one transaction: its rows are staged, committed as one
// batch (one log record, one sync on a durable DB), and only then do the
// poll and metric cursors advance. A cycle whose commit fails applies
// nothing and leaves the cursors where they were, so the next cycle
// walks its samples exactly once.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "apiserver/resource_manager.h"
#include "reldb/database.h"
#include "tsdb/storage.h"

namespace ceems::apiserver {

struct UpdaterConfig {
  // Cadence of update_once() in simulated time. The Updater itself has no
  // schedule; core::CeemsStack::pipeline_step() runs it on this interval.
  // It sets how fresh the units' rows are, not what a unit is charged.
  int64_t interval_ms = 60 * common::kMillisPerSecond;
  // Preferred provider of the emission factor series.
  std::string emission_provider = "rte";
  // Units shorter than this get their TSDB series deleted at end of job
  // (0 = never delete).
  int64_t small_unit_cutoff_ms = 0;
};

struct UpdateStats {
  std::size_t units_upserted = 0;    // rows written by the poll
  std::size_t units_aggregated = 0;  // rows written by the aggregation
  std::size_t series_deleted = 0;
};

// The tiled walk. Reads every series `matchers` select from `source` over
// [from - kLookbackMs, at] and drops its staleness markers. Each pair of
// consecutive samples (prev, cur) with cur.t in (from, at] and
// cur.t - prev.t <= kLookbackMs is charged; a longer gap starts the
// series afresh, so a series' first sample is charged for nothing. The
// charged pairs come as runs: `run(labels, samples)` gets each maximal
// stretch of samples whose consecutive pairs are all charged and that
// holds a sample in (from, at], in series order and time order. samples[0]
// may be at or before `from`; a run of one sample charges nothing but
// shows the series has a fresh sample.
// Returns where the next walk starts: the newest sample the read
// returned, no earlier than `from` nor than `at - kLookbackMs`.
//
// Walks that each start where the previous one ended charge every pair
// exactly once, however the instants fall, as long as no sample at or
// before one a read returned shows up later and each sample is visible
// within the lookback of its timestamp. Reading through the long-term
// store guarantees the first: its watermark rejects late samples.
using TiledRun = std::function<void(const metrics::InternedLabels& labels,
                                    std::span<const tsdb::SamplePoint>)>;
common::TimestampMs walk_tiled(
    const tsdb::Queryable& source,
    const std::vector<metrics::LabelMatcher>& matchers,
    common::TimestampMs from, common::TimestampMs at, const TiledRun& run);

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
  // Metrics walked each cycle: three counters, four gauges.
  static constexpr std::size_t kMetrics = 7;
  // Cursor value before the first cycle, which only sets the cursors.
  static constexpr common::TimestampMs kNoCursor = INT64_MIN;

  // What one cycle commits: its rows by uuid, which reads within the
  // cycle see, the metric cursors it reaches and the units it saw end.
  struct Cycle {
    std::map<std::string, reldb::Row> rows;
    // Per metric: where its next walk starts.
    std::array<common::TimestampMs, kMetrics> cursor_ms{};
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

  common::TimestampMs last_poll_ms_ = 0;
  std::array<common::TimestampMs, kMetrics> cursor_ms_;
};

}  // namespace ceems::apiserver
