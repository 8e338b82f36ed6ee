#include "apiserver/updater.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/strutil.h"
#include "metrics/model.h"
#include "metrics/symbols.h"

namespace ceems::apiserver {

using tsdb::promql::Value;

// Recording-rule series the operator's rules produce (§III-A), labelled
// by uuid, and the emission factor series.
constexpr char kCpuPowerMetric[] = "ceems_job_power_watts";
constexpr char kGpuPowerMetric[] = "ceems_job_gpu_power_watts";
constexpr char kGpuUtilMetric[] = "ceems_job_gpu_util";
constexpr char kEmissionMetric[] = "ceems_emissions_gCo2_kWh";
// Exporter counters, read as raw samples (Updater::kCounters).
constexpr const char* kCounterMetrics[] = {
    "ceems_compute_unit_cpu_usage_seconds_total",
    "ceems_compute_unit_io_read_bytes_total",
    "ceems_compute_unit_io_write_bytes_total"};

Updater::Updater(reldb::Database& db,
                 std::shared_ptr<const tsdb::Queryable> tsdb,
                 tsdb::StorePtr hot_store_for_cleanup,
                 std::vector<AdapterPtr> adapters, common::ClockPtr clock,
                 UpdaterConfig config)
    : db_(db),
      tsdb_(std::move(tsdb)),
      hot_store_(std::move(hot_store_for_cleanup)),
      adapters_(std::move(adapters)),
      clock_(std::move(clock)),
      config_(config) {
  create_ceems_tables(db_);
}

std::optional<Unit> Updater::find_unit(const Cycle& cycle,
                                       const std::string& uuid) const {
  if (auto it = cycle.rows.find(uuid); it != cycle.rows.end())
    return unit_from_row(it->second);
  if (auto row = db_.get(kUnitsTable, reldb::Value(uuid)))
    return unit_from_row(*row);
  return std::nullopt;
}

void Updater::poll_managers(common::TimestampMs now, Cycle& cycle,
                            UpdateStats& stats) {
  for (const auto& adapter : adapters_) {
    for (Unit fresh : adapter->fetch_units_changed_since(last_poll_ms_)) {
      // Preserve existing aggregates: identity/state fields come from the
      // resource manager, metric columns from previous cycles.
      if (auto found = find_unit(cycle, fresh.uuid)) {
        const Unit& existing = *found;
        fresh.total_cpu_time_seconds = existing.total_cpu_time_seconds;
        fresh.avg_cpu_usage = existing.avg_cpu_usage;
        fresh.avg_cpu_mem_bytes = existing.avg_cpu_mem_bytes;
        fresh.avg_gpu_usage = existing.avg_gpu_usage;
        fresh.total_cpu_energy_joules = existing.total_cpu_energy_joules;
        fresh.total_gpu_energy_joules = existing.total_gpu_energy_joules;
        fresh.total_energy_joules = existing.total_energy_joules;
        fresh.total_emissions_grams = existing.total_emissions_grams;
        fresh.total_io_read_bytes = existing.total_io_read_bytes;
        fresh.total_io_write_bytes = existing.total_io_write_bytes;
        if (fresh.ended_at_ms != 0 && existing.ended_at_ms == 0) {
          cycle.newly_ended.push_back(fresh);
        }
      } else if (fresh.ended_at_ms != 0) {
        // First sighting of an already-finished unit (it started and ended
        // within one poll interval) — still a cleanup candidate.
        cycle.newly_ended.push_back(fresh);
      }
      if (fresh.started_at_ms != 0) {
        fresh.elapsed_ms = (fresh.ended_at_ms != 0 ? fresh.ended_at_ms : now) -
                           fresh.started_at_ms;
      }
      cycle.rows[fresh.uuid] = unit_to_row(fresh);
      ++stats.units_upserted;
    }
  }
}

void Updater::update_aggregates(common::TimestampMs now, Cycle& cycle,
                                UpdateStats& stats) {
  // Aggregation instant: `now`, or the newest grid point at or before it
  // when windows are aligned. Alignment trades up to align_window_ms of
  // result freshness for ladder-served queries.
  common::TimestampMs at = now;
  if (config_.align_window_ms > 0) {
    at = tsdb::floor_div(now, config_.align_window_ms) *
         config_.align_window_ms;
  }
  if (last_agg_ms_ < 0) {
    cycle.agg_ms = at;
    cycle.counter_ms.fill(at);
    return;  // first cycle: establish the window start
  }
  int64_t window_ms = at - last_agg_ms_;
  if (window_ms <= 0) return;
  double window_sec = static_cast<double>(window_ms) / 1000.0;
  std::string window = common::format_duration_ms(window_ms);

  // Batched per-uuid reads over the window. Every read groups by uuid so
  // one TSDB pass covers every running unit. Result maps are keyed by the
  // uuid's symbol id, read straight off the interned result labels: no
  // uuid string is built until a unit's row is written.
  auto& symtab = metrics::SymbolTable::global();
  const uint32_t uuid_name = symtab.intern("uuid");
  auto vector_by_uuid = [&](const std::string& query)
      -> std::map<uint32_t, double> {
    std::map<uint32_t, double> out;
    try {
      Value value = engine_.eval(*tsdb_, query, at);
      if (value.kind != Value::Kind::kVector) return out;
      for (const auto& sample : value.vector) {
        auto uuid = sample.labels.value_symbol(uuid_name);
        if (uuid) out[*uuid] = sample.value;
      }
    } catch (const std::exception& e) {
      CEEMS_LOG_WARN("updater") << "query failed: " << e.what();
    }
    return out;
  };

  // Counters tile the cycles. Each read counts every series from its
  // last sample at or before the counter's start point up to its newest
  // sample, and the next start point is the newest sample the read
  // returned (no earlier than `at` minus the lookback, so a quiet
  // counter's reads stay short). Every scrape delta then lands in exactly
  // one cycle as long as (1) no sample at or before one a read returned
  // shows up later and (2) each sample is visible within the lookback of
  // its timestamp. The long-term store guarantees (1): a read sees every
  // sample up to its sync cursor, and its watermark rejects any later one
  // at or below it. Ending at `at` instead would lose the delta of a
  // sample in (cursor, at] synced after the read. increase() over
  // (at - window, at] would drop the delta that straddles the window's
  // start; over one scrape interval it sees a single sample and returns
  // nothing. One select per counter per cycle.
  auto counter_by_uuid = [&](std::size_t c) {
    std::map<uint32_t, double> out;
    const common::TimestampMs from = counter_ms_[c];
    common::TimestampMs newest = at - tsdb::promql::kLookbackMs;
    const std::vector<metrics::LabelMatcher> matchers = {
        {std::string(metrics::kMetricNameLabel),
         metrics::LabelMatcher::Op::kEq, kCounterMetrics[c]}};
    for (const auto& view :
         tsdb_->select(matchers, from - tsdb::promql::kLookbackMs, at)) {
      std::vector<tsdb::SamplePoint> samples = view.samples();
      if (samples.empty()) continue;
      newest = std::max(newest, samples.back().t);
      auto uuid = view.labels.value_symbol(uuid_name);
      if (!uuid) continue;
      std::erase_if(samples, [](const tsdb::SamplePoint& sample) {
        return metrics::is_stale_marker(sample.v);
      });
      auto fresh = std::find_if(
          samples.begin(), samples.end(),
          [&](const tsdb::SamplePoint& s) { return s.t > from; });
      if (fresh == samples.end()) continue;
      auto first = fresh == samples.begin() ? fresh : std::prev(fresh);
      const auto count = static_cast<std::size_t>(samples.end() - first);
      if (count < 2) continue;
      out[*uuid] += tsdb::promql::counter_increase(&*first, count);
    }
    cycle.counter_ms[c] = std::max(from, newest);
    return out;
  };

  auto cpu_time = counter_by_uuid(0);
  auto mem_avg = vector_by_uuid(
      "avg by (uuid) (avg_over_time(ceems_compute_unit_memory_current_bytes[" +
      window + "]))");
  auto cpu_power = vector_by_uuid(std::string("sum by (uuid) (avg_over_time(") +
                                  kCpuPowerMetric + "[" + window + "]))");
  auto gpu_power = vector_by_uuid(std::string("sum by (uuid) (avg_over_time(") +
                                  kGpuPowerMetric + "[" + window + "]))");
  auto gpu_util = vector_by_uuid(std::string("avg by (uuid) (avg_over_time(") +
                                 kGpuUtilMetric + "[" + window + "]))");
  auto io_read = counter_by_uuid(1);
  auto io_write = counter_by_uuid(2);

  // Cluster-wide emission factor for the window (scalar).
  double factor = 0;
  try {
    Value value = engine_.eval(
        *tsdb_,
        std::string("avg(avg_over_time(") + kEmissionMetric + "{provider=\"" +
            config_.emission_provider + "\"}[" + window + "]))",
        at);
    if (value.kind == Value::Kind::kVector && !value.vector.empty()) {
      factor = value.vector[0].value;
    }
  } catch (const std::exception&) {
  }

  // Collect all uuids that have any activity this window.
  std::set<uint32_t> touched;
  for (const auto& [uuid, v] : cpu_time) touched.insert(uuid);
  for (const auto& [uuid, v] : cpu_power) touched.insert(uuid);
  for (const auto& [uuid, v] : gpu_power) touched.insert(uuid);

  for (uint32_t uuid_sym : touched) {
    // One string materialisation per active unit per cycle, for the DB key.
    std::string uuid(symtab.text(uuid_sym));
    auto found = find_unit(cycle, uuid);
    if (!found) continue;  // metrics for a unit the manager hasn't reported
    Unit& unit = *found;

    double prev_elapsed_sec =
        std::max(0.0, static_cast<double>(unit.elapsed_ms) / 1000.0 -
                          window_sec);
    if (unit.started_at_ms != 0 && unit.ended_at_ms == 0) {
      unit.elapsed_ms = now - unit.started_at_ms;
    }
    double elapsed_sec = static_cast<double>(unit.elapsed_ms) / 1000.0;

    auto get = [uuid_sym](const std::map<uint32_t, double>& m) {
      auto it = m.find(uuid_sym);
      return it == m.end() ? 0.0 : it->second;
    };

    unit.total_cpu_time_seconds += get(cpu_time);
    if (elapsed_sec > 0 && unit.num_cpus > 0) {
      unit.avg_cpu_usage = unit.total_cpu_time_seconds /
                           (elapsed_sec * static_cast<double>(unit.num_cpus));
    }
    // Time-weighted running averages.
    auto fold_avg = [&](double old_avg, double window_value) {
      if (elapsed_sec <= 0) return window_value;
      double effective_window = std::min(window_sec, elapsed_sec);
      return (old_avg * prev_elapsed_sec + window_value * effective_window) /
             (prev_elapsed_sec + effective_window);
    };
    if (mem_avg.count(uuid_sym))
      unit.avg_cpu_mem_bytes = fold_avg(unit.avg_cpu_mem_bytes, get(mem_avg));
    if (gpu_util.count(uuid_sym))
      unit.avg_gpu_usage = fold_avg(unit.avg_gpu_usage, get(gpu_util));

    double cpu_energy_inc = get(cpu_power) * window_sec;
    double gpu_energy_inc = get(gpu_power) * window_sec;
    unit.total_cpu_energy_joules += cpu_energy_inc;
    unit.total_gpu_energy_joules += gpu_energy_inc;
    unit.total_energy_joules =
        unit.total_cpu_energy_joules + unit.total_gpu_energy_joules;
    unit.total_emissions_grams +=
        (cpu_energy_inc + gpu_energy_inc) / 3.6e6 * factor;
    unit.total_io_read_bytes += get(io_read);
    unit.total_io_write_bytes += get(io_write);

    cycle.rows[uuid] = unit_to_row(unit);
    ++stats.units_aggregated;
  }
  cycle.agg_ms = at;
}

void Updater::cleanup_small_units(const std::vector<Unit>& newly_ended,
                                  UpdateStats& stats) {
  if (config_.small_unit_cutoff_ms <= 0 || !hot_store_) return;
  for (const auto& unit : newly_ended) {
    int64_t lifetime = unit.ended_at_ms - unit.started_at_ms;
    if (unit.started_at_ms == 0 || lifetime >= config_.small_unit_cutoff_ms)
      continue;
    stats.series_deleted += hot_store_->delete_series(
        {{"uuid", metrics::LabelMatcher::Op::kEq, unit.uuid}});
  }
}

UpdateStats Updater::update_once() {
  UpdateStats stats;
  common::TimestampMs now = clock_->now_ms();
  Cycle cycle;
  cycle.agg_ms = last_agg_ms_;
  cycle.counter_ms = counter_ms_;
  poll_managers(now, cycle, stats);
  update_aggregates(now, cycle, stats);
  std::vector<reldb::WalEntry> batch;
  batch.reserve(cycle.rows.size());
  for (auto& [uuid, row] : cycle.rows) {
    batch.push_back({.op = reldb::WalEntry::Op::kUpsert,
                     .table = kUnitsTable,
                     .row = std::move(row)});
  }
  db_.commit(std::move(batch));
  last_poll_ms_ = now;
  last_agg_ms_ = cycle.agg_ms;
  counter_ms_ = cycle.counter_ms;
  cleanup_small_units(cycle.newly_ended, stats);
  return stats;
}

}  // namespace ceems::apiserver
