#include "apiserver/updater.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "metrics/model.h"
#include "metrics/symbols.h"
#include "tsdb/promql_eval.h"

namespace ceems::apiserver {

using tsdb::SamplePoint;
using tsdb::promql::kLookbackMs;

namespace {

// The metrics the updater walks, in Updater::kMetrics order: exporter
// counters, then the recording-rule gauges the operator's rules produce
// (§III-A), all labelled by uuid.
enum Metric : std::size_t {
  kCpuTime,
  kIoRead,
  kIoWrite,
  kMemory,
  kCpuPower,
  kGpuPower,
  kGpuUtil,
};
constexpr const char* kMetricNames[] = {
    "ceems_compute_unit_cpu_usage_seconds_total",
    "ceems_compute_unit_io_read_bytes_total",
    "ceems_compute_unit_io_write_bytes_total",
    "ceems_compute_unit_memory_current_bytes",
    "ceems_job_power_watts",
    "ceems_job_gpu_power_watts",
    "ceems_job_gpu_util"};
constexpr std::size_t kFirstGauge = kMemory;
constexpr char kEmissionMetric[] = "ceems_emissions_gCo2_kWh";

metrics::LabelMatcher name_is(const char* name) {
  return {std::string(metrics::kMetricNameLabel),
          metrics::LabelMatcher::Op::kEq, name};
}

// Σ v·dt and Σ dt (seconds) of a gauge's pairs: its time-weighted mean.
struct Mean {
  double vdt = 0, dt = 0;
};

// What one cycle charges a unit.
struct Charge {
  std::array<double, kFirstGauge> counters{};  // reset-aware increases
  double cpu_joules = 0, gpu_joules = 0, grams = 0;
  Mean memory, gpu_util;
  bool touched = false;  // a CPU-time, CPU-power or GPU-power sample
};

// Calls fn(cur, seconds) for each pair of a run: the sample that closes
// the pair and the seconds since the one before it.
template <class Fn>
void for_each_step(std::span<const SamplePoint> run, Fn&& fn) {
  for (std::size_t i = 1; i < run.size(); ++i) {
    fn(run[i], static_cast<double>(run[i].t - run[i - 1].t) / 1000.0);
  }
}

}  // namespace

common::TimestampMs walk_tiled(
    const tsdb::Queryable& source,
    const std::vector<metrics::LabelMatcher>& matchers,
    common::TimestampMs from, common::TimestampMs at, const TiledRun& run) {
  common::TimestampMs newest = at - kLookbackMs;
  for (const auto& view : source.select(matchers, from - kLookbackMs, at)) {
    std::vector<SamplePoint> samples = view.samples();
    if (samples.empty()) continue;
    newest = std::max(newest, samples.back().t);
    std::erase_if(samples, [](const SamplePoint& sample) {
      return metrics::is_stale_marker(sample.v);
    });
    // The first fresh sample pairs with the last one at or before `from`.
    auto begin = std::find_if(samples.begin(), samples.end(),
                              [&](const SamplePoint& s) { return s.t > from; });
    if (begin != samples.begin()) --begin;
    while (begin != samples.end()) {
      auto end = std::next(begin);
      while (end != samples.end() &&
             end->t - std::prev(end)->t <= kLookbackMs) {
        ++end;
      }
      if (std::prev(end)->t > from) run(view.labels, {begin, end});
      begin = end;
    }
  }
  return std::max(from, newest);
}

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
  cursor_ms_.fill(kNoCursor);
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
  if (cycle.cursor_ms[0] == kNoCursor) {
    cycle.cursor_ms.fill(now);
    return;  // first cycle: establish where the walks start
  }

  // Charges are keyed by the uuid's symbol id, read straight off the
  // interned series labels: no uuid string is built until a unit's row
  // is written.
  auto& symtab = metrics::SymbolTable::global();
  const uint32_t uuid_name = symtab.intern("uuid");
  std::map<uint32_t, Charge> charges;
  auto walk = [&](std::size_t metric, auto&& charge) {
    cycle.cursor_ms[metric] = walk_tiled(
        *tsdb_, {name_is(kMetricNames[metric])}, cycle.cursor_ms[metric], now,
        [&](const metrics::InternedLabels& labels,
            std::span<const SamplePoint> run) {
          if (auto uuid = labels.value_symbol(uuid_name)) {
            charge(charges[*uuid], run);
          }
        });
  };

  // The emission factor in force at t: each provider series' newest
  // sample at or before t within the lookback, averaged over the series.
  // One read covers every power pair the walks below can charge.
  const common::TimestampMs factor_from =
      std::min(cycle.cursor_ms[kCpuPower], cycle.cursor_ms[kGpuPower]) -
      kLookbackMs;
  std::vector<std::vector<SamplePoint>> factor_series;
  for (const auto& view : tsdb_->select(
           {name_is(kEmissionMetric),
            {"provider", metrics::LabelMatcher::Op::kEq,
             config_.emission_provider}},
           factor_from, now)) {
    factor_series.push_back(view.samples());
    std::erase_if(factor_series.back(), [](const SamplePoint& sample) {
      return metrics::is_stale_marker(sample.v);
    });
  }
  std::map<common::TimestampMs, double> factor_memo;
  auto factor_at = [&](common::TimestampMs t) {
    auto [it, fresh] = factor_memo.try_emplace(t, 0.0);
    if (!fresh) return it->second;
    double sum = 0;
    int count = 0;
    for (const auto& samples : factor_series) {
      auto after = std::upper_bound(
          samples.begin(), samples.end(), t,
          [](common::TimestampMs when, const SamplePoint& s) {
            return when < s.t;
          });
      if (after == samples.begin()) continue;
      const SamplePoint& in_force = *std::prev(after);
      if (t - in_force.t > kLookbackMs) continue;
      sum += in_force.v;
      ++count;
    }
    if (count > 0) it->second = sum / count;
    return it->second;
  };

  for (std::size_t c = 0; c < kFirstGauge; ++c) {
    walk(c, [c](Charge& charge, std::span<const SamplePoint> run) {
      charge.counters[c] +=
          tsdb::promql::counter_increase(run.data(), run.size());
      if (c == kCpuTime) charge.touched = true;
    });
  }
  for (std::size_t power : {kCpuPower, kGpuPower}) {
    walk(power, [&](Charge& charge, std::span<const SamplePoint> run) {
      double& joules =
          power == kCpuPower ? charge.cpu_joules : charge.gpu_joules;
      for_each_step(run, [&](const SamplePoint& cur, double seconds) {
        const double energy = cur.v * seconds;
        joules += energy;
        charge.grams += energy / 3.6e6 * factor_at(cur.t);
      });
      charge.touched = true;
    });
  }
  for (auto [gauge, mean] : {std::pair{kMemory, &Charge::memory},
                             std::pair{kGpuUtil, &Charge::gpu_util}}) {
    walk(gauge, [mean](Charge& charge, std::span<const SamplePoint> run) {
      Mean& m = charge.*mean;
      for_each_step(run, [&m](const SamplePoint& cur, double seconds) {
        m.vdt += cur.v * seconds;
        m.dt += seconds;
      });
    });
  }

  for (const auto& [uuid_sym, charge] : charges) {
    if (!charge.touched) continue;
    // One string materialisation per active unit per cycle, for the DB key.
    std::string uuid(symtab.text(uuid_sym));
    auto found = find_unit(cycle, uuid);
    if (!found) continue;  // metrics for a unit the manager hasn't reported
    Unit& unit = *found;

    if (unit.started_at_ms != 0 && unit.ended_at_ms == 0) {
      unit.elapsed_ms = now - unit.started_at_ms;
    }
    const double elapsed_sec = static_cast<double>(unit.elapsed_ms) / 1000.0;

    unit.total_cpu_time_seconds += charge.counters[kCpuTime];
    if (elapsed_sec > 0 && unit.num_cpus > 0) {
      unit.avg_cpu_usage = unit.total_cpu_time_seconds /
                           (elapsed_sec * static_cast<double>(unit.num_cpus));
    }
    // Running time-weighted averages: the cycle's mean weighs the time it
    // covers (at most the unit's age), the old average the rest.
    auto fold_avg = [&](double& avg, const Mean& mean) {
      if (mean.dt <= 0) return;
      const double cycle_avg = mean.vdt / mean.dt;
      avg = elapsed_sec > 0 ? avg + (cycle_avg - avg) *
                                        std::min(mean.dt, elapsed_sec) /
                                        elapsed_sec
                            : cycle_avg;
    };
    fold_avg(unit.avg_cpu_mem_bytes, charge.memory);
    fold_avg(unit.avg_gpu_usage, charge.gpu_util);

    unit.total_cpu_energy_joules += charge.cpu_joules;
    unit.total_gpu_energy_joules += charge.gpu_joules;
    unit.total_energy_joules =
        unit.total_cpu_energy_joules + unit.total_gpu_energy_joules;
    unit.total_emissions_grams += charge.grams;
    unit.total_io_read_bytes += charge.counters[kIoRead];
    unit.total_io_write_bytes += charge.counters[kIoWrite];

    cycle.rows[uuid] = unit_to_row(unit);
    ++stats.units_aggregated;
  }
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
  cycle.cursor_ms = cursor_ms_;
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
  cursor_ms_ = cycle.cursor_ms;
  cleanup_small_units(cycle.newly_ended, stats);
  return stats;
}

}  // namespace ceems::apiserver
