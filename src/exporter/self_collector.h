// Self-telemetry of the exporter process. E1 (DESIGN.md) checks the
// paper's prose claims — "the exporter consumes 15-20 MB of memory and
// each scrape request takes less than 1 microsecond of CPU time" — so this
// collector reads the REAL /proc/self/statm of the host process plus the
// instrument registry (scrape counts and durations maintained by the
// Exporter).
#pragma once

#include <memory>
#include <string_view>

#include "exporter/collector.h"
#include "metrics/registry.h"

namespace ceems::exporter {

// Resident set size of the calling process in bytes (real procfs read).
std::size_t process_resident_bytes();
// Cumulative CPU time of the calling process in seconds (utime+stime).
double process_cpu_seconds();

// The parsers behind those two reads. Resident pages (second field) of
// /proc/<pid>/statm text; utime + stime clock ticks (fields 14 and 15) of
// /proc/<pid>/stat text. Malformed text reads as 0.
std::size_t statm_resident_pages(std::string_view statm);
long long stat_cpu_ticks(std::string_view stat);

class SelfCollector final : public Collector {
 public:
  explicit SelfCollector(std::shared_ptr<metrics::Registry> registry)
      : registry_(std::move(registry)) {}

  std::string name() const override { return "self"; }
  std::vector<metrics::MetricFamily> collect(common::TimestampMs now) override;

 private:
  std::shared_ptr<metrics::Registry> registry_;
};

}  // namespace ceems::exporter
