#include "exporter/gpu_map_collector.h"

namespace ceems::exporter {

using metrics::Labels;
using metrics::MetricFamily;
using metrics::MetricType;

std::vector<metrics::MetricFamily> GpuMapCollector::collect(
    common::TimestampMs /*now*/) {
  MetricFamily flag{"ceems_compute_unit_gpu_index_flag",
                    "GPU ordinal bound to a compute unit (1 when bound).",
                    MetricType::kGauge,
                    {}};
  for (const auto& workload : source_()) {
    for (int ordinal : workload.placement.gpu_ordinals) {
      auto device = bank_.device(ordinal);
      Labels labels{
          {kUuidLabel, std::to_string(workload.placement.job_id)},
          {kManagerLabel, manager_},
          {"index", std::to_string(ordinal)},
          {"gpu_uuid", device ? device->uuid : ""}};
      flag.add(labels, 1);
    }
  }
  return move_families(flag);
}

}  // namespace ceems::exporter
