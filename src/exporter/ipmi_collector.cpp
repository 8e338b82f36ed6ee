#include "exporter/ipmi_collector.h"

namespace ceems::exporter {

using metrics::Labels;
using metrics::MetricFamily;
using metrics::MetricType;

std::vector<metrics::MetricFamily> IpmiCollector::collect(
    common::TimestampMs /*now*/) {
  node::DcmiPowerReading reading = node::parse_dcmi_output(command_());

  MetricFamily current{"ceems_ipmi_dcmi_current_watts",
                       "Instantaneous node power from the BMC (DCMI).",
                       MetricType::kGauge,
                       {}};
  current.add(Labels{}, static_cast<double>(reading.watts));
  MetricFamily minimum{"ceems_ipmi_dcmi_min_watts",
                       "Minimum node power over the BMC sampling period.",
                       MetricType::kGauge,
                       {}};
  minimum.add(Labels{}, static_cast<double>(reading.min_watts));
  MetricFamily maximum{"ceems_ipmi_dcmi_max_watts",
                       "Maximum node power over the BMC sampling period.",
                       MetricType::kGauge,
                       {}};
  maximum.add(Labels{}, static_cast<double>(reading.max_watts));
  MetricFamily average{"ceems_ipmi_dcmi_avg_watts",
                       "Average node power over the BMC sampling period.",
                       MetricType::kGauge,
                       {}};
  average.add(Labels{}, static_cast<double>(reading.avg_watts));

  return move_families(current, minimum, maximum, average);
}

}  // namespace ceems::exporter
