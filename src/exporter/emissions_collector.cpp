#include "exporter/emissions_collector.h"

namespace ceems::exporter {

using metrics::Labels;
using metrics::MetricFamily;
using metrics::MetricType;

std::vector<metrics::MetricFamily> EmissionsCollector::collect(
    common::TimestampMs now) {
  MetricFamily factor{"ceems_emissions_gCo2_kWh",
                      "Current emission factor in gCO2e per kWh.",
                      MetricType::kGauge,
                      {}};
  for (const auto& provider : providers_) {
    auto result = provider->factor(country_code_, now);
    if (!result) continue;  // provider down / rate-limited: series goes stale
    factor.add(Labels{{"provider", result->provider},
                      {"country_code", country_code_}},
               result->gco2_per_kwh);
  }
  return move_families(factor);
}

}  // namespace ceems::exporter
