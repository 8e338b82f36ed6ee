// Collector framework of the CEEMS exporter (§II-B.a): the exporter is an
// HTTP server whose /metrics response is assembled from independent
// collectors, each of which "can be enabled or disabled based on needs".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "metrics/model.h"

namespace ceems::exporter {

class Collector {
 public:
  virtual ~Collector() = default;
  virtual std::string name() const = 0;
  // Produces the collector's metric families for this scrape. Collectors
  // must be cheap and side-effect free apart from their own cursors; they
  // run on every scrape request.
  virtual std::vector<metrics::MetricFamily> collect(
      common::TimestampMs now) = 0;
};

using CollectorPtr = std::shared_ptr<Collector>;

// Moves the given families into a vector, in order. A braced
// `return {a, b}` would deep-copy each one through an initializer_list.
template <typename... Families>
std::vector<metrics::MetricFamily> move_families(Families&&... families) {
  std::vector<metrics::MetricFamily> out;
  out.reserve(sizeof...(families));
  (out.push_back(std::move(families)), ...);
  return out;
}

// Labels every CEEMS compute-unit metric carries (§II-B.b: the API server
// unifies resource managers behind one schema keyed by uuid + manager).
inline constexpr const char* kUuidLabel = "uuid";
inline constexpr const char* kManagerLabel = "manager";

}  // namespace ceems::exporter
