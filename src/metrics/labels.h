// Label sets — the identity of a time series in the Prometheus data model.
// Stored as a sorted vector of (name, value) pairs; sortedness makes
// equality, ordering and fingerprinting cheap and canonical.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ceems::metrics {

// Reserved label holding the metric name, as in Prometheus.
inline constexpr std::string_view kMetricNameLabel = "__name__";

class Labels {
 public:
  using Pair = std::pair<std::string, std::string>;

  Labels() = default;
  Labels(std::initializer_list<Pair> pairs);
  explicit Labels(std::vector<Pair> pairs);
  // Adopts pairs already in canonical order (sorted by name, names
  // unique) without sorting them again.
  static Labels from_canonical(std::vector<Pair> pairs) {
    Labels labels;
    labels.pairs_ = std::move(pairs);
    return labels;
  }

  // Returns the value for `name`, or nullopt.
  std::optional<std::string_view> get(std::string_view name) const;
  bool has(std::string_view name) const { return get(name).has_value(); }

  // Returns a copy with `name` set to `value` (replacing any existing).
  Labels with(std::string_view name, std::string_view value) const;
  // Returns a copy without `name`.
  Labels without(std::string_view name) const;
  // Returns a copy keeping only the given names (PromQL `by` semantics).
  Labels keep_only(const std::vector<std::string>& names) const;
  // Returns a copy dropping the given names (PromQL `without` semantics).
  Labels drop(const std::vector<std::string>& names) const;

  // Convenience for the metric name label.
  std::string_view name() const;
  Labels with_name(std::string_view metric_name) const {
    return with(kMetricNameLabel, metric_name);
  }
  Labels without_name() const { return without(kMetricNameLabel); }

  const std::vector<Pair>& pairs() const { return pairs_; }
  std::size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  // Stable 64-bit fingerprint (FNV-1a over name/value bytes).
  uint64_t fingerprint() const;

  // Canonical rendering: {a="b",c="d"} — used in series keys and errors.
  std::string to_string() const;

  bool operator==(const Labels& other) const { return pairs_ == other.pairs_; }
  bool operator!=(const Labels& other) const { return !(*this == other); }
  bool operator<(const Labels& other) const { return pairs_ < other.pairs_; }

 private:
  void normalize();
  std::vector<Pair> pairs_;  // sorted by name, unique names
};

struct LabelsHash {
  std::size_t operator()(const Labels& labels) const {
    return static_cast<std::size_t>(labels.fingerprint());
  }
};

// A label matcher as used in PromQL selectors: name op "value".
struct LabelMatcher {
  enum class Op { kEq, kNe, kRegexMatch, kRegexNoMatch };
  std::string name;
  Op op = Op::kEq;
  std::string value;

  bool matches(const Labels& labels) const;
};

}  // namespace ceems::metrics
