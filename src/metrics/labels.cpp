#include "metrics/labels.h"

#include <algorithm>
#include <regex>

#include "common/fnv1a.h"
#include "metrics/regex_cache.h"

namespace ceems::metrics {

Labels::Labels(std::initializer_list<Pair> pairs) : pairs_(pairs) {
  normalize();
}

Labels::Labels(std::vector<Pair> pairs) : pairs_(std::move(pairs)) {
  normalize();
}

void Labels::normalize() {
  std::sort(pairs_.begin(), pairs_.end());
  // Later duplicates win (matches with() semantics); drop earlier ones.
  auto last = std::unique(
      pairs_.rbegin(), pairs_.rend(),
      [](const Pair& a, const Pair& b) { return a.first == b.first; });
  pairs_.erase(pairs_.begin(), last.base());
}

std::optional<std::string_view> Labels::get(std::string_view name) const {
  auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), name,
      [](const Pair& pair, std::string_view n) { return pair.first < n; });
  if (it != pairs_.end() && it->first == name) return it->second;
  return std::nullopt;
}

Labels Labels::with(std::string_view name, std::string_view value) const {
  std::vector<Pair> pairs = pairs_;
  auto it = std::find_if(pairs.begin(), pairs.end(),
                         [&](const Pair& p) { return p.first == name; });
  if (it != pairs.end()) {
    it->second = std::string(value);
  } else {
    pairs.emplace_back(std::string(name), std::string(value));
  }
  return Labels(std::move(pairs));
}

Labels Labels::without(std::string_view name) const {
  std::vector<Pair> pairs;
  pairs.reserve(pairs_.size());
  for (const auto& pair : pairs_) {
    if (pair.first != name) pairs.push_back(pair);
  }
  return Labels(std::move(pairs));
}

Labels Labels::keep_only(const std::vector<std::string>& names) const {
  std::vector<Pair> pairs;
  for (const auto& pair : pairs_) {
    if (std::find(names.begin(), names.end(), pair.first) != names.end())
      pairs.push_back(pair);
  }
  return Labels(std::move(pairs));
}

Labels Labels::drop(const std::vector<std::string>& names) const {
  std::vector<Pair> pairs;
  for (const auto& pair : pairs_) {
    if (std::find(names.begin(), names.end(), pair.first) == names.end())
      pairs.push_back(pair);
  }
  return Labels(std::move(pairs));
}

std::string_view Labels::name() const {
  auto value = get(kMetricNameLabel);
  return value ? *value : std::string_view{};
}

uint64_t Labels::fingerprint() const {
  uint64_t hash = common::kFnv1aOffsetBasis;
  for (const auto& [name, value] : pairs_) {
    hash = common::fnv1a_field(common::fnv1a_field(hash, name), value);
  }
  return hash;
}

std::string Labels::to_string() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : pairs_) {
    if (!first) out += ",";
    first = false;
    out += name;
    out += "=\"";
    out += value;
    out += "\"";
  }
  out += "}";
  return out;
}

bool LabelMatcher::matches(const Labels& labels) const {
  auto actual = labels.get(name);
  std::string_view value_view = actual.value_or(std::string_view{});
  switch (op) {
    case Op::kEq:
      return value_view == value;
    case Op::kNe:
      return value_view != value;
    case Op::kRegexMatch:
    case Op::kRegexNoMatch: {
      // PromQL regexes are fully anchored; the compile is cached per
      // pattern so per-series matching doesn't pay it again.
      auto re = compiled_anchored_regex(value);
      bool match = std::regex_search(std::string(value_view), *re);
      return op == Op::kRegexMatch ? match : !match;
    }
  }
  return false;
}

}  // namespace ceems::metrics
