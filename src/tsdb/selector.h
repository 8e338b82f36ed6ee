// Label matchers resolved against the process-wide symbol table once per
// read, so each candidate series is checked by comparing 32-bit ids, not
// strings. Label text is compared by symbol id, which is exact because
// interning is injective; an absent label reads as the empty string, as
// in PromQL. The hot store's posting-list selects and the long-term
// ladder's history reads both evaluate matchers through this one class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/labels.h"
#include "metrics/symbols.h"

namespace ceems::tsdb {

class Selector {
 public:
  static constexpr std::size_t kNoTerm = static_cast<std::size_t>(-1);

  // One term per matcher, in order. `matchers` must outlive the Selector
  // (regex terms keep a pointer to their pattern).
  explicit Selector(const std::vector<metrics::LabelMatcher>& matchers);

  // False when a non-empty equality names a string no series was ever
  // given: nothing can match.
  bool satisfiable() const { return satisfiable_; }
  std::size_t size() const { return terms_.size(); }

  // The (name, value) symbols of term `i` when it is a non-empty equality,
  // the kind of term a posting list answers; nullopt otherwise.
  std::optional<metrics::InternedLabels::SymbolPair> posting(
      std::size_t i) const;
  // True when `labels` satisfies every term except `skip_term` (the one
  // whose posting list produced the candidate).
  bool matches(const metrics::InternedLabels& labels,
               std::size_t skip_term = kNoTerm) const;

 private:
  struct Term {
    metrics::LabelMatcher::Op op = metrics::LabelMatcher::Op::kEq;
    std::optional<uint32_t> name;   // nullopt: no series has this label
    std::optional<uint32_t> value;  // nullopt: no series has this value
    bool value_empty = false;
    // Regex ops: the pattern, compiled on first use so a bad pattern
    // throws only where a per-series check would, and the verdict per
    // value symbol (kAbsent for a missing label) — each distinct value is
    // matched once per read, not once per series.
    const std::string* pattern = nullptr;
    mutable std::shared_ptr<const std::regex> regex;
    mutable std::unordered_map<uint32_t, bool> regex_memo;

    bool matches(std::optional<uint32_t> actual) const;
    bool regex_matches(std::optional<uint32_t> actual) const;
  };

  std::vector<Term> terms_;
  bool satisfiable_ = true;
};

}  // namespace ceems::tsdb
