#include "tsdb/selector.h"

#include "metrics/regex_cache.h"

namespace ceems::tsdb {

using metrics::LabelMatcher;
using metrics::SymbolTable;

namespace {
constexpr uint32_t kAbsent = UINT32_MAX;
}  // namespace

Selector::Selector(const std::vector<LabelMatcher>& matchers) {
  SymbolTable& table = SymbolTable::global();
  terms_.reserve(matchers.size());
  for (const auto& matcher : matchers) {
    Term term;
    term.op = matcher.op;
    term.pattern = &matcher.value;
    term.name = table.find(matcher.name);
    term.value = table.find(matcher.value);
    term.value_empty = matcher.value.empty();
    if (matcher.op == LabelMatcher::Op::kEq && !term.value_empty &&
        (!term.name || !term.value)) {
      // A name or value never interned appears in no stored series.
      satisfiable_ = false;
    }
    terms_.push_back(std::move(term));
  }
}

std::optional<metrics::InternedLabels::SymbolPair> Selector::posting(
    std::size_t i) const {
  const Term& term = terms_[i];
  if (term.op != LabelMatcher::Op::kEq || term.value_empty || !term.name ||
      !term.value) {
    return std::nullopt;
  }
  return metrics::InternedLabels::SymbolPair{*term.name, *term.value};
}

bool Selector::matches(const metrics::InternedLabels& labels,
                       std::size_t skip_term) const {
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (i == skip_term) continue;
    const Term& term = terms_[i];
    std::optional<uint32_t> actual;
    if (term.name) {
      for (const auto& [name_sym, value_sym] : labels.pairs()) {
        if (name_sym == *term.name) {
          actual = value_sym;
          break;
        }
      }
    }
    if (!term.matches(actual)) return false;
  }
  return true;
}

bool Selector::Term::matches(std::optional<uint32_t> actual) const {
  switch (op) {
    case LabelMatcher::Op::kEq:
    case LabelMatcher::Op::kNe: {
      bool equal = actual ? value && *actual == *value : value_empty;
      return (op == LabelMatcher::Op::kEq) == equal;
    }
    case LabelMatcher::Op::kRegexMatch:
      return regex_matches(actual);
    case LabelMatcher::Op::kRegexNoMatch:
      return !regex_matches(actual);
  }
  return false;
}

bool Selector::Term::regex_matches(std::optional<uint32_t> actual) const {
  uint32_t key = actual ? *actual : kAbsent;
  auto it = regex_memo.find(key);
  if (it != regex_memo.end()) return it->second;
  if (!regex) regex = metrics::compiled_anchored_regex(*pattern);
  std::string text(actual ? SymbolTable::global().text(*actual)
                          : std::string_view{});
  bool match = std::regex_search(text, *regex);
  regex_memo.emplace(key, match);
  return match;
}

}  // namespace ceems::tsdb
