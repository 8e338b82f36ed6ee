// Process-wide cache of compiled PromQL label regexes. Selector matching
// (LabelMatcher with =~ / !~) historically compiled a std::regex on every
// matches() call — once per series per select(), which dominated selector
// cost for regex-heavy queries. PromQL regexes come from a small set of
// query strings, so a bounded LRU keyed on the raw pattern makes the
// compile a once-per-pattern event.
//
// Patterns are compiled fully anchored ("^(?:pattern)$", ECMAScript), the
// PromQL anchoring rule. Compilation errors (std::regex_error) propagate to
// the caller exactly as the previous inline compile did.
#pragma once

#include <memory>
#include <regex>
#include <string>

namespace ceems::metrics {

// Returns the compiled, anchored regex for `pattern`, from cache when
// possible. The returned pointer is immutable and safe to use after later
// cache evictions. Thread-safe.
std::shared_ptr<const std::regex> compiled_anchored_regex(
    const std::string& pattern);

}  // namespace ceems::metrics
