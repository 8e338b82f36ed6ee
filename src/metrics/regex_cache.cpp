#include "metrics/regex_cache.h"

#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>

namespace ceems::metrics {

namespace {

// Bounded enough for every live dashboard/rule pattern, small enough that a
// hostile stream of unique patterns stays O(capacity) memory.
constexpr std::size_t kCapacity = 128;

// The cache is lock-striped: concurrent query threads hitting *different*
// patterns take different mutexes, so the hot lookup path scales with
// threads instead of serializing on one process-wide lock. Each stripe is
// an independent LRU over its share of the capacity; a pattern lives in
// exactly one stripe (keyed by its hash), so the semantics per pattern are
// identical to the old single-lock cache.
constexpr std::size_t kStripes = 8;
static_assert(kCapacity % kStripes == 0);

struct Stripe {
  std::mutex mu;
  // Most-recently-used at the front.
  std::list<std::string> lru;
  struct Entry {
    std::shared_ptr<const std::regex> regex;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Entry> entries;
};

struct Cache {
  Stripe stripes[kStripes];
  Stripe& of(const std::string& pattern) {
    return stripes[std::hash<std::string>{}(pattern) % kStripes];
  }
};

Cache& cache() {
  static Cache* instance = new Cache();  // intentionally leaked
  return *instance;
}

}  // namespace

std::shared_ptr<const std::regex> compiled_anchored_regex(
    const std::string& pattern) {
  Stripe& s = cache().of(pattern);
  {
    std::lock_guard lock(s.mu);
    auto it = s.entries.find(pattern);
    if (it != s.entries.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      return it->second.regex;
    }
  }
  // Compile outside the lock: regex construction is the expensive part and
  // may throw std::regex_error, which must reach the caller uncached.
  auto compiled = std::make_shared<const std::regex>(
      "^(?:" + pattern + ")$", std::regex::ECMAScript);
  std::lock_guard lock(s.mu);
  auto it = s.entries.find(pattern);
  if (it != s.entries.end()) {
    // Raced with another thread compiling the same pattern; keep theirs.
    s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
    return it->second.regex;
  }
  if (s.entries.size() >= kCapacity / kStripes) {
    s.entries.erase(s.lru.back());
    s.lru.pop_back();
  }
  s.lru.push_front(pattern);
  s.entries.emplace(pattern, Stripe::Entry{compiled, s.lru.begin()});
  return compiled;
}

}  // namespace ceems::metrics
