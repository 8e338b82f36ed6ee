// Symbol interning for label strings — the Prometheus symbol-table idea.
// Every distinct label name/value string is stored once per process in the
// global SymbolTable; label sets then travel as small vectors of 32-bit
// symbol ids (InternedLabels) with a precomputed fingerprint, making
// equality O(1)-ish (fingerprint compare + short id-vector compare) and
// per-sample label handling allocation-free after first sight.
//
// InternedLabels keeps the same canonical ordering (sorted by label *name
// string*) and the same FNV-1a fingerprint as Labels, so the two
// representations are interchangeable: converting back and forth is
// lossless and fingerprints agree bit-for-bit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fnv1a.h"
#include "metrics/labels.h"

namespace ceems::metrics {

// Process-wide thread-safe string interner. Symbol ids are dense, start at
// 0, and stay valid (with stable string storage) for the process lifetime;
// nothing is ever un-interned.
//
// text() is lock-free: id -> string views live in append-only blocks that
// are never moved or freed, and intern() publishes each new id by a
// release store of the table size after its view is written. A reader that
// sees the size cover an id (acquire load) therefore sees the view and its
// block. intern() and find() still take the lock for the string -> id map.
class SymbolTable {
 public:
  // The table shared by every metrics producer/consumer in the process.
  static SymbolTable& global();

  // Returns the id for `text`, inserting it on first sight.
  uint32_t intern(std::string_view text);
  // Lookup without insertion — nullopt when the string was never interned
  // (useful for matchers: an unknown value cannot match any series).
  std::optional<uint32_t> find(std::string_view text) const;
  // The string for an id, without locking. Views are backed by stable
  // per-process storage and remain valid forever; an id not yet interned
  // returns an empty view.
  std::string_view text(uint32_t id) const;

  std::size_t size() const { return size_.load(std::memory_order_acquire); }
  // Approximate memory held by the table (string bytes + index overhead).
  std::size_t approx_bytes() const;

 private:
  // Block k holds kFirstBlock << k views, so kBlocks pointers cover the
  // whole 32-bit id space and a block, once allocated, never moves.
  static constexpr unsigned kFirstBlockBits = 10;
  static constexpr std::size_t kFirstBlock = std::size_t{1} << kFirstBlockBits;
  static constexpr std::size_t kBlocks = 22;
  // (block, offset) of an id.
  static std::pair<std::size_t, std::size_t> locate(uint32_t id);

  mutable std::shared_mutex mu_;
  std::deque<std::string> strings_;  // id -> string; deque = stable refs
  std::unordered_map<std::string_view, uint32_t> ids_;  // views into strings_
  std::size_t string_bytes_ = 0;
  // id -> view into strings_; written under the exclusive lock, read by
  // text() with no lock below the published size_.
  std::array<std::unique_ptr<std::string_view[]>, kBlocks> blocks_;
  std::atomic<uint32_t> size_{0};
};

// A label set as sorted (name, value) symbol-id pairs plus the precomputed
// 64-bit fingerprint of the equivalent Labels. Construction interns every
// string once; copies and comparisons afterwards never touch string bytes.
class InternedLabels {
 public:
  using SymbolPair = std::pair<uint32_t, uint32_t>;  // (name id, value id)

  InternedLabels() = default;
  // Implicit by design: lets Labels flow into Sample{...} literals and
  // other interned-label APIs without call-site churn.
  InternedLabels(const Labels& labels);  // NOLINT(google-explicit-constructor)
  // Test-only seam: same labels, forced fingerprint — used to exercise the
  // storage layer's fingerprint-collision chaining deterministically.
  InternedLabels(const Labels& labels, uint64_t fingerprint_override);

  // Symbol pairs sorted by label name string (same canonical order as
  // Labels::pairs()).
  const std::vector<SymbolPair>& pairs() const { return syms_; }
  std::size_t size() const { return syms_.size(); }
  bool empty() const { return syms_.empty(); }

  uint64_t fingerprint() const { return fingerprint_; }

  // Value for a label name, or nullopt. The view stays valid for the
  // process lifetime (symbol storage is never freed).
  std::optional<std::string_view> get(std::string_view name) const;
  // Convenience for the metric name label.
  std::string_view name() const;

  // Returns a copy with `name` set to `value` (replacing any existing),
  // interning both strings. The symbol overload skips the intern lookups
  // when the caller pre-interned (e.g. per-target scrape labels).
  InternedLabels with(std::string_view name, std::string_view value) const;
  InternedLabels with_symbols(uint32_t name_sym, uint32_t value_sym) const;

  // Materialises the equivalent Labels (allocates; API-boundary use only).
  Labels to_labels() const;

  bool operator==(const InternedLabels& other) const {
    return fingerprint_ == other.fingerprint_ && syms_ == other.syms_;
  }
  bool operator!=(const InternedLabels& other) const {
    return !(*this == other);
  }

 private:
  std::vector<SymbolPair> syms_;
  uint64_t fingerprint_ = kEmptyFingerprint;

  // FNV-1a offset basis — the fingerprint of an empty label set, matching
  // Labels::fingerprint().
  static constexpr uint64_t kEmptyFingerprint = common::kFnv1aOffsetBasis;

  void rebuild(const std::vector<SymbolPair>& syms);
};

struct InternedLabelsHash {
  std::size_t operator()(const InternedLabels& labels) const {
    return static_cast<std::size_t>(labels.fingerprint());
  }
};

}  // namespace ceems::metrics
