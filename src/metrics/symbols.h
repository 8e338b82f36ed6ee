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
#include <mutex>
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
  // returns an empty view. An id with QuerySymbols::kBit set is read, under
  // its lock, from the calling thread's active QuerySymbols.
  std::string_view text(uint32_t id) const;

  std::size_t size() const { return size_.load(std::memory_order_acquire); }
  // Approximate memory held by the table (string bytes + index overhead).
  std::size_t approx_bytes() const;

 private:
  // Block k holds kFirstBlock << k views, so kBlocks pointers cover
  // 2^31 - kFirstBlock ids, all below the top bit (which marks
  // QuerySymbols ids), and a block, once allocated, never moves.
  static constexpr unsigned kFirstBlockBits = 10;
  static constexpr std::size_t kFirstBlock = std::size_t{1} << kFirstBlockBits;
  static constexpr std::size_t kBlocks = 21;
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

// The symbol of kMetricNameLabel, interned on first use.
uint32_t metric_name_symbol();

// Strings a query builds (label_replace()/label_join() values), kept out
// of the global table, which never frees an entry: otherwise any client
// could grow the process by one string per query. While a Scope is active
// on a thread, intern() gives a string that the global table does not
// hold an id with kBit set, stored in the active QuerySymbols, and
// SymbolTable::text() resolves such ids through it. The ids mean nothing
// once the table is gone, so labels carrying them become strings
// (to_labels) before the scope ends. Thread-safe: a range query's pool
// workers share their query's table.
class QuerySymbols {
 public:
  // Global ids stay below this bit (SymbolTable caps its size under it).
  static constexpr uint32_t kBit = uint32_t{1} << 31;

  // Makes `table` the calling thread's active one (nullptr: none) until
  // destruction, then restores the previous one.
  class Scope {
   public:
    explicit Scope(QuerySymbols* table);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    QuerySymbols* previous_;
  };

  // The calling thread's active table, or nullptr.
  static QuerySymbols* active();
  // The id for `text`: an id the active table already gave it, else its
  // global id if it has one, else a new id in the active table. With no
  // active table it interns globally, as a rule's output is stored (and
  // so interned) anyway.
  static uint32_t intern(std::string_view text);
  // Lookup without insertion, in the same order: a label name the query
  // made up (a label_replace() destination read by `by` or by another
  // label_replace()) is found in the active table.
  static std::optional<uint32_t> find(std::string_view text);

  // The string of one of this table's ids (empty if it has none).
  std::string_view text(uint32_t id) const;

 private:
  mutable std::mutex mu_;
  std::deque<std::string> strings_;  // id & ~kBit -> string
  std::unordered_map<std::string_view, uint32_t> ids_;
};

// A label set as sorted (name, value) symbol-id pairs plus the precomputed
// 64-bit fingerprint of the equivalent Labels. Construction interns every
// string once; copies and equality afterwards never touch string bytes.
// Deriving a label set (with, without, keep_only, drop) reads strings only
// to hash them and, for an added name, to find its place.
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

  // Value symbol for a name symbol, or nullopt. Reads no string.
  std::optional<uint32_t> value_symbol(uint32_t name_sym) const {
    for (const auto& [n, v] : syms_) {
      if (n == name_sym) return v;
    }
    return std::nullopt;
  }

  // Returns a copy with `name` set to `value` (replacing any existing),
  // interning both strings. The symbol overloads skip the intern lookups
  // when the caller pre-interned (e.g. per-target scrape labels, a rule's
  // record name); the vector overload sets each pair in turn, as chained
  // calls would, hashes once and reuses this set's storage.
  InternedLabels with(std::string_view name, std::string_view value) const;
  InternedLabels with_symbols(uint32_t name_sym, uint32_t value_sym) const;
  InternedLabels with_symbols(const std::vector<SymbolPair>& pairs) &&;

  // Returns a copy without the metric name (PromQL drops it from every
  // derived value). The rvalue overload erases in place.
  InternedLabels without_name() const&;
  InternedLabels without_name() &&;
  // Returns a copy keeping only / dropping the labels whose name symbols
  // are listed (PromQL `by` / `without`). Names never interned cannot
  // occur in any label set, so callers resolve them with
  // SymbolTable::find() and leave the unknown ones out.
  InternedLabels keep_only(const std::vector<uint32_t>& name_syms) const;
  InternedLabels drop(const std::vector<uint32_t>& name_syms) const;
  // The fingerprint keep_only() / drop() would give, built from nothing
  // but this set's symbols: grouping and vector matching key on it and
  // build a label set only for the groups and matches they emit.
  uint64_t keep_only_fingerprint(const std::vector<uint32_t>& name_syms) const;
  uint64_t drop_fingerprint(const std::vector<uint32_t>& name_syms) const;

  // Materialises the equivalent Labels (allocates; API-boundary use only).
  Labels to_labels() const;

  bool operator==(const InternedLabels& other) const {
    return fingerprint_ == other.fingerprint_ && syms_ == other.syms_;
  }
  bool operator!=(const InternedLabels& other) const {
    return !(*this == other);
  }
  // Exactly the order of the equivalent Labels (Labels::operator<: pair
  // by pair, name string then value string, a prefix first). Ids are
  // compared first and strings read, lock-free, only where two ids
  // differ.
  bool operator<(const InternedLabels& other) const;

 private:
  std::vector<SymbolPair> syms_;
  uint64_t fingerprint_ = kEmptyFingerprint;

  // FNV-1a offset basis — the fingerprint of an empty label set, matching
  // Labels::fingerprint().
  static constexpr uint64_t kEmptyFingerprint = common::kFnv1aOffsetBasis;

  // Sets one pair in syms_ (kept in canonical order); does not rehash.
  void set_in_place(uint32_t name_sym, uint32_t value_sym);
  // Recomputes fingerprint_ from syms_.
  void rehash();
};

struct InternedLabelsHash {
  std::size_t operator()(const InternedLabels& labels) const {
    return static_cast<std::size_t>(labels.fingerprint());
  }
};

}  // namespace ceems::metrics
