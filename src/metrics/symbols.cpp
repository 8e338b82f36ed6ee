#include "metrics/symbols.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <stdexcept>

namespace ceems::metrics {

SymbolTable& SymbolTable::global() {
  static SymbolTable* table = new SymbolTable();  // immortal, like the ids
  return *table;
}

std::pair<std::size_t, std::size_t> SymbolTable::locate(uint32_t id) {
  // Shifted by the first block's size, an id's highest set bit names its
  // block and the bits below it the offset within that block.
  const std::size_t pos = std::size_t{id} + kFirstBlock;
  const std::size_t block =
      static_cast<std::size_t>(std::bit_width(pos)) - 1 - kFirstBlockBits;
  return {block, pos - (kFirstBlock << block)};
}

uint32_t SymbolTable::intern(std::string_view text) {
  {
    std::shared_lock lock(mu_);
    auto it = ids_.find(text);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  auto it = ids_.find(text);  // raced insert between the two locks
  if (it != ids_.end()) return it->second;
  const uint32_t id = size_.load(std::memory_order_relaxed);
  const auto [block, offset] = locate(id);
  if (block >= kBlocks) throw std::length_error("symbol table is full");
  if (!blocks_[block]) {
    blocks_[block] = std::make_unique<std::string_view[]>(kFirstBlock << block);
  }
  strings_.emplace_back(text);
  const std::string_view stored(strings_.back());
  ids_.emplace(stored, id);
  string_bytes_ += text.size();
  blocks_[block][offset] = stored;
  // Publishes the view (and its block) to lock-free text() readers.
  size_.store(id + 1, std::memory_order_release);
  return id;
}

std::optional<uint32_t> SymbolTable::find(std::string_view text) const {
  std::shared_lock lock(mu_);
  auto it = ids_.find(text);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::string_view SymbolTable::text(uint32_t id) const {
  if (id & QuerySymbols::kBit) {
    const QuerySymbols* query = QuerySymbols::active();
    return query ? query->text(id) : std::string_view{};
  }
  if (id >= size_.load(std::memory_order_acquire)) return {};
  const auto [block, offset] = locate(id);
  return blocks_[block][offset];
}

std::size_t SymbolTable::approx_bytes() const {
  std::shared_lock lock(mu_);
  std::size_t block_views = 0;
  for (std::size_t block = 0; block < kBlocks && blocks_[block]; ++block) {
    block_views += kFirstBlock << block;
  }
  return string_bytes_ +
         strings_.size() * (sizeof(std::string) + sizeof(std::string_view) +
                            sizeof(uint32_t) + 2 * sizeof(void*)) +
         block_views * sizeof(std::string_view);
}

InternedLabels::InternedLabels(const Labels& labels) {
  SymbolTable& table = SymbolTable::global();
  syms_.reserve(labels.size());
  for (const auto& [name, value] : labels.pairs()) {
    syms_.emplace_back(table.intern(name), table.intern(value));
  }
  fingerprint_ = labels.fingerprint();
}

InternedLabels::InternedLabels(const Labels& labels,
                               uint64_t fingerprint_override)
    : InternedLabels(labels) {
  fingerprint_ = fingerprint_override;
}

namespace {

// Labels::fingerprint() over the pairs `keep` accepts, from their symbols.
template <typename Keep>
uint64_t fingerprint_of(const std::vector<InternedLabels::SymbolPair>& syms,
                        Keep keep) {
  SymbolTable& table = SymbolTable::global();
  uint64_t hash = common::kFnv1aOffsetBasis;
  for (const auto& [name_sym, value_sym] : syms) {
    if (!keep(name_sym)) continue;
    hash = common::fnv1a_field(common::fnv1a_field(hash, table.text(name_sym)),
                               table.text(value_sym));
  }
  return hash;
}

bool listed(const std::vector<uint32_t>& name_syms, uint32_t name_sym) {
  return std::find(name_syms.begin(), name_syms.end(), name_sym) !=
         name_syms.end();
}

}  // namespace

uint32_t metric_name_symbol() {
  static const uint32_t symbol = SymbolTable::global().intern(kMetricNameLabel);
  return symbol;
}

namespace {
thread_local QuerySymbols* active_query_symbols = nullptr;
}  // namespace

QuerySymbols::Scope::Scope(QuerySymbols* table)
    : previous_(active_query_symbols) {
  active_query_symbols = table;
}

QuerySymbols::Scope::~Scope() { active_query_symbols = previous_; }

QuerySymbols* QuerySymbols::active() { return active_query_symbols; }

uint32_t QuerySymbols::intern(std::string_view text) {
  QuerySymbols* query = active_query_symbols;
  SymbolTable& table = SymbolTable::global();
  if (!query) return table.intern(text);
  std::lock_guard lock(query->mu_);
  if (auto it = query->ids_.find(text); it != query->ids_.end()) {
    return it->second;
  }
  if (std::optional<uint32_t> id = table.find(text)) return *id;
  const uint32_t id = kBit | static_cast<uint32_t>(query->strings_.size());
  query->strings_.emplace_back(text);
  query->ids_.emplace(query->strings_.back(), id);
  return id;
}

std::optional<uint32_t> QuerySymbols::find(std::string_view text) {
  if (const QuerySymbols* query = active_query_symbols) {
    std::lock_guard lock(query->mu_);
    if (auto it = query->ids_.find(text); it != query->ids_.end()) {
      return it->second;
    }
  }
  return SymbolTable::global().find(text);
}

std::string_view QuerySymbols::text(uint32_t id) const {
  std::lock_guard lock(mu_);
  const std::size_t index = id & ~kBit;
  return index < strings_.size() ? std::string_view(strings_[index])
                                 : std::string_view{};
}

void InternedLabels::rehash() {
  fingerprint_ = fingerprint_of(syms_, [](uint32_t) { return true; });
}

void InternedLabels::set_in_place(uint32_t name_sym, uint32_t value_sym) {
  SymbolTable& table = SymbolTable::global();
  const std::string_view name = table.text(name_sym);
  auto it = syms_.begin();
  for (; it != syms_.end(); ++it) {
    if (it->first == name_sym) {
      it->second = value_sym;
      return;
    }
    if (name < table.text(it->first)) break;
  }
  syms_.insert(it, {name_sym, value_sym});
}

std::optional<std::string_view> InternedLabels::get(
    std::string_view name) const {
  SymbolTable& table = SymbolTable::global();
  auto name_sym = table.find(name);
  if (!name_sym) return std::nullopt;
  for (const auto& [n, v] : syms_) {
    if (n == *name_sym) return table.text(v);
  }
  return std::nullopt;
}

std::string_view InternedLabels::name() const {
  auto value = get(kMetricNameLabel);
  return value ? *value : std::string_view{};
}

InternedLabels InternedLabels::with(std::string_view name,
                                    std::string_view value) const {
  SymbolTable& table = SymbolTable::global();
  return with_symbols(table.intern(name), table.intern(value));
}

InternedLabels InternedLabels::with_symbols(uint32_t name_sym,
                                            uint32_t value_sym) const {
  InternedLabels out;
  out.syms_.reserve(syms_.size() + 1);
  out.syms_ = syms_;
  out.set_in_place(name_sym, value_sym);
  out.rehash();
  return out;
}

InternedLabels InternedLabels::with_symbols(
    const std::vector<SymbolPair>& pairs) && {
  for (const auto& [name_sym, value_sym] : pairs) {
    set_in_place(name_sym, value_sym);
  }
  rehash();
  return std::move(*this);
}

InternedLabels InternedLabels::without_name() const& {
  return drop({metric_name_symbol()});
}

InternedLabels InternedLabels::without_name() && {
  const uint32_t name_sym = metric_name_symbol();
  auto it = std::find_if(syms_.begin(), syms_.end(),
                         [name_sym](const SymbolPair& pair) {
                           return pair.first == name_sym;
                         });
  if (it != syms_.end()) {
    syms_.erase(it);
    rehash();
  }
  return std::move(*this);
}

InternedLabels InternedLabels::keep_only(
    const std::vector<uint32_t>& name_syms) const {
  InternedLabels out;
  out.syms_.reserve(std::min(syms_.size(), name_syms.size()));
  for (const auto& pair : syms_) {
    if (listed(name_syms, pair.first)) out.syms_.push_back(pair);
  }
  out.rehash();
  return out;
}

InternedLabels InternedLabels::drop(
    const std::vector<uint32_t>& name_syms) const {
  InternedLabels out;
  out.syms_.reserve(syms_.size());
  for (const auto& pair : syms_) {
    if (!listed(name_syms, pair.first)) out.syms_.push_back(pair);
  }
  out.rehash();
  return out;
}

uint64_t InternedLabels::keep_only_fingerprint(
    const std::vector<uint32_t>& name_syms) const {
  return fingerprint_of(
      syms_, [&](uint32_t name_sym) { return listed(name_syms, name_sym); });
}

uint64_t InternedLabels::drop_fingerprint(
    const std::vector<uint32_t>& name_syms) const {
  return fingerprint_of(
      syms_, [&](uint32_t name_sym) { return !listed(name_syms, name_sym); });
}

bool InternedLabels::operator<(const InternedLabels& other) const {
  SymbolTable& table = SymbolTable::global();
  const std::size_t common = std::min(syms_.size(), other.syms_.size());
  for (std::size_t i = 0; i < common; ++i) {
    const SymbolPair& a = syms_[i];
    const SymbolPair& b = other.syms_[i];
    // Two ids name one string only when a query table took a string
    // that another thread then interned globally; such pairs tie.
    if (a.first != b.first) {
      const int order = table.text(a.first).compare(table.text(b.first));
      if (order != 0) return order < 0;
    }
    if (a.second != b.second) {
      const int order = table.text(a.second).compare(table.text(b.second));
      if (order != 0) return order < 0;
    }
  }
  return syms_.size() < other.syms_.size();
}

Labels InternedLabels::to_labels() const {
  SymbolTable& table = SymbolTable::global();
  std::vector<Labels::Pair> pairs;
  pairs.reserve(syms_.size());
  for (const auto& [name_sym, value_sym] : syms_) {
    pairs.emplace_back(std::string(table.text(name_sym)),
                       std::string(table.text(value_sym)));
  }
  // syms_ is already in canonical order with unique names.
  return Labels::from_canonical(std::move(pairs));
}

}  // namespace ceems::metrics
