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

void InternedLabels::rebuild(const std::vector<SymbolPair>& syms) {
  SymbolTable& table = SymbolTable::global();
  syms_ = syms;
  std::sort(syms_.begin(), syms_.end(),
            [&table](const SymbolPair& a, const SymbolPair& b) {
              return table.text(a.first) < table.text(b.first);
            });
  // Same scheme as Labels::fingerprint().
  uint64_t hash = kEmptyFingerprint;
  for (const auto& [name_sym, value_sym] : syms_) {
    hash = common::fnv1a_field(common::fnv1a_field(hash, table.text(name_sym)),
                               table.text(value_sym));
  }
  fingerprint_ = hash;
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
  std::vector<SymbolPair> syms;
  syms.reserve(syms_.size() + 1);
  bool replaced = false;
  for (const auto& pair : syms_) {
    if (pair.first == name_sym) {
      syms.emplace_back(name_sym, value_sym);
      replaced = true;
    } else {
      syms.push_back(pair);
    }
  }
  if (!replaced) syms.emplace_back(name_sym, value_sym);
  InternedLabels out;
  out.rebuild(syms);
  return out;
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
