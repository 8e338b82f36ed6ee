// One shard's inverted index: a (name symbol, value symbol) pair → the
// ascending ids of the series carrying it. The table is open-addressed
// (linear probing, backward-shift deletion, so no tombstones) and each
// entry keeps up to kInline ids in place. Most pairs one shard sees are a
// job's uuid or a node's hostname, named by a handful of its series, so
// they cost neither a hash node nor a list allocation of their own; only
// lists that outgrow the entry allocate, and they grow by doubling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ceems::tsdb {

class PostingIndex {
 public:
  using Id = uint32_t;

  PostingIndex() = default;
  PostingIndex(const PostingIndex&) = delete;
  PostingIndex& operator=(const PostingIndex&) = delete;
  ~PostingIndex() { clear(); }

  static uint64_t key(uint32_t name_sym, uint32_t value_sym) {
    return uint64_t{name_sym} << 32 | value_sym;
  }

  // The ids under `key`, ascending; empty when there are none. Valid
  // until the next insert or erase.
  std::span<const Id> find(uint64_t key) const;
  // Adds `id`, which `key`'s list must not hold yet. Ids larger than every
  // id in the list (a new series' slot) append; others are inserted in
  // order.
  void insert(uint64_t key, Id id);
  // Removes the ids of `key`'s list that `dead` selects, in one pass, and
  // the list itself once it is empty.
  template <typename Dead>
  void erase_if(uint64_t key, Dead dead);
  // Drops every list and releases all memory.
  void clear();

  std::size_t size() const { return size_; }
  // Entry table plus the capacity of every list that outgrew its entry.
  std::size_t approx_bytes() const;

 private:
  static constexpr uint64_t kFree = ~uint64_t{0};  // no symbol id is 2^32-1
  static constexpr uint32_t kInline = 2;

  struct List {
    uint64_t key = kFree;
    uint32_t size = 0;
    uint32_t capacity = kInline;  // > kInline: the ids live in `heap`
    union {
      Id local[kInline];
      Id* heap;
    };

    Id* data() { return capacity > kInline ? heap : local; }
    const Id* data() const { return capacity > kInline ? heap : local; }
  };

  std::size_t home(uint64_t key) const {
    // Multiplicative mixing: the value symbol sits in the low bits.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
           (table_.size() - 1);
  }
  // Slot holding `key`, or the free slot its probe ends on.
  std::size_t probe(uint64_t key) const;
  void grow();
  // Empties slot `i` and shifts later entries of its probe run back.
  void remove_at(std::size_t i);

  std::vector<List> table_;  // power-of-two size, at most 3/4 full
  std::size_t size_ = 0;
};

template <typename Dead>
void PostingIndex::erase_if(uint64_t key, Dead dead) {
  if (size_ == 0) return;
  const std::size_t i = probe(key);
  List& list = table_[i];
  if (list.key != key) return;
  Id* ids = list.data();
  uint32_t kept = 0;
  for (uint32_t j = 0; j < list.size; ++j) {
    if (!dead(ids[j])) ids[kept++] = ids[j];
  }
  list.size = kept;
  if (kept == 0) remove_at(i);
}

}  // namespace ceems::tsdb
