#include "tsdb/posting_index.h"

#include <algorithm>
#include <utility>

namespace ceems::tsdb {

std::size_t PostingIndex::probe(uint64_t key) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(key);
  while (table_[i].key != key && table_[i].key != kFree) i = (i + 1) & mask;
  return i;
}

std::span<const PostingIndex::Id> PostingIndex::find(uint64_t key) const {
  if (size_ == 0) return {};
  const List& list = table_[probe(key)];
  if (list.key != key) return {};
  return {list.data(), list.size};
}

void PostingIndex::insert(uint64_t key, Id id) {
  if (4 * (size_ + 1) > 3 * table_.size()) grow();
  List& list = table_[probe(key)];
  if (list.key == kFree) {
    list.key = key;
    ++size_;
  }
  if (list.size == list.capacity) {
    // Outgrown: move the ids to a heap block twice the size.
    const uint32_t capacity = 2 * list.capacity;
    Id* heap = new Id[capacity];
    std::copy_n(list.data(), list.size, heap);
    if (list.capacity > kInline) delete[] list.heap;
    list.heap = heap;
    list.capacity = capacity;
  }
  Id* ids = list.data();
  Id* end = ids + list.size;
  // New series take the next slot, so this is nearly always an append;
  // only a reused slot lands mid-list.
  Id* at = (list.size == 0 || end[-1] < id) ? end
                                            : std::lower_bound(ids, end, id);
  std::move_backward(at, end, end + 1);
  *at = id;
  ++list.size;
}

void PostingIndex::grow() {
  std::vector<List> old = std::exchange(
      table_, std::vector<List>(std::max<std::size_t>(4, 2 * table_.size())));
  // Entries move bitwise: a heap block changes owner, it is not copied.
  for (const List& list : old) {
    if (list.key != kFree) table_[probe(list.key)] = list;
  }
}

void PostingIndex::remove_at(std::size_t i) {
  if (table_[i].capacity > kInline) delete[] table_[i].heap;
  const std::size_t mask = table_.size() - 1;
  // Backward shift: an entry later in the run moves into the hole when
  // its home slot does not lie between the hole and where it sits.
  for (std::size_t j = (i + 1) & mask; table_[j].key != kFree;
       j = (j + 1) & mask) {
    if (((j - home(table_[j].key)) & mask) >= ((j - i) & mask)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i] = List{};
  --size_;
}

void PostingIndex::clear() {
  for (const List& list : table_) {
    if (list.key != kFree && list.capacity > kInline) delete[] list.heap;
  }
  table_ = std::vector<List>();  // `= {}` would keep the capacity
  size_ = 0;
}

std::size_t PostingIndex::approx_bytes() const {
  std::size_t bytes = table_.capacity() * sizeof(List);
  for (const List& list : table_) {
    if (list.key != kFree && list.capacity > kInline) {
      bytes += list.capacity * sizeof(Id);
    }
  }
  return bytes;
}

}  // namespace ceems::tsdb
