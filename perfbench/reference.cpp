#include "reference.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>

namespace perfbench {
namespace {

constexpr std::size_t kSlots = std::size_t{1} << 22;  // 16 MiB of uint32
constexpr std::size_t kChaseSteps = 150'000;
constexpr std::size_t kKeys = 40'000;
constexpr std::size_t kTableSlots = std::size_t{1} << 17;  // load ~0.3

uint64_t splitmix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  return h;
}

}  // namespace

ReferenceKernel::ReferenceKernel()
    : next_(kSlots), table_(kTableSlots), sorted_(kKeys) {
  // Sattolo's shuffle: a single cycle through every slot, so the chase
  // below misses the cache on almost every step.
  uint64_t state = 42;
  std::vector<uint32_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(order[i], order[splitmix(state) % i]);
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    next_[order[i]] = order[(i + 1) % kSlots];
  }
  // Label-like keys: metric name, node and job id.
  keys_.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys_.push_back("ceems_compute_unit_cpu_usage_seconds_total{instance=\"node" +
                    std::to_string(splitmix(state) % 1400) + "\",uuid=\"" +
                    std::to_string(splitmix(state) % 10'000'000) + "\"}");
  }
}

double ReferenceKernel::run() {
  // Every buffer was allocated by the constructor: the kernel never calls
  // the allocator, whose speed follows the program's heap (a fragmented
  // heap doubled the time of a version that built a std::unordered_map).
  const auto start = std::chrono::steady_clock::now();
  // Memory latency: a dependent walk over the random cycle.
  uint32_t at = 0;
  for (std::size_t i = 0; i < kChaseSteps; ++i) at = next_[at];
  // Hashing and probing: the keys' hashes inserted into an open-addressing
  // table and looked up again, as a series index does.
  std::fill(table_.begin(), table_.end(), Slot{});
  const std::size_t mask = kTableSlots - 1;
  for (uint32_t i = 0; i < kKeys; ++i) {
    const uint64_t h = fnv1a(keys_[i]) | 1;  // 0 marks an empty slot
    std::size_t s = h & mask;
    while (table_[s].hash != 0 && table_[s].hash != h) s = (s + 1) & mask;
    table_[s] = {h, i};
  }
  uint64_t found = 0;
  for (std::size_t i = 0; i < kKeys; i += 2) {
    const uint64_t h = fnv1a(keys_[i]) | 1;
    std::size_t s = h & mask;
    while (table_[s].hash != h) s = (s + 1) & mask;
    found += table_[s].key;
  }
  // Branchy compute: sorting pointers to the keys.
  for (std::size_t i = 0; i < kKeys; ++i) sorted_[i] = &keys_[i];
  std::sort(sorted_.begin(), sorted_.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  checksum_ += at + found + sorted_[kKeys / 2]->size();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
