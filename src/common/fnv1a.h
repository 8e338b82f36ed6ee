// 64-bit FNV-1a. Label fingerprints (shard placement), fault-plan streams
// and simulated GPU UUIDs derive from it: its output must never change.
#pragma once

#include <cstdint>
#include <string_view>

namespace ceems::common {

inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ULL;

// Hashes `bytes`, continuing from `hash` (the offset basis starts anew).
inline uint64_t fnv1a(std::string_view bytes,
                      uint64_t hash = kFnv1aOffsetBasis) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnv1aPrime;
  }
  return hash;
}

// Mixes one field of a multi-field key: its bytes, then a 0xff separator
// byte, so {"ab","c"} and {"a","bc"} hash apart.
inline uint64_t fnv1a_field(uint64_t hash, std::string_view field) {
  return fnv1a("\xff", fnv1a(field, hash));
}

}  // namespace ceems::common
