// Internal binary codec of the record log (simfs/record_log.cpp), the
// hot TSDB's WAL records and snapshot (tsdb/wal.cpp, tsdb/storage.cpp)
// and the units DB's log entries (reldb/database.cpp). Fixed-width
// integers and f64 bits are written in host byte order; varints are
// LEB128 and signed deltas zigzag-encoded. Writers append to a
// std::string; the Reader walks a string_view in place.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ceems::common::codec {

inline void put_u32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void put_u64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void put_varint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline void put_zigzag(std::string& out, int64_t v) {
  put_varint(out, (static_cast<uint64_t>(v) << 1) ^
                      static_cast<uint64_t>(v >> 63));
}

// Varint-length-prefixed string (WAL records).
inline void put_str(std::string& out, std::string_view text) {
  put_varint(out, text.size());
  out.append(text.data(), text.size());
}

// Bounds-checked reader; every getter returns false instead of reading
// past the end, so decoding corrupt or truncated bytes can never crash.
struct Reader {
  const uint8_t* p;
  const uint8_t* end;

  explicit Reader(std::string_view bytes)
      : p(reinterpret_cast<const uint8_t*>(bytes.data())),
        end(p + bytes.size()) {}

  bool done() const { return p == end; }
  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  bool get_u8(uint8_t* out) {
    if (p == end) return false;
    *out = *p++;
    return true;
  }

  bool get_u64(uint64_t* out) {
    if (end - p < 8) return false;
    std::memcpy(out, p, 8);
    p += 8;
    return true;
  }

  bool get_f64(double* out) {
    if (end - p < 8) return false;
    std::memcpy(out, p, 8);
    p += 8;
    return true;
  }

  bool get_varint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      uint8_t byte = *p++;
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) {
        *out = v;
        return true;
      }
    }
    return false;  // varint longer than 10 bytes: corrupt
  }

  bool get_zigzag(int64_t* out) {
    uint64_t raw = 0;
    if (!get_varint(&raw)) return false;
    *out = static_cast<int64_t>(raw >> 1) ^ -static_cast<int64_t>(raw & 1);
    return true;
  }

  // The next `len` bytes, in place.
  bool get_bytes(uint64_t len, std::string_view* out) {
    if (remaining() < len) return false;
    *out = std::string_view(reinterpret_cast<const char*>(p),
                            static_cast<std::size_t>(len));
    p += len;
    return true;
  }

  // Varint-length-prefixed string of at most 1 MiB (WAL records).
  bool get_str(std::string* out) {
    uint64_t len = 0;
    std::string_view text;
    if (!get_varint(&len) || len > (1u << 20) || !get_bytes(len, &text))
      return false;
    out->assign(text);
    return true;
  }
};

}  // namespace ceems::common::codec
