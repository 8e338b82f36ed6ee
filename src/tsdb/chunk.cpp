#include "tsdb/chunk.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace ceems::tsdb {

namespace {

// Counts every GorillaChunk::decode() call process-wide. Relaxed: readers
// only ever diff the counter around a quiesced section.
std::atomic<uint64_t> g_chunk_decodes{0};

}  // namespace

uint64_t chunk_decode_count() {
  return g_chunk_decodes.load(std::memory_order_relaxed);
}

namespace {

// MSB-first bit stream writer.
class BitWriter {
 public:
  void write_bit(uint32_t bit) {
    if (used_ == 0) {
      bytes_.push_back(0);
      used_ = 8;
    }
    --used_;
    if (bit) bytes_.back() |= static_cast<uint8_t>(1u << used_);
  }

  // Writes the low `count` bits of `value`, most significant first.
  void write_bits(uint64_t value, uint32_t count) {
    for (uint32_t i = count; i > 0; --i) {
      write_bit(static_cast<uint32_t>((value >> (i - 1)) & 1u));
    }
  }

  std::vector<uint8_t> take() { return std::move(bytes_); }

  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

 private:
  std::vector<uint8_t> bytes_;
  uint32_t used_ = 0;  // free bits remaining in bytes_.back()
};

// Bounds-checked MSB-first reader; read past the end flags an error
// instead of fabricating bits, which is what turns a truncated snapshot
// into a clean decode failure.
class BitReader {
 public:
  explicit BitReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  uint32_t read_bit() {
    if (pos_ >= bytes_.size() * 8) {
      failed_ = true;
      return 0;
    }
    uint8_t byte = bytes_[pos_ >> 3];
    uint32_t bit = (byte >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return bit;
  }

  uint64_t read_bits(uint32_t count) {
    uint64_t value = 0;
    for (uint32_t i = 0; i < count; ++i) {
      value = (value << 1) | read_bit();
    }
    return value;
  }

  bool failed() const { return failed_; }

 private:
  const std::vector<uint8_t>& bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

uint64_t zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t unzigzag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

uint64_t double_bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

int clz64(uint64_t v) { return v ? __builtin_clzll(v) : 64; }
int ctz64(uint64_t v) { return v ? __builtin_ctzll(v) : 64; }

// Delta-of-delta bucket coding (Gorilla §4.1.1, widened: the final bucket
// carries a full 64-bit zigzag delta so arbitrary ms timestamps survive):
//   '0'                  dod == 0
//   '10'  + 7-bit zz     |zz| fits 7 bits
//   '110' + 14-bit zz    fits 14 bits
//   '1110'+ 20-bit zz    fits 20 bits
//   '1111'+ 64-bit zz    anything else
void write_dod(BitWriter& w, int64_t dod) {
  uint64_t zz = zigzag(dod);
  if (dod == 0) {
    w.write_bit(0);
  } else if (zz < (1u << 7)) {
    w.write_bits(0b10, 2);
    w.write_bits(zz, 7);
  } else if (zz < (1u << 14)) {
    w.write_bits(0b110, 3);
    w.write_bits(zz, 14);
  } else if (zz < (1u << 20)) {
    w.write_bits(0b1110, 4);
    w.write_bits(zz, 20);
  } else {
    w.write_bits(0b1111, 4);
    w.write_bits(zz, 64);
  }
}

int64_t read_dod(BitReader& r) {
  if (r.read_bit() == 0) return 0;
  if (r.read_bit() == 0) return unzigzag(r.read_bits(7));
  if (r.read_bit() == 0) return unzigzag(r.read_bits(14));
  if (r.read_bit() == 0) return unzigzag(r.read_bits(20));
  return unzigzag(r.read_bits(64));
}

// XOR value coding (Gorilla §4.1.2):
//   '0'            value == previous
//   '10' + bits    xor fits the previous leading/length window
//   '11' + 5-bit leading + 6-bit (length-1) + bits   new window
struct XorState {
  uint64_t prev = 0;
  int leading = -1;  // <0: no window established yet
  int length = 0;
};

void write_value(BitWriter& w, XorState& st, double v) {
  uint64_t bits = double_bits(v);
  uint64_t x = bits ^ st.prev;
  st.prev = bits;
  if (x == 0) {
    w.write_bit(0);
    return;
  }
  int lead = clz64(x);
  if (lead > 31) lead = 31;  // 5-bit field
  int trail = ctz64(x);
  int length = 64 - lead - trail;
  if (st.leading >= 0 && lead >= st.leading &&
      64 - lead - length >= 64 - st.leading - st.length) {
    // Fits the established window: reuse it.
    w.write_bits(0b10, 2);
    w.write_bits(x >> (64 - st.leading - st.length), st.length);
  } else {
    w.write_bits(0b11, 2);
    w.write_bits(static_cast<uint64_t>(lead), 5);
    w.write_bits(static_cast<uint64_t>(length - 1), 6);
    w.write_bits(x >> trail, static_cast<uint32_t>(length));
    st.leading = lead;
    st.length = length;
  }
}

bool read_value(BitReader& r, XorState& st, double& out) {
  if (r.read_bit() == 0) {
    out = bits_double(st.prev);
    return !r.failed();
  }
  uint64_t x;
  if (r.read_bit() == 0) {
    if (st.leading < 0) return false;  // window reuse before any window
    x = r.read_bits(st.length) << (64 - st.leading - st.length);
  } else {
    st.leading = static_cast<int>(r.read_bits(5));
    st.length = static_cast<int>(r.read_bits(6)) + 1;
    if (st.leading + st.length > 64) return false;
    x = r.read_bits(st.length) << (64 - st.leading - st.length);
  }
  st.prev ^= x;
  out = bits_double(st.prev);
  return !r.failed();
}

}  // namespace

std::shared_ptr<const GorillaChunk> GorillaChunk::encode(
    const SamplePoint* samples, std::size_t count) {
  if (count == 0 || count > UINT32_MAX) return nullptr;
  BitWriter w;
  // One up-front buffer sized for a typical (≈3 bytes/sample) chunk keeps
  // the seal on the ingest hot path at a couple of allocations instead of
  // a realloc cascade; poorly-compressing data grows past it normally.
  w.reserve(16 + count * 3);
  XorState xs;
  // First sample: full 64-bit timestamp + full 64-bit value bits.
  w.write_bits(static_cast<uint64_t>(samples[0].t), 64);
  w.write_bits(double_bits(samples[0].v), 64);
  xs.prev = double_bits(samples[0].v);
  int64_t prev_t = samples[0].t;
  int64_t prev_delta = 0;
  for (std::size_t i = 1; i < count; ++i) {
    int64_t delta = samples[i].t - prev_t;
    write_dod(w, delta - prev_delta);
    prev_delta = delta;
    prev_t = samples[i].t;
    write_value(w, xs, samples[i].v);
  }
  return std::shared_ptr<const GorillaChunk>(
      new GorillaChunk(w.take(), static_cast<uint32_t>(count), samples[0].t,
                       samples[count - 1].t));
}

std::optional<std::vector<SamplePoint>> GorillaChunk::decode() const {
  g_chunk_decodes.fetch_add(1, std::memory_order_relaxed);
  if (count_ == 0) return std::nullopt;
  BitReader r(bytes_);
  XorState xs;
  std::vector<SamplePoint> out;
  out.reserve(count_);
  int64_t t = static_cast<int64_t>(r.read_bits(64));
  uint64_t vbits = r.read_bits(64);
  if (r.failed()) return std::nullopt;
  xs.prev = vbits;
  out.push_back({t, bits_double(vbits)});
  int64_t prev_delta = 0;
  for (uint32_t i = 1; i < count_; ++i) {
    int64_t dod = read_dod(r);
    prev_delta += dod;
    t += prev_delta;
    double v;
    if (!read_value(r, xs, v) || r.failed()) return std::nullopt;
    out.push_back({t, v});
  }
  return out;
}

std::shared_ptr<const GorillaChunk> GorillaChunk::from_parts(
    std::vector<uint8_t> bytes, uint32_t count, TimestampMs min_t,
    TimestampMs max_t) {
  if (count == 0) return nullptr;
  auto chunk = std::shared_ptr<const GorillaChunk>(
      new GorillaChunk(std::move(bytes), count, min_t, max_t));
  // Validate eagerly: the chunk must decode to exactly the advertised
  // sample run. Catches truncated byte streams and header/body mismatches.
  auto decoded = chunk->decode();
  if (!decoded || decoded->size() != count) return nullptr;
  if (decoded->front().t != min_t || decoded->back().t != max_t)
    return nullptr;
  for (std::size_t i = 1; i < decoded->size(); ++i) {
    if ((*decoded)[i].t <= (*decoded)[i - 1].t) return nullptr;
  }
  return chunk;
}

// ---------- aggregate chunks ----------

std::shared_ptr<const AggChunk> AggChunk::encode(const AggBucket* buckets,
                                                 std::size_t count) {
  if (count == 0 || count > UINT32_MAX) return nullptr;
  BitWriter w;
  // Six value columns, each XOR coded against its own predecessor. The
  // first write in each stream XORs against 0, which round-trips through
  // the generic window coding — no special first-value case needed.
  XorState sum_s, min_s, max_s, first_s, last_s, inc_s;
  // Bucket-end timestamps: first raw, then delta-of-delta. first_t/last_t
  // offsets from the bucket end and the sample count are themselves
  // delta coded — all three are constant under a regular cadence.
  w.write_bits(static_cast<uint64_t>(buckets[0].t), 64);
  int64_t prev_t = buckets[0].t;
  int64_t prev_delta = 0;
  int64_t prev_first_off = 0, prev_last_off = 0, prev_count = 0;
  int64_t prev_marker_off = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const AggBucket& b = buckets[i];
    if (i > 0) {
      int64_t delta = b.t - prev_t;
      write_dod(w, delta - prev_delta);
      prev_delta = delta;
      prev_t = b.t;
    }
    int64_t first_off = b.t - b.first_t;
    int64_t last_off = b.t - b.last_t;
    write_dod(w, first_off - prev_first_off);
    write_dod(w, last_off - prev_last_off);
    write_dod(w, static_cast<int64_t>(b.count) - prev_count);
    prev_first_off = first_off;
    prev_last_off = last_off;
    prev_count = static_cast<int64_t>(b.count);
    // Trailing staleness marker: one flag bit, offset delta-coded when set.
    if (b.marker_t != 0) {
      w.write_bit(1);
      int64_t marker_off = b.t - b.marker_t;
      write_dod(w, marker_off - prev_marker_off);
      prev_marker_off = marker_off;
    } else {
      w.write_bit(0);
    }
    write_value(w, sum_s, b.sum);
    write_value(w, min_s, b.min);
    write_value(w, max_s, b.max);
    write_value(w, first_s, b.first_v);
    write_value(w, last_s, b.last_v);
    write_value(w, inc_s, b.inc);
  }
  return std::shared_ptr<const AggChunk>(
      new AggChunk(w.take(), static_cast<uint32_t>(count), buckets[0].t,
                   buckets[count - 1].t));
}

std::optional<std::vector<AggBucket>> AggChunk::decode() const {
  g_chunk_decodes.fetch_add(1, std::memory_order_relaxed);
  if (count_ == 0) return std::nullopt;
  BitReader r(bytes_);
  XorState sum_s, min_s, max_s, first_s, last_s, inc_s;
  std::vector<AggBucket> out;
  out.reserve(count_);
  int64_t t = static_cast<int64_t>(r.read_bits(64));
  if (r.failed()) return std::nullopt;
  int64_t prev_delta = 0;
  int64_t prev_first_off = 0, prev_last_off = 0, prev_count = 0;
  int64_t prev_marker_off = 0;
  for (uint32_t i = 0; i < count_; ++i) {
    if (i > 0) {
      prev_delta += read_dod(r);
      t += prev_delta;
    }
    AggBucket b;
    b.t = t;
    prev_first_off += read_dod(r);
    prev_last_off += read_dod(r);
    prev_count += read_dod(r);
    if (prev_count < 0 || prev_count > UINT32_MAX) return std::nullopt;
    b.first_t = t - prev_first_off;
    b.last_t = t - prev_last_off;
    b.count = static_cast<uint32_t>(prev_count);
    if (r.read_bit()) {
      prev_marker_off += read_dod(r);
      b.marker_t = t - prev_marker_off;
    }
    if (!read_value(r, sum_s, b.sum) || !read_value(r, min_s, b.min) ||
        !read_value(r, max_s, b.max) || !read_value(r, first_s, b.first_v) ||
        !read_value(r, last_s, b.last_v) || !read_value(r, inc_s, b.inc) ||
        r.failed()) {
      return std::nullopt;
    }
    out.push_back(b);
  }
  return out;
}

bool AggChunkedSeries::append(const AggBucket& bucket) {
  if (total_ != 0 && bucket.t <= last_t_) return false;
  if (head_.size() >= kAggChunkBuckets) {
    if (auto chunk = AggChunk::encode(head_.data(), head_.size())) {
      sealed_.push_back(std::move(chunk));
      head_.clear();
    }
  }
  head_.push_back(bucket);
  last_t_ = bucket.t;
  ++total_;
  return true;
}

TimestampMs AggChunkedSeries::min_time() const {
  if (!sealed_.empty()) return sealed_.front()->min_time();
  if (!head_.empty()) return head_.front().t;
  return 0;
}

std::size_t AggChunkedSeries::approx_bytes() const {
  std::size_t bytes = 0;
  for (const auto& chunk : sealed_) {
    bytes += chunk->bytes().size() + sizeof(AggChunk);
  }
  bytes += head_.capacity() * sizeof(AggBucket);
  bytes += sealed_.capacity() * sizeof(AggChunkPtr);
  return bytes;
}

std::vector<AggBucket> AggChunkedSeries::buckets_between(
    TimestampMs min_end, TimestampMs max_end) const {
  std::vector<AggBucket> out;
  if (min_end > max_end) return out;
  for (const auto& chunk : sealed_) {
    if (chunk->max_time() < min_end || chunk->min_time() > max_end) continue;
    auto decoded = chunk->decode();
    if (!decoded) continue;
    if (chunk->min_time() >= min_end && chunk->max_time() <= max_end) {
      out.insert(out.end(), decoded->begin(), decoded->end());
      continue;
    }
    for (const auto& b : *decoded) {
      if (b.t >= min_end && b.t <= max_end) out.push_back(b);
    }
  }
  for (const auto& b : head_) {
    if (b.t >= min_end && b.t <= max_end) out.push_back(b);
  }
  return out;
}

std::size_t AggChunkedSeries::drop_before(TimestampMs cutoff) {
  std::size_t dropped = 0;
  std::vector<AggChunkPtr> kept;
  kept.reserve(sealed_.size());
  for (auto& chunk : sealed_) {
    if (chunk->max_time() < cutoff) {
      dropped += chunk->count();
      continue;
    }
    if (chunk->min_time() >= cutoff) {
      kept.push_back(std::move(chunk));
      continue;
    }
    auto decoded = chunk->decode();
    if (!decoded) {
      kept.push_back(std::move(chunk));
      continue;
    }
    std::vector<AggBucket> survivors;
    for (const auto& b : *decoded) {
      if (b.t >= cutoff) survivors.push_back(b);
    }
    dropped += decoded->size() - survivors.size();
    if (!survivors.empty()) {
      if (auto re = AggChunk::encode(survivors.data(), survivors.size()))
        kept.push_back(std::move(re));
    }
  }
  sealed_ = std::move(kept);
  std::size_t head_kept = 0;
  for (const auto& b : head_) {
    if (b.t >= cutoff) head_[head_kept++] = b;
  }
  dropped += head_.size() - head_kept;
  head_.resize(head_kept);
  total_ -= dropped;
  if (total_ == 0) last_t_ = 0;
  return dropped;
}

std::size_t SeriesView::sample_count() const {
  std::size_t n = 0;
  for (const auto& slice : slices) n += slice.count();
  return n;
}

std::vector<SamplePoint> SeriesView::samples() const {
  return decode_slices(slices);
}

std::vector<SamplePoint> decode_slices(const std::vector<ChunkSlice>& slices) {
  std::vector<SamplePoint> out;
  std::size_t total = 0;
  for (const auto& slice : slices) total += slice.count();
  out.reserve(total);
  for (const auto& slice : slices) {
    if (slice.chunk) {
      auto decoded = slice.chunk->decode();
      // Sealed chunks were validated at encode/restore time; decode cannot
      // fail here, but stay defensive rather than crash on a logic bug.
      if (decoded) out.insert(out.end(), decoded->begin(), decoded->end());
    } else {
      out.insert(out.end(), slice.points.begin(), slice.points.end());
    }
  }
  return out;
}

const std::vector<SamplePoint>& DecodedChunkCache::decode(
    const ChunkPtr& chunk) {
  auto it = decoded_.find(chunk.get());
  if (it != decoded_.end()) return it->second;
  auto samples = chunk->decode();
  // Sealed chunks are validated at encode/restore time; a failed decode
  // here is a logic bug — degrade to an empty run rather than crash.
  return decoded_
      .emplace(chunk.get(),
               samples ? std::move(*samples) : std::vector<SamplePoint>{})
      .first->second;
}

void DecodedChunkCache::adopt(const ChunkPtr& chunk,
                              std::vector<SamplePoint> samples) {
  decoded_.emplace(chunk.get(), std::move(samples));
}

std::vector<SamplePoint> SeriesView::samples(DecodedChunkCache& cache) const {
  std::vector<SamplePoint> out;
  out.reserve(sample_count());
  for (const auto& slice : slices) {
    if (slice.chunk) {
      const auto& decoded = cache.decode(slice.chunk);
      out.insert(out.end(), decoded.begin(), decoded.end());
    } else {
      out.insert(out.end(), slice.points.begin(), slice.points.end());
    }
  }
  return out;
}

SeriesView SeriesView::owned(metrics::InternedLabels labels,
                             std::vector<SamplePoint> samples) {
  SeriesView view{std::move(labels), {}};
  if (!samples.empty())
    view.slices.push_back(ChunkSlice{nullptr, std::move(samples)});
  return view;
}

AppendResult ChunkedSeries::append(TimestampMs t, double v) {
  if (total_ != 0) {
    if (t < last_t_) return AppendResult::kRejected;
    if (t == last_t_) {
      if (!head_.empty()) {
        // Common case: the newest sample is in the head (appends seal
        // only when a strictly newer sample arrives).
        head_.back().v = v;
        return AppendResult::kOverwrote;
      }
      // After adopt_sealed() the newest sample lives in the last sealed
      // chunk instead. Last-write-wins still holds: rewrite that chunk's
      // final sample and re-seal.
      if (sealed_.empty()) return AppendResult::kRejected;
      auto decoded = sealed_.back()->decode();
      if (!decoded || decoded->empty()) return AppendResult::kRejected;
      decoded->back().v = v;
      auto resealed = GorillaChunk::encode(decoded->data(), decoded->size());
      if (!resealed) return AppendResult::kRejected;
      sealed_.back() = std::move(resealed);
      return AppendResult::kOverwrote;
    }
  }
  if (head_.size() >= kChunkSamples) {
    if (auto chunk = GorillaChunk::encode(head_.data(), head_.size())) {
      sealed_.push_back(std::move(chunk));
      head_.clear();
    }
  }
  head_.push_back({t, v});
  last_t_ = t;
  ++total_;
  return AppendResult::kAppended;
}

TimestampMs ChunkedSeries::min_time() const {
  if (!sealed_.empty()) return sealed_.front()->min_time();
  if (!head_.empty()) return head_.front().t;
  return 0;
}

std::size_t ChunkedSeries::approx_bytes() const {
  std::size_t bytes = 0;
  for (const auto& chunk : sealed_) {
    bytes += chunk->bytes().size() + sizeof(GorillaChunk);
  }
  bytes += head_.capacity() * sizeof(SamplePoint);
  bytes += sealed_.capacity() * sizeof(ChunkPtr);
  return bytes;
}

std::vector<ChunkSlice> ChunkedSeries::slices_between(TimestampMs min_t,
                                                      TimestampMs max_t) const {
  std::vector<ChunkSlice> out;
  if (min_t > max_t) return out;
  for (const auto& chunk : sealed_) {
    if (chunk->max_time() < min_t || chunk->min_time() > max_t) continue;
    if (chunk->min_time() >= min_t && chunk->max_time() <= max_t) {
      out.push_back(ChunkSlice{chunk, {}});
      continue;
    }
    // Boundary chunk: decode and keep only in-range points, so the
    // caller's "view has zero samples" check means the same thing it
    // meant with raw vectors.
    auto decoded = chunk->decode();
    if (!decoded) continue;
    decoded->erase(std::remove_if(decoded->begin(), decoded->end(),
                                  [min_t, max_t](const SamplePoint& sp) {
                                    return sp.t < min_t || sp.t > max_t;
                                  }),
                   decoded->end());
    if (!decoded->empty()) {
      out.push_back(ChunkSlice{nullptr, std::move(*decoded)});
    }
  }
  // The head is time-ordered (append rejects older samples), so its
  // in-range points are one run, copied with a single allocation.
  auto lo = std::partition_point(
      head_.begin(), head_.end(),
      [min_t](const SamplePoint& sp) { return sp.t < min_t; });
  auto hi = std::partition_point(
      lo, head_.end(), [max_t](const SamplePoint& sp) { return sp.t <= max_t; });
  if (lo != hi) out.push_back(ChunkSlice{nullptr, {lo, hi}});
  return out;
}

std::optional<SamplePoint> ChunkedSeries::newest_between(
    TimestampMs min_t, TimestampMs max_t) const {
  if (total_ == 0 || min_t > max_t) return std::nullopt;
  // Every sealed sample is older than every head sample, so a head
  // sample at or before max_t is the answer or nothing is.
  auto head = std::partition_point(
      head_.begin(), head_.end(),
      [max_t](const SamplePoint& sample) { return sample.t <= max_t; });
  if (head != head_.begin()) {
    const SamplePoint& newest = *(head - 1);
    if (newest.t < min_t) return std::nullopt;
    return newest;
  }
  auto chunk = std::partition_point(
      sealed_.begin(), sealed_.end(),
      [max_t](const ChunkPtr& c) { return c->min_time() <= max_t; });
  if (chunk == sealed_.begin()) return std::nullopt;
  const GorillaChunk& newest_chunk = **(chunk - 1);
  if (newest_chunk.max_time() < min_t) return std::nullopt;
  auto decoded = newest_chunk.decode();
  if (!decoded) return std::nullopt;
  auto it = std::partition_point(
      decoded->begin(), decoded->end(),
      [max_t](const SamplePoint& sample) { return sample.t <= max_t; });
  if (it == decoded->begin() || (it - 1)->t < min_t) return std::nullopt;
  return *(it - 1);
}

std::size_t ChunkedSeries::count_since(TimestampMs since) const {
  if (total_ == 0 || last_t_ < since) return 0;
  std::size_t count = 0;
  auto chunk = std::partition_point(
      sealed_.begin(), sealed_.end(),
      [since](const ChunkPtr& c) { return c->max_time() < since; });
  for (; chunk != sealed_.end(); ++chunk) {
    if ((*chunk)->min_time() >= since) {
      count += (*chunk)->count();
      continue;
    }
    auto decoded = (*chunk)->decode();
    if (!decoded) continue;
    for (const auto& sample : *decoded) {
      if (sample.t >= since) ++count;
    }
  }
  auto head = std::partition_point(
      head_.begin(), head_.end(),
      [since](const SamplePoint& sample) { return sample.t < since; });
  return count + static_cast<std::size_t>(head_.end() - head);
}

std::size_t ChunkedSeries::drop_before(TimestampMs cutoff) {
  // The common retention pass: nothing this old, so nothing to rebuild.
  if (total_ == 0 || min_time() >= cutoff) return 0;
  std::size_t dropped = 0;
  std::vector<ChunkPtr> kept;
  kept.reserve(sealed_.size());
  for (auto& chunk : sealed_) {
    if (chunk->max_time() < cutoff) {
      dropped += chunk->count();
      continue;
    }
    if (chunk->min_time() >= cutoff) {
      kept.push_back(std::move(chunk));
      continue;
    }
    // Straddling chunk: re-encode only the surviving suffix.
    auto decoded = chunk->decode();
    if (!decoded) {
      kept.push_back(std::move(chunk));
      continue;
    }
    std::vector<SamplePoint> survivors;
    for (const auto& sp : *decoded) {
      if (sp.t >= cutoff) survivors.push_back(sp);
    }
    dropped += decoded->size() - survivors.size();
    if (!survivors.empty()) {
      if (auto re = GorillaChunk::encode(survivors.data(), survivors.size()))
        kept.push_back(std::move(re));
    }
  }
  sealed_ = std::move(kept);
  std::size_t head_kept = 0;
  for (const auto& sp : head_) {
    if (sp.t >= cutoff) head_[head_kept++] = sp;
  }
  dropped += head_.size() - head_kept;
  head_.resize(head_kept);
  total_ -= dropped;
  if (total_ == 0) last_t_ = 0;
  return dropped;
}

bool ChunkedSeries::adopt_sealed(ChunkPtr chunk) {
  if (!chunk) return false;
  if (total_ != 0 && chunk->min_time() <= last_t_) return false;
  if (!head_.empty()) {
    // Keep chunk order time-sorted: seal the current head first.
    if (auto sealed = GorillaChunk::encode(head_.data(), head_.size())) {
      sealed_.push_back(std::move(sealed));
      head_.clear();
    } else {
      return false;
    }
  }
  total_ += chunk->count();
  last_t_ = chunk->max_time();
  sealed_.push_back(std::move(chunk));
  return true;
}

}  // namespace ceems::tsdb
