// Gorilla-style compressed sample chunks — the Prometheus chunk encoding
// analogue. Timestamps are delta-of-delta coded (regular scrape intervals
// cost one bit per sample), values are XOR coded against their predecessor
// (flat or slowly-drifting gauges cost a bit or two). Both codings are
// bit-lossless: decode(encode(samples)) reproduces every int64 timestamp
// and every double bit pattern exactly, including NaN payloads and ±Inf —
// which is what lets the chunked store promise bit-identical query results
// against the old raw-vector representation.
//
// A ChunkedSeries is a run of immutable sealed chunks plus a small mutable
// head of raw samples. Appends go to the head; once the head reaches
// kChunkSamples and a strictly newer sample arrives, it is sealed into a
// compressed chunk. The newest sample therefore lives in the head —
// except right after adopt_sealed() (snapshot restore), when it sits in
// the last sealed chunk and a duplicate-timestamp rewrite re-seals that
// chunk instead of patching the head. Readers hand out
// shared_ptrs to sealed chunks: a SeriesView captured under the shard lock
// stays valid and immutable after the lock is released, and decoding
// happens lazily on the reader's thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "metrics/labels.h"

namespace ceems::tsdb {

using common::TimestampMs;

struct SamplePoint {
  TimestampMs t = 0;
  double v = 0;
};

// A fully-materialised time series: the exchange type at API boundaries
// (PromQL matrix values, range-query results, HTTP API rendering).
struct Series {
  metrics::Labels labels;
  std::vector<SamplePoint> samples;  // time-ordered
};

// One sealed, immutable compressed chunk.
class GorillaChunk {
 public:
  // Encodes `count` time-ordered samples. count must be >= 1.
  static std::shared_ptr<const GorillaChunk> encode(const SamplePoint* samples,
                                                    std::size_t count);
  // Reconstructs a chunk from serialized parts (snapshot restore). Returns
  // nullptr when the byte stream does not decode to exactly `count`
  // samples spanning [min_t, max_t] — a corrupt or truncated snapshot.
  static std::shared_ptr<const GorillaChunk> from_parts(
      std::vector<uint8_t> bytes, uint32_t count, TimestampMs min_t,
      TimestampMs max_t);

  // Decodes every sample. Returns nullopt on a malformed byte stream
  // (cannot happen for chunks built by encode()).
  std::optional<std::vector<SamplePoint>> decode() const;

  uint32_t count() const { return count_; }
  TimestampMs min_time() const { return min_t_; }
  TimestampMs max_time() const { return max_t_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  GorillaChunk(std::vector<uint8_t> bytes, uint32_t count, TimestampMs min_t,
               TimestampMs max_t)
      : bytes_(std::move(bytes)), count_(count), min_t_(min_t), max_t_(max_t) {}

  std::vector<uint8_t> bytes_;
  uint32_t count_;
  TimestampMs min_t_;
  TimestampMs max_t_;
};

using ChunkPtr = std::shared_ptr<const GorillaChunk>;

// Process-wide count of GorillaChunk::decode() calls. The streaming range
// evaluator promises each chunk overlapping a query decodes at most once;
// this counter is how tests and benchmarks observe that invariant.
uint64_t chunk_decode_count();

// Per-query cache of decoded chunks, keyed by chunk identity. One range
// query touches the same sealed chunk from many step windows (and possibly
// from several selectors); routing every decode through this cache bounds
// the work at one decode per chunk per query. Not thread-safe: fill it
// serially (or adopt() pre-decoded chunks produced in parallel) before any
// concurrent readers run.
class DecodedChunkCache {
 public:
  // Returns the decoded samples for `chunk`, decoding on first access. The
  // reference stays valid for the cache's lifetime (clear() invalidates).
  const std::vector<SamplePoint>& decode(const ChunkPtr& chunk);
  // Stores an externally-decoded chunk (parallel prefill).
  void adopt(const ChunkPtr& chunk, std::vector<SamplePoint> samples);
  bool contains(const GorillaChunk* chunk) const {
    return decoded_.count(chunk) != 0;
  }
  std::size_t size() const { return decoded_.size(); }
  void clear() { decoded_.clear(); }

 private:
  std::unordered_map<const GorillaChunk*, std::vector<SamplePoint>> decoded_;
};

// One time-ordered segment of a series view: either a whole sealed chunk
// (kept compressed, decoded lazily) or an owned run of raw points (head
// samples, or the in-range part of a chunk that straddles the range
// boundary).
struct ChunkSlice {
  ChunkPtr chunk;                   // set: every sample is in range
  std::vector<SamplePoint> points;  // otherwise: pre-filtered raw points

  std::size_t count() const { return chunk ? chunk->count() : points.size(); }
  // Time bounds without decoding (0 when the slice is empty; slices built
  // by slices_between are never empty).
  TimestampMs min_time() const {
    return chunk ? chunk->min_time() : (points.empty() ? 0 : points.front().t);
  }
  TimestampMs max_time() const {
    return chunk ? chunk->max_time() : (points.empty() ? 0 : points.back().t);
  }
};

// A chunk-backed view of one series over a time range, as returned by
// Queryable::select(). Copying a view is cheap (label handle + chunk
// refcounts); samples() decodes. Materialise only at the point the full
// sample vector is actually consumed.
struct SeriesView {
  metrics::Labels labels;
  std::vector<ChunkSlice> slices;

  // Exact number of samples in range, without decoding.
  std::size_t sample_count() const;
  // Decodes and concatenates every slice (time-ordered).
  std::vector<SamplePoint> samples() const;
  // Same, but chunk-backed slices decode through `cache` — at most one
  // decode per chunk across every view sharing the cache.
  std::vector<SamplePoint> samples(DecodedChunkCache& cache) const;
  // Last sample in range; decodes at most one chunk.
  std::optional<SamplePoint> last() const;
  Series materialize() const { return {labels, samples()}; }

  // Wraps already-materialised samples (merged/derived series).
  static SeriesView owned(metrics::Labels labels,
                          std::vector<SamplePoint> samples);
};

// Samples-per-chunk seal threshold; 120 matches Prometheus (one chunk per
// hour at a 30s scrape interval).
inline constexpr std::size_t kChunkSamples = 120;

// ---------- multi-resolution aggregate chunks ----------
//
// The Thanos-compactor analogue: pre-aggregated per-bucket columns so
// long-range window queries fold a handful of buckets instead of decoding
// every raw sample. `t` is the bucket END boundary; the bucket covers raw
// samples with timestamps in (t - resolution, t] — left-open exactly like
// PromQL range selectors, so a window aligned to bucket boundaries tiles a
// whole number of buckets. The aggregate columns are computed over the
// bucket's samples with staleness markers filtered out (they feed
// range-function windows, which never see markers); a trailing marker is
// remembered separately in `marker_t` so the last-per-bucket history the
// long-term store synthesises for legacy readers keeps hiding resolved
// series, exactly like the raw tail would.
//
// The column set is what the exactness proofs in DESIGN.md §10 need:
// count/sum/min/max answer the *_over_time family, first/last values and
// timestamps anchor window boundaries and the rate extrapolation, and
// `inc` (the positive-delta fold within the bucket, i.e. Thanos' counter
// aggregate) stitches reset-aware increase/rate across bucket boundaries.
struct AggBucket {
  TimestampMs t = 0;        // bucket end boundary
  uint32_t count = 0;       // non-marker samples aggregated (NaN included)
  double sum = 0;           // left-fold of sample values in time order
  double min = 0;           // min over non-NaN samples (NaN if none)
  double max = 0;           // max over non-NaN samples (NaN if none)
  double first_v = 0;       // first sample value in the bucket
  double last_v = 0;        // last sample value in the bucket
  double inc = 0;           // counter increase within the bucket
  TimestampMs first_t = 0;  // timestamp of the first sample
  TimestampMs last_t = 0;   // timestamp of the last sample
  // When the bucket's chronologically last sample (markers included) is a
  // staleness marker, its timestamp; 0 otherwise. count == 0 with a set
  // marker_t means the bucket held only markers.
  TimestampMs marker_t = 0;
};

// One sealed, immutable compressed run of aggregate buckets. Bucket-end
// timestamps are delta-of-delta coded like raw chunk timestamps;
// first_t/last_t ride as deltas of their offset from the bucket end (zero
// bits per bucket under a regular scrape cadence); the six value columns
// are XOR coded, each against its own predecessor, so slowly-varying
// aggregates cost a few bits per bucket. Bit-lossless, like GorillaChunk.
class AggChunk {
 public:
  // Encodes `count` time-ordered buckets (strictly increasing t, count>=1).
  static std::shared_ptr<const AggChunk> encode(const AggBucket* buckets,
                                                std::size_t count);

  // Decodes every bucket. Returns nullopt on a malformed byte stream
  // (cannot happen for chunks built by encode()).
  std::optional<std::vector<AggBucket>> decode() const;

  uint32_t count() const { return count_; }
  TimestampMs min_time() const { return min_t_; }  // first bucket end
  TimestampMs max_time() const { return max_t_; }  // last bucket end
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  AggChunk(std::vector<uint8_t> bytes, uint32_t count, TimestampMs min_t,
           TimestampMs max_t)
      : bytes_(std::move(bytes)), count_(count), min_t_(min_t), max_t_(max_t) {}

  std::vector<uint8_t> bytes_;
  uint32_t count_;
  TimestampMs min_t_;
  TimestampMs max_t_;
};

using AggChunkPtr = std::shared_ptr<const AggChunk>;

// A materialised aggregate view of one series at one resolution level, as
// returned by Queryable::select_agg(). Buckets are time-ordered and the
// view is only handed out when the level covers the requested span exactly,
// so an absent bucket means "no raw samples in that bucket".
struct AggSeriesView {
  metrics::Labels labels;
  std::vector<AggBucket> buckets;
};

// Buckets-per-chunk seal threshold. 120 five-minute buckets = 10 h per
// sealed aggregate chunk.
inline constexpr std::size_t kAggChunkBuckets = 120;

// Floor division (round toward -inf), so bucket boundaries are stable
// across t = 0 — C++ integer division truncates toward zero instead.
constexpr int64_t floor_div(int64_t a, int64_t b) {
  return a / b - ((a % b != 0 && (a < 0) != (b < 0)) ? 1 : 0);
}

// Non-negative remainder of a modulo b (b > 0) — the planner's alignment
// checks must treat negative timestamps consistently with floor_div.
constexpr int64_t floor_mod(int64_t a, int64_t b) {
  return a - floor_div(a, b) * b;
}

// End boundary of the bucket containing sample timestamp t at the given
// resolution: the smallest multiple of resolution_ms that is >= t (buckets
// are left-open, so a sample exactly on a boundary belongs to the bucket
// ending there).
constexpr TimestampMs agg_bucket_end(TimestampMs t, int64_t resolution_ms) {
  return floor_div(t - 1, resolution_ms) * resolution_ms + resolution_ms;
}

// Sealed aggregate chunks plus a small mutable head of buckets — the same
// surface shape as ChunkedSeries, at bucket granularity. Appends must carry
// strictly increasing bucket-end timestamps (compaction only ever emits
// complete buckets in time order).
class AggChunkedSeries {
 public:
  // Rejects (returns false) buckets not strictly newer than the last one.
  bool append(const AggBucket& bucket);

  std::size_t num_buckets() const { return total_; }
  bool empty() const { return total_ == 0; }
  TimestampMs min_time() const;
  TimestampMs max_time() const { return last_t_; }

  // Sealed chunk bytes + head capacity, for StorageStats accounting.
  std::size_t approx_bytes() const;

  // Materialised buckets with end timestamps in [min_end, max_end].
  // Straddling chunks decode and filter; fully-covered chunks decode once.
  std::vector<AggBucket> buckets_between(TimestampMs min_end,
                                         TimestampMs max_end) const;

  // Drops buckets with end < cutoff; returns how many were dropped. A
  // chunk straddling the cutoff is decoded, filtered and re-sealed.
  std::size_t drop_before(TimestampMs cutoff);

  const std::vector<AggChunkPtr>& sealed() const { return sealed_; }
  const std::vector<AggBucket>& head() const { return head_; }

 private:
  std::vector<AggChunkPtr> sealed_;
  std::vector<AggBucket> head_;
  TimestampMs last_t_ = 0;
  std::size_t total_ = 0;
};

enum class AppendResult { kRejected, kAppended, kOverwrote };

class ChunkedSeries {
 public:
  // Ordering rules match the old raw-vector store: a timestamp older than
  // the newest sample is rejected, an equal timestamp overwrites the
  // newest sample's value (last write wins), a newer one is appended.
  AppendResult append(TimestampMs t, double v);

  std::size_t num_samples() const { return total_; }
  bool empty() const { return total_ == 0; }
  TimestampMs min_time() const;
  TimestampMs max_time() const { return last_t_; }

  // Sealed chunk bytes + head capacity: the real storage footprint this
  // series contributes to StorageStats::approx_bytes.
  std::size_t approx_bytes() const;

  // Chunk-backed slices covering [min_t, max_t]; boundary chunks are
  // decoded and filtered eagerly (so a view with sample_count() == 0 means
  // "no samples in range" exactly). Fully-covered chunks stay compressed.
  std::vector<ChunkSlice> slices_between(TimestampMs min_t,
                                         TimestampMs max_t) const;
  // Number of samples with t >= since. Only a sealed chunk straddling
  // `since` is decoded; newer chunks count by their header.
  std::size_t count_since(TimestampMs since) const;

  // Drops samples with t < cutoff; returns how many were dropped. A chunk
  // straddling the cutoff is decoded, filtered and re-sealed.
  std::size_t drop_before(TimestampMs cutoff);

  const std::vector<ChunkPtr>& sealed() const { return sealed_; }
  const std::vector<SamplePoint>& head() const { return head_; }

  // Snapshot-restore fast path: adopts a sealed chunk wholesale. Only
  // valid when the chunk is strictly newer than everything stored so far.
  bool adopt_sealed(ChunkPtr chunk);

 private:
  std::vector<ChunkPtr> sealed_;
  std::vector<SamplePoint> head_;
  TimestampMs last_t_ = 0;
  std::size_t total_ = 0;
};

}  // namespace ceems::tsdb
