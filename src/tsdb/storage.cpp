#include "tsdb/storage.h"

#include <algorithm>
#include <mutex>

#include "common/byte_codec.h"
#include "tsdb/selector.h"
#include "tsdb/wal.h"

namespace ceems::tsdb {

namespace codec = common::codec;
using metrics::SymbolTable;

const TimeSeriesStore::StoredSeries* TimeSeriesStore::find_series_locked(
    const Shard& shard, const InternedLabels& labels) {
  if (shard.buckets.empty()) return nullptr;
  for (SeriesId id =
           shard.buckets[bucket_of(labels.fingerprint(), shard.buckets.size())];
       id != kNoSeries; id = shard.slots[id].next_in_bucket) {
    const StoredSeries& stored = shard.slots[id];
    // Fingerprints collide; trust only full label equality (a cheap
    // symbol-vector compare, no strings involved).
    if (stored.ilabels == labels) return &stored;
  }
  return nullptr;
}

TimeSeriesStore::StoredSeries& TimeSeriesStore::get_or_create_locked(
    Shard& shard, const InternedLabels& labels) {
  if (const StoredSeries* found = find_series_locked(shard, labels)) {
    return const_cast<StoredSeries&>(*found);
  }
  SeriesId id;
  if (!shard.free_slots.empty()) {
    id = shard.free_slots.back();
    shard.free_slots.pop_back();
  } else {
    id = static_cast<SeriesId>(shard.slots.size());
    shard.slots.emplace_back();
  }
  StoredSeries& stored = shard.slots[id];
  stored.ilabels = labels;
  stored.live = true;
  if (shard.num_series() > shard.buckets.size()) {
    // Double the buckets and relink every live series, this one included.
    shard.buckets.assign(std::max<std::size_t>(4, 2 * shard.buckets.size()),
                         kNoSeries);
    for (SeriesId i = 0; i < shard.slots.size(); ++i) {
      StoredSeries& series = shard.slots[i];
      if (!series.live) continue;
      SeriesId& head = shard.buckets[bucket_of(series.ilabels.fingerprint(),
                                               shard.buckets.size())];
      series.next_in_bucket = head;
      head = i;
    }
  } else {
    SeriesId& head =
        shard.buckets[bucket_of(labels.fingerprint(), shard.buckets.size())];
    stored.next_in_bucket = head;
    head = id;
  }
  for (const auto& [name_sym, value_sym] : labels.pairs()) {
    shard.index.insert(PostingIndex::key(name_sym, value_sym), id);
  }
  return stored;
}

void TimeSeriesStore::erase_series_locked(Shard& shard,
                                          const std::vector<SeriesId>& ids) {
  if (ids.empty()) return;
  std::vector<uint64_t> keys;
  for (SeriesId id : ids) {
    StoredSeries& stored = shard.slots[id];
    SeriesId* link = &shard.buckets[bucket_of(stored.ilabels.fingerprint(),
                                              shard.buckets.size())];
    while (*link != id) link = &shard.slots[*link].next_in_bucket;
    *link = stored.next_in_bucket;
    stored.next_in_bucket = kNoSeries;
    stored.live = false;
    for (const auto& [name_sym, value_sym] : stored.ilabels.pairs()) {
      keys.push_back(PostingIndex::key(name_sym, value_sym));
    }
  }
  // Postings hold live ids only, so every id a touched list still names
  // that is no longer live is one of `ids`: one compaction per list.
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (uint64_t key : keys) {
    shard.index.erase_if(
        key, [&shard](SeriesId id) { return !shard.slots[id].live; });
  }
  // No posting names these ids any more: their slots may be reused.
  for (SeriesId id : ids) {
    StoredSeries& stored = shard.slots[id];
    stored.ilabels = InternedLabels();
    stored.data = ChunkedSeries();
    shard.free_slots.push_back(id);
  }
}

bool TimeSeriesStore::append_locked(Shard& shard, const InternedLabels& labels,
                                    TimestampMs t, double v) {
  StoredSeries& stored = get_or_create_locked(shard, labels);
  switch (stored.data.append(t, v)) {
    case AppendResult::kRejected:
      return false;  // out-of-order; Prometheus rejects these too
    case AppendResult::kOverwrote:
      return true;  // duplicate timestamp: last write wins, no new sample
    case AppendResult::kAppended:
      ++shard.num_samples;
      return true;
  }
  return false;
}

void TimeSeriesStore::set_wal(std::shared_ptr<Wal> wal) {
  wal_owner_ = std::move(wal);
  wal_.store(wal_owner_.get(), std::memory_order_release);
}

std::size_t TimeSeriesStore::append_refs(const metrics::SampleRef* samples,
                                         std::size_t count) {
  std::shared_lock gate(watermark_gate_);
  // Out-of-bounds samples are filtered before the log sees the batch, so
  // replay (which skips this check) never resurrects one. The batch is
  // copied only when something is actually out of bounds.
  const TimestampMs watermark = watermark_.load(std::memory_order_relaxed);
  std::size_t in = 0;
  while (in < count && samples[in].timestamp_ms > watermark) ++in;
  if (in < count) {
    thread_local std::vector<metrics::SampleRef> in_bounds;
    in_bounds.assign(samples, samples + in);
    for (std::size_t i = in + 1; i < count; ++i) {
      if (samples[i].timestamp_ms > watermark) {
        in_bounds.push_back(samples[i]);
      }
    }
    out_of_bounds_.fetch_add(count - in_bounds.size(),
                             std::memory_order_relaxed);
    samples = in_bounds.data();
    count = in_bounds.size();
  }
  if (count == 0) return 0;
  Wal::CommitGuard guard;
  if (Wal* wal = wal_.load(std::memory_order_acquire)) {
    // Durable before applied: the guard spans log→apply so a checkpoint
    // (which takes the barrier exclusively) always sees both or neither.
    // A batch the log could not make durable is not applied at all.
    guard = wal->commit_shared();
    if (!wal->log_batch(samples, count)) return 0;
  }
  return replay_refs(samples, count);
}

std::size_t TimeSeriesStore::replay_refs(const metrics::SampleRef* samples,
                                         std::size_t count) {
  // Bucket by shard first so each shard lock is acquired once per batch.
  // Sample labels arrive interned, so this reads the precomputed
  // fingerprint instead of hashing label strings. Buckets are
  // thread-local so their capacity persists across batches.
  thread_local std::array<std::vector<const metrics::SampleRef*>,
                          kShardCount>
      buckets;
  for (auto& bucket : buckets) bucket.clear();
  for (std::size_t i = 0; i < count; ++i) {
    buckets[shard_of(samples[i].labels->fingerprint())].push_back(
        &samples[i]);
  }
  std::size_t accepted = 0;
  for (std::size_t s = 0; s < kShardCount; ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = shards_[s];
    std::unique_lock lock(shard.mu);
    for (const metrics::SampleRef* sample : buckets[s]) {
      if (append_locked(shard, *sample->labels, sample->timestamp_ms,
                        sample->value)) {
        ++accepted;
      }
    }
  }
  return accepted;
}

template <typename Fn>
void TimeSeriesStore::for_each_match(const Shard& shard,
                                     const Selector& selector, Fn&& fn) {
  // Walk only the smallest posting list among the non-empty equality
  // terms, in place, and check the remaining terms by symbol id. A term
  // with no posting in this shard matches nothing here.
  std::span<const SeriesId> posting;
  std::size_t posting_term = Selector::kNoTerm;
  for (std::size_t i = 0; i < selector.size(); ++i) {
    auto pair = selector.posting(i);
    if (!pair) continue;
    auto ids = shard.index.find(PostingIndex::key(pair->first, pair->second));
    if (ids.empty()) return;
    if (posting_term == Selector::kNoTerm || ids.size() < posting.size()) {
      posting = ids;
      posting_term = i;
    }
  }
  if (posting_term != Selector::kNoTerm) {
    for (SeriesId id : posting) {
      if (selector.matches(shard.slots[id].ilabels, posting_term)) fn(id);
    }
  } else {
    for (SeriesId id = 0; id < shard.slots.size(); ++id) {
      const StoredSeries& stored = shard.slots[id];
      if (stored.live && selector.matches(stored.ilabels)) fn(id);
    }
  }
}

std::vector<SeriesView> TimeSeriesStore::select(
    const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
    TimestampMs max_t) const {
  std::vector<SeriesView> out;
  Selector selector(matchers);
  if (!selector.satisfiable()) return out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for_each_match(shard, selector, [&](SeriesId id) {
      const StoredSeries& stored = shard.slots[id];
      // Boundary chunks are decoded under the lock so emptiness is exact;
      // fully-covered chunks ride along compressed and refcounted.
      auto slices = stored.data.slices_between(min_t, max_t);
      if (!slices.empty()) {
        out.push_back(SeriesView{stored.ilabels, std::move(slices)});
      }
    });
  }
  // Deterministic output order: string-label order, compared on symbols.
  std::sort(out.begin(), out.end(),
            [](const SeriesView& a, const SeriesView& b) {
              return a.labels < b.labels;
            });
  return out;
}

std::vector<TimeSeriesStore::InternedSlices> TimeSeriesStore::select_interned(
    TimestampMs min_t, TimestampMs max_t) const {
  std::vector<InternedSlices> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const StoredSeries& stored : shard.slots) {
      if (!stored.live) continue;
      auto slices = stored.data.slices_between(min_t, max_t);
      if (slices.empty()) continue;
      out.push_back({stored.ilabels, std::move(slices)});
    }
  }
  return out;
}

std::size_t TimeSeriesStore::purge_before(TimestampMs cutoff) {
  Wal::CommitGuard guard;
  if (Wal* wal = wal_.load(std::memory_order_acquire)) {
    guard = wal->commit_shared();
    if (!wal->log_purge(cutoff)) return 0;
  }
  std::size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    std::size_t shard_dropped = 0;
    std::vector<SeriesId> emptied;
    for (SeriesId id = 0; id < shard.slots.size(); ++id) {
      StoredSeries& stored = shard.slots[id];
      if (!stored.live) continue;
      shard_dropped += stored.data.drop_before(cutoff);
      if (stored.data.empty()) emptied.push_back(id);
    }
    erase_series_locked(shard, emptied);
    shard.num_samples -= shard_dropped;
    dropped += shard_dropped;
  }
  return dropped;
}

std::size_t TimeSeriesStore::delete_series(
    const std::vector<LabelMatcher>& matchers) {
  Wal::CommitGuard guard;
  if (Wal* wal = wal_.load(std::memory_order_acquire)) {
    guard = wal->commit_shared();
    if (!wal->log_delete(matchers)) return 0;
  }
  std::size_t deleted = 0;
  Selector selector(matchers);
  if (!selector.satisfiable()) return deleted;
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    std::vector<SeriesId> ids;
    for_each_match(shard, selector, [&ids](SeriesId id) { ids.push_back(id); });
    if (ids.empty()) continue;
    for (SeriesId id : ids) {
      shard.num_samples -= shard.slots[id].data.num_samples();
    }
    erase_series_locked(shard, ids);
    deleted += ids.size();
  }
  return deleted;
}

void TimeSeriesStore::clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    // Fresh vectors, not `= {}`, which would keep their capacity.
    shard.slots = std::vector<StoredSeries>();
    shard.free_slots = std::vector<SeriesId>();
    shard.buckets = std::vector<SeriesId>();
    shard.index.clear();
    shard.num_samples = 0;
  }
}

StorageStats TimeSeriesStore::stats() const {
  StorageStats stats;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    stats.num_series += shard.num_series();
    stats.num_samples += shard.num_samples;
    std::size_t bytes = shard.slots.capacity() * sizeof(StoredSeries) +
                        shard.free_slots.capacity() * sizeof(SeriesId) +
                        shard.buckets.capacity() * sizeof(SeriesId) +
                        shard.index.approx_bytes();
    for (const StoredSeries& stored : shard.slots) {
      if (!stored.live) continue;
      bytes += stored.data.approx_bytes() +
               stored.ilabels.pairs().capacity() *
                   sizeof(InternedLabels::SymbolPair);
    }
    stats.approx_bytes += bytes;
  }
  // Label strings live once in the process-wide symbol table, shared by
  // every store in the process: keep them out of approx_bytes (which
  // callers sum across stores) and report them in their own field.
  stats.symbol_bytes = SymbolTable::global().approx_bytes();
  stats.out_of_bounds = out_of_bounds_.load(std::memory_order_relaxed);
  return stats;
}

std::optional<TimestampMs> TimeSeriesStore::max_time() const {
  std::optional<TimestampMs> max_t;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const StoredSeries& stored : shard.slots) {
      if (!stored.live || stored.data.empty()) continue;
      if (!max_t || stored.data.max_time() > *max_t)
        max_t = stored.data.max_time();
    }
  }
  return max_t;
}

TimeSeriesStore::SinceCount TimeSeriesStore::advance_watermark(
    TimestampMs since) {
  std::unique_lock gate(watermark_gate_);
  SinceCount out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const StoredSeries& stored : shard.slots) {
      if (!stored.live) continue;
      std::size_t fresh = stored.data.count_since(since);
      if (fresh == 0) continue;
      out.samples += fresh;
      out.newest = std::max(out.newest, stored.data.max_time());
    }
  }
  if (out.newest > watermark_.load(std::memory_order_relaxed)) {
    watermark_.store(out.newest, std::memory_order_release);
  }
  return out;
}

namespace {

constexpr std::string_view kSnapshotMagic = "CEEMSTSDB2";

// Snapshot strings carry a u64 length (WAL records use a varint).
void put_string(std::string& out, std::string_view text) {
  codec::put_u64(out, text.size());
  out.append(text);
}

bool get_string(codec::Reader& in, std::string_view* text) {
  uint64_t size = 0;
  return in.get_u64(&size) && size <= (1u << 20) && in.get_bytes(size, text);
}

// Reads one label set; false on malformed input.
bool get_labels(codec::Reader& in, Labels& out) {
  uint64_t num_labels = 0;
  if (!in.get_u64(&num_labels) || num_labels > 256) return false;
  std::vector<Labels::Pair> pairs;
  pairs.reserve(num_labels);
  for (uint64_t l = 0; l < num_labels; ++l) {
    std::string_view name, value;
    if (!get_string(in, &name) || !get_string(in, &value)) return false;
    pairs.emplace_back(std::string(name), std::string(value));
  }
  out = Labels(std::move(pairs));
  return true;
}

}  // namespace

std::string TimeSeriesStore::snapshot_bytes() const {
  // Hold every shard lock (in index order, so concurrent snapshots cannot
  // deadlock) for a consistent cut across shards.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(kShardCount);
  std::size_t num_series = 0;
  for (const Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
    num_series += shard.num_series();
  }
  const SymbolTable& table = SymbolTable::global();
  std::string out(kSnapshotMagic);
  codec::put_u64(out, num_series);
  for (const Shard& shard : shards_) {
    for (const StoredSeries& stored : shard.slots) {
      if (!stored.live) continue;
      codec::put_u64(out, stored.ilabels.size());
      for (const auto& [name_sym, value_sym] : stored.ilabels.pairs()) {
        put_string(out, table.text(name_sym));
        put_string(out, table.text(value_sym));
      }
      codec::put_u64(out, stored.data.sealed().size());
      for (const ChunkPtr& chunk : stored.data.sealed()) {
        codec::put_u64(out, chunk->count());
        codec::put_u64(out, static_cast<uint64_t>(chunk->min_time()));
        codec::put_u64(out, static_cast<uint64_t>(chunk->max_time()));
        codec::put_u64(out, chunk->bytes().size());
        out.append(reinterpret_cast<const char*>(chunk->bytes().data()),
                   chunk->bytes().size());
      }
      codec::put_u64(out, stored.data.head().size());
      for (const auto& sample : stored.data.head()) {
        codec::put_u64(out, static_cast<uint64_t>(sample.t));
        codec::put_f64(out, sample.v);
      }
    }
  }
  return out;
}

std::optional<std::size_t> TimeSeriesStore::restore_from_bytes(
    std::string_view bytes) {
  codec::Reader in(bytes);
  std::string_view magic;
  if (!in.get_bytes(kSnapshotMagic.size(), &magic) || magic != kSnapshotMagic)
    return std::nullopt;

  // Stage 1: parse and validate the whole snapshot into scratch
  // structures. Nothing touches the shards until the snapshot is
  // known-good, so corrupt or truncated bytes can never leave a partial
  // restore applied. Counts are checked against the bytes left before
  // anything is reserved, so a corrupt count cannot allocate wildly.
  struct StagedSeries {
    Labels labels;
    std::vector<ChunkPtr> chunks;
    std::vector<SamplePoint> head;
  };
  std::vector<StagedSeries> staged;
  uint64_t num_series = 0;
  if (!in.get_u64(&num_series)) return std::nullopt;
  // A series takes at least its three u64 counts.
  staged.reserve(std::min<uint64_t>(num_series, in.remaining() / 24));
  for (uint64_t s = 0; s < num_series; ++s) {
    StagedSeries entry;
    if (!get_labels(in, entry.labels)) return std::nullopt;
    uint64_t num_sealed = 0;
    if (!in.get_u64(&num_sealed) || num_sealed > (1u << 24))
      return std::nullopt;
    // A sealed chunk takes at least its four u64 header fields.
    entry.chunks.reserve(std::min<uint64_t>(num_sealed, in.remaining() / 32));
    for (uint64_t c = 0; c < num_sealed; ++c) {
      uint64_t count = 0, min_t = 0, max_t = 0, nbytes = 0;
      if (!in.get_u64(&count) || !in.get_u64(&min_t) ||
          !in.get_u64(&max_t) || !in.get_u64(&nbytes)) {
        return std::nullopt;
      }
      // Sanity caps: a chunk never exceeds the seal threshold by much,
      // and its payload is bounded by ~17 bytes/sample worst case.
      if (count == 0 || count > (1u << 20) || nbytes > (1u << 26))
        return std::nullopt;
      std::string_view body;
      if (!in.get_bytes(nbytes, &body)) return std::nullopt;
      const auto* data = reinterpret_cast<const uint8_t*>(body.data());
      ChunkPtr chunk = GorillaChunk::from_parts(
          std::vector<uint8_t>(data, data + body.size()),
          static_cast<uint32_t>(count), static_cast<TimestampMs>(min_t),
          static_cast<TimestampMs>(max_t));
      if (!chunk) return std::nullopt;  // corrupt: header/body mismatch
      entry.chunks.push_back(std::move(chunk));
    }
    uint64_t num_head = 0;
    if (!in.get_u64(&num_head) || num_head > (1u << 24) ||
        num_head > in.remaining() / 16) {
      return std::nullopt;
    }
    entry.head.resize(num_head);
    for (SamplePoint& sample : entry.head) {
      uint64_t t = 0;
      if (!in.get_u64(&t) || !in.get_f64(&sample.v)) return std::nullopt;
      sample.t = static_cast<TimestampMs>(t);
    }
    staged.push_back(std::move(entry));
  }

  // Stage 2: commit. Only counted appends (kAppended) bump num_samples;
  // duplicates merging into existing data overwrite without counting.
  std::size_t restored = 0;
  for (StagedSeries& entry : staged) {
    // Intern once per series; every sample below reuses the fingerprint.
    InternedLabels interned(entry.labels);
    Shard& shard = shards_[shard_of(interned.fingerprint())];
    std::unique_lock lock(shard.mu);
    StoredSeries& stored = get_or_create_locked(shard, interned);
    std::size_t series_restored = 0;
    for (ChunkPtr& chunk : entry.chunks) {
      if (stored.data.adopt_sealed(chunk)) {
        // Empty-store fast path: the compressed chunk is adopted verbatim,
        // no re-encode.
        series_restored += chunk->count();
      } else {
        // Merging into existing data: replay samples individually. The
        // chunk was decode-validated by from_parts, so decode succeeds.
        auto decoded = chunk->decode();
        if (!decoded) continue;
        for (const auto& sp : *decoded) {
          if (stored.data.append(sp.t, sp.v) == AppendResult::kAppended)
            ++series_restored;
        }
      }
    }
    for (const auto& sp : entry.head) {
      if (stored.data.append(sp.t, sp.v) == AppendResult::kAppended)
        ++series_restored;
    }
    shard.num_samples += series_restored;
    restored += series_restored;
  }
  return restored;
}

}  // namespace ceems::tsdb
