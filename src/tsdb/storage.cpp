#include "tsdb/storage.h"

#include <algorithm>
#include <mutex>
#include <regex>

#include "common/byte_codec.h"
#include "metrics/regex_cache.h"
#include "tsdb/wal.h"

namespace ceems::tsdb {

namespace codec = common::codec;
using metrics::SymbolTable;

const TimeSeriesStore::StoredSeries* TimeSeriesStore::find_series_locked(
    const Shard& shard, const InternedLabels& labels) {
  auto chain_it = shard.by_fp.find(labels.fingerprint());
  if (chain_it == shard.by_fp.end()) return nullptr;
  for (uint64_t id : chain_it->second) {
    const StoredSeries& stored = shard.series.at(id);
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
  uint64_t id = shard.next_series_id++;
  auto [it, inserted] = shard.series.emplace(
      id, StoredSeries{labels, labels.to_labels(), ChunkedSeries{}});
  shard.by_fp[labels.fingerprint()].push_back(id);
  for (const auto& [name_sym, value_sym] : labels.pairs()) {
    shard.index[name_sym][value_sym].insert(id);
  }
  return it->second;
}

void TimeSeriesStore::erase_series_locked(Shard& shard, uint64_t id) {
  auto it = shard.series.find(id);
  if (it == shard.series.end()) return;
  for (const auto& [name_sym, value_sym] : it->second.ilabels.pairs()) {
    auto name_it = shard.index.find(name_sym);
    if (name_it == shard.index.end()) continue;
    auto value_it = name_it->second.find(value_sym);
    if (value_it != name_it->second.end()) value_it->second.erase(id);
  }
  auto chain_it = shard.by_fp.find(it->second.ilabels.fingerprint());
  if (chain_it != shard.by_fp.end()) {
    auto& chain = chain_it->second;
    chain.erase(std::remove(chain.begin(), chain.end(), id), chain.end());
    if (chain.empty()) shard.by_fp.erase(chain_it);
  }
  shard.series.erase(it);
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
    std::size_t shard_accepted = 0;
    for (const metrics::SampleRef* sample : buckets[s]) {
      if (append_locked(shard, *sample->labels, sample->timestamp_ms,
                        sample->value)) {
        ++shard_accepted;
      }
    }
    // One version bump per shard per batch is enough for cache
    // invalidation (entries compare signatures for equality).
    if (shard_accepted > 0)
      shard.version.fetch_add(1, std::memory_order_acq_rel);
    accepted += shard_accepted;
  }
  return accepted;
}

// A selector's matchers resolved against the symbol table once, so each
// candidate series is checked by comparing 32-bit ids, not strings. Label
// text is compared by symbol id, which is exact because interning is
// injective; an absent label reads as the empty string, as in PromQL.
class TimeSeriesStore::Selector {
 public:
  explicit Selector(const std::vector<LabelMatcher>& matchers) {
    SymbolTable& table = SymbolTable::global();
    terms_.reserve(matchers.size());
    for (const auto& matcher : matchers) {
      Term term;
      term.op = matcher.op;
      term.pattern = &matcher.value;
      term.name = table.find(matcher.name);
      term.value = table.find(matcher.value);
      term.value_empty = matcher.value.empty();
      if (matcher.op == LabelMatcher::Op::kEq && !term.value_empty &&
          (!term.name || !term.value)) {
        // A name or value never interned appears in no stored series.
        satisfiable_ = false;
      }
      terms_.push_back(std::move(term));
    }
  }

  bool satisfiable() const { return satisfiable_; }

  // Smallest posting list among the non-empty equality terms, with the
  // index of the term it came from. {nullptr, npos} when there is no such
  // term (scan every series); {empty, ...} when one has no posting in
  // this shard.
  std::pair<const std::set<uint64_t>*, std::size_t> smallest_posting(
      const Shard& shard) const {
    static const std::set<uint64_t> kNone;
    const std::set<uint64_t>* best = nullptr;
    std::size_t best_term = std::string::npos;
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const Term& term = terms_[i];
      if (term.op != LabelMatcher::Op::kEq || term.value_empty) continue;
      auto name_it = shard.index.find(*term.name);
      if (name_it == shard.index.end()) return {&kNone, i};
      auto value_it = name_it->second.find(*term.value);
      if (value_it == name_it->second.end() || value_it->second.empty())
        return {&kNone, i};
      if (!best || value_it->second.size() < best->size()) {
        best = &value_it->second;
        best_term = i;
      }
    }
    return {best, best_term};
  }

  // True when `labels` satisfies every term except `skip_term` (the one
  // whose posting list produced the candidate).
  bool matches(const InternedLabels& labels, std::size_t skip_term) const {
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      if (i != skip_term && !terms_[i].matches(labels)) return false;
    }
    return true;
  }

 private:
  struct Term {
    LabelMatcher::Op op = LabelMatcher::Op::kEq;
    std::optional<uint32_t> name;   // nullopt: no series has this label
    std::optional<uint32_t> value;  // nullopt: no series has this value
    bool value_empty = false;
    // Regex ops: the pattern (the caller's matcher outlives the Selector),
    // compiled on first use so a bad pattern throws only where the
    // per-series check used to, and the verdict per value symbol (kAbsent
    // for a missing label) — each distinct value is matched once per
    // call, not once per series.
    const std::string* pattern = nullptr;
    mutable std::shared_ptr<const std::regex> regex;
    mutable std::unordered_map<uint32_t, bool> regex_memo;

    static constexpr uint32_t kAbsent = UINT32_MAX;

    bool matches(const InternedLabels& labels) const {
      std::optional<uint32_t> actual;
      if (name) {
        for (const auto& [name_sym, value_sym] : labels.pairs()) {
          if (name_sym == *name) {
            actual = value_sym;
            break;
          }
        }
      }
      switch (op) {
        case LabelMatcher::Op::kEq:
          return equals(actual);
        case LabelMatcher::Op::kNe:
          return !equals(actual);
        case LabelMatcher::Op::kRegexMatch:
          return regex_matches(actual);
        case LabelMatcher::Op::kRegexNoMatch:
          return !regex_matches(actual);
      }
      return false;
    }

    bool equals(std::optional<uint32_t> actual) const {
      return actual ? value && *actual == *value : value_empty;
    }

    bool regex_matches(std::optional<uint32_t> actual) const {
      uint32_t key = actual ? *actual : kAbsent;
      auto it = regex_memo.find(key);
      if (it != regex_memo.end()) return it->second;
      if (!regex) regex = metrics::compiled_anchored_regex(*pattern);
      std::string text(actual ? SymbolTable::global().text(*actual)
                              : std::string_view{});
      bool match = std::regex_search(text, *regex);
      regex_memo.emplace(key, match);
      return match;
    }
  };

  std::vector<Term> terms_;
  bool satisfiable_ = true;
};

std::vector<uint64_t> TimeSeriesStore::match_ids(const Shard& shard,
                                                 const Selector& selector) {
  // Walk only the smallest equality posting list, in place, and check the
  // remaining terms by symbol id.
  std::vector<uint64_t> out;
  auto [posting, posting_term] = selector.smallest_posting(shard);
  if (posting) {
    for (uint64_t id : *posting) {
      auto it = shard.series.find(id);
      if (it != shard.series.end() &&
          selector.matches(it->second.ilabels, posting_term)) {
        out.push_back(id);
      }
    }
  } else {
    for (const auto& [id, stored] : shard.series) {
      if (selector.matches(stored.ilabels, std::string::npos))
        out.push_back(id);
    }
  }
  return out;
}

std::vector<SeriesView> TimeSeriesStore::select(
    const std::vector<LabelMatcher>& matchers, TimestampMs min_t,
    TimestampMs max_t) const {
  std::vector<SeriesView> out;
  Selector selector(matchers);
  if (!selector.satisfiable()) return out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (uint64_t id : match_ids(shard, selector)) {
      const StoredSeries& stored = shard.series.at(id);
      // Boundary chunks are decoded under the lock so emptiness is exact;
      // fully-covered chunks ride along compressed and refcounted.
      auto slices = stored.data.slices_between(min_t, max_t);
      if (slices.empty()) continue;
      out.push_back(SeriesView{stored.labels, std::move(slices)});
    }
  }
  // Deterministic output order.
  std::sort(out.begin(), out.end(),
            [](const SeriesView& a, const SeriesView& b) {
              return a.labels < b.labels;
            });
  return out;
}

std::vector<uint64_t> TimeSeriesStore::version_signature() const {
  std::vector<uint64_t> out;
  out.reserve(kShardCount);
  for (const Shard& shard : shards_) {
    out.push_back(shard.version.load(std::memory_order_acquire));
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
    std::vector<uint64_t> emptied;
    for (auto& [id, stored] : shard.series) {
      shard_dropped += stored.data.drop_before(cutoff);
      if (stored.data.empty()) emptied.push_back(id);
    }
    for (uint64_t id : emptied) erase_series_locked(shard, id);
    if (shard_dropped > 0) {
      shard.num_samples -= shard_dropped;
      shard.version.fetch_add(1, std::memory_order_acq_rel);
    }
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
    bool mutated = false;
    for (uint64_t id : match_ids(shard, selector)) {
      auto it = shard.series.find(id);
      if (it == shard.series.end()) continue;
      shard.num_samples -= it->second.data.num_samples();
      erase_series_locked(shard, id);
      ++deleted;
      mutated = true;
    }
    if (mutated) shard.version.fetch_add(1, std::memory_order_acq_rel);
  }
  return deleted;
}

void TimeSeriesStore::clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    shard.series.clear();
    shard.by_fp.clear();
    shard.index.clear();
    shard.num_samples = 0;
    // Versions keep counting up (never reset) so query-cache entries
    // recorded before the clear can never validate afterwards.
    shard.version.fetch_add(1, std::memory_order_acq_rel);
  }
}

StorageStats TimeSeriesStore::stats() const {
  StorageStats stats;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    stats.num_series += shard.series.size();
    stats.num_samples += shard.num_samples;
    for (const auto& [id, stored] : shard.series) {
      stats.approx_bytes += stored.data.approx_bytes();
      stats.approx_bytes +=
          stored.ilabels.size() * sizeof(InternedLabels::SymbolPair);
    }
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
    for (const auto& [id, stored] : shard.series) {
      if (stored.data.empty()) continue;
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
    for (const auto& [id, stored] : shard.series) {
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
    num_series += shard.series.size();
  }
  std::string out(kSnapshotMagic);
  codec::put_u64(out, num_series);
  for (const Shard& shard : shards_) {
    for (const auto& [id, stored] : shard.series) {
      codec::put_u64(out, stored.labels.pairs().size());
      for (const auto& [name, value] : stored.labels.pairs()) {
        put_string(out, name);
        put_string(out, value);
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
    if (series_restored > 0) {
      shard.num_samples += series_restored;
      shard.version.fetch_add(1, std::memory_order_acq_rel);
      restored += series_restored;
    }
  }
  return restored;
}

}  // namespace ceems::tsdb
