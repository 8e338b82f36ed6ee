#include "tsdb/wal.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "tsdb/byte_codec.h"

namespace ceems::tsdb {
namespace {

using codec::put_str;
using codec::put_u32;
using codec::put_u64;
using codec::put_varint;
using codec::put_zigzag;
using codec::Reader;
using metrics::InternedLabels;
using metrics::Labels;
using metrics::SymbolTable;

// Segment header: magic + version byte + u64 sequence.
constexpr char kSegmentMagic[] = "CEEMSWAL";
constexpr std::size_t kMagicLen = sizeof(kSegmentMagic) - 1;
constexpr uint8_t kSegmentVersion = 1;
constexpr std::size_t kHeaderLen = kMagicLen + 1 + 8;

// Snapshot wrapper: magic + u64 WAL sequence floor + store snapshot v2.
constexpr char kSnapshotMagic[] = "CEEMSDUR1";
constexpr std::size_t kSnapshotMagicLen = sizeof(kSnapshotMagic) - 1;
constexpr char kSnapshotFile[] = "snapshot";

// CRC32 (IEEE, reflected polynomial) — the framing checksum.
std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

uint32_t crc32(std::string_view bytes) {
  static const std::array<uint32_t, 256> table = make_crc_table();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char c : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ c) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

bool read_header(std::string_view bytes, uint64_t* seq) {
  if (bytes.size() < kHeaderLen) return false;
  if (std::memcmp(bytes.data(), kSegmentMagic, kMagicLen) != 0) return false;
  if (static_cast<uint8_t>(bytes[kMagicLen]) != kSegmentVersion) return false;
  std::memcpy(seq, bytes.data() + kMagicLen + 1, 8);
  return true;
}

}  // namespace

Wal::Wal(simfs::DurableDirPtr dir, uint64_t start_seq, WalOptions options)
    : dir_(std::move(dir)), options_(options), seq_(start_seq) {
  std::lock_guard lock(mu_);
  open_segment_locked();
  dir_->sync(segment_);
  dirty_segments_.clear();
}

std::string Wal::segment_name(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::optional<uint64_t> Wal::parse_segment_name(std::string_view name) {
  constexpr std::string_view prefix = "wal-";
  constexpr std::string_view suffix = ".log";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

void Wal::open_segment_locked() {
  segment_ = segment_name(seq_);
  frame_.clear();
  frame_.append(kSegmentMagic, kMagicLen);
  frame_.push_back(static_cast<char>(kSegmentVersion));
  put_u64(frame_, seq_);
  dir_->append(segment_, frame_);
  segment_bytes_ = frame_.size();
  dirty_segments_.push_back(segment_);
  ++stats_.segments;
  stats_.bytes += frame_.size();
}

uint64_t Wal::frame_and_append_locked() {
  if (segment_bytes_ >= options_.segment_bytes) {
    // Rotate; the old segment keeps its place in dirty_segments_ and is
    // synced by the next flush leader. The dictionary survives rotation —
    // it resets only at reset_to(), together with the segments that
    // carry its definitions.
    ++seq_;
    open_segment_locked();
  }
  frame_.clear();
  put_u32(frame_, static_cast<uint32_t>(payload_.size()));
  put_u32(frame_, crc32(payload_));
  frame_ += payload_;
  dir_->append(segment_, frame_);
  segment_bytes_ += frame_.size();
  if (dirty_segments_.empty() || dirty_segments_.back() != segment_) {
    dirty_segments_.push_back(segment_);
  }
  ++stats_.records;
  stats_.bytes += frame_.size();
  return ++next_lsn_;
}

bool Wal::flush_to(uint64_t lsn) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (flushed_lsn_ >= lsn) return true;
    if (!flush_in_progress_) break;
    flush_cv_.wait(lock);
  }
  // Leader: flush everything appended so far, so every waiter whose LSN
  // is below `target` rides this one sync.
  flush_in_progress_ = true;
  uint64_t target = next_lsn_;
  std::vector<std::string> to_sync;
  to_sync.swap(dirty_segments_);
  lock.unlock();
  bool ok = true;
  for (const std::string& name : to_sync) {
    ok = dir_->sync(name) && ok;
  }
  lock.lock();
  flush_in_progress_ = false;
  if (flushed_lsn_ < target) flushed_lsn_ = target;
  ++stats_.groups;
  flush_cv_.notify_all();
  return ok;
}

bool Wal::log_batch(const metrics::SampleRef* samples, std::size_t count) {
  if (count == 0) return true;
  uint64_t lsn = 0;
  {
    std::lock_guard lock(mu_);
    SymbolTable& table = SymbolTable::global();
    defs_.clear();
    samples_buf_.clear();
    uint64_t num_defs = 0;
    int64_t prev_t = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const InternedLabels& labels = *samples[i].labels;
      auto [it, inserted] = dict_.try_emplace(labels, next_ref_);
      if (inserted) {
        ++next_ref_;
        ++num_defs;
        put_varint(defs_, it->second);
        put_varint(defs_, labels.size());
        for (const auto& [name_sym, value_sym] : labels.pairs()) {
          put_str(defs_, table.text(name_sym));
          put_str(defs_, table.text(value_sym));
        }
      }
      put_varint(samples_buf_, it->second);
      put_zigzag(samples_buf_, samples[i].timestamp_ms - prev_t);
      prev_t = samples[i].timestamp_ms;
      uint64_t bits = 0;
      std::memcpy(&bits, &samples[i].value, sizeof(bits));
      put_u64(samples_buf_, bits);
    }
    payload_.clear();
    payload_.push_back(static_cast<char>(kBatchRecord));
    put_varint(payload_, num_defs);
    payload_ += defs_;
    put_varint(payload_, count);
    payload_ += samples_buf_;
    lsn = frame_and_append_locked();
    ++stats_.batches;
    stats_.samples += count;
  }
  return flush_to(lsn);
}

bool Wal::log_purge(common::TimestampMs cutoff) {
  uint64_t lsn = 0;
  {
    std::lock_guard lock(mu_);
    payload_.clear();
    payload_.push_back(static_cast<char>(kPurgeRecord));
    put_zigzag(payload_, cutoff);
    lsn = frame_and_append_locked();
  }
  return flush_to(lsn);
}

bool Wal::log_delete(const std::vector<metrics::LabelMatcher>& matchers) {
  uint64_t lsn = 0;
  {
    std::lock_guard lock(mu_);
    payload_.clear();
    payload_.push_back(static_cast<char>(kDeleteRecord));
    put_varint(payload_, matchers.size());
    for (const auto& matcher : matchers) {
      payload_.push_back(static_cast<char>(matcher.op));
      put_str(payload_, matcher.name);
      put_str(payload_, matcher.value);
    }
    lsn = frame_and_append_locked();
  }
  return flush_to(lsn);
}

void Wal::reset_to(uint64_t new_seq) {
  std::lock_guard lock(mu_);
  for (const std::string& name : dir_->list()) {
    if (parse_segment_name(name)) dir_->remove(name);
  }
  dict_.clear();
  next_ref_ = 1;
  seq_ = new_seq;
  dirty_segments_.clear();
  open_segment_locked();
  dir_->sync(segment_);
  dirty_segments_.clear();
}

uint64_t Wal::current_seq() const {
  std::lock_guard lock(mu_);
  return seq_;
}

WalStats Wal::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

namespace {

// One decoded-and-validated batch, staged before any store mutation so a
// corrupt record never applies partially.
struct StagedBatch {
  // Definitions introduced by this record (ref → labels).
  std::vector<std::pair<uint64_t, InternedLabels>> defs;
  // (ref, t, value bits) in record order.
  struct Row {
    uint64_t ref;
    common::TimestampMs t;
    uint64_t bits;
  };
  std::vector<Row> rows;
};

// Decodes a kBatch body; refs must resolve against `dict` or this
// record's own defs. Returns false on any structural problem.
bool decode_batch(Reader& reader,
                  const std::unordered_map<uint64_t, InternedLabels>& dict,
                  StagedBatch* out) {
  uint64_t num_defs = 0;
  if (!reader.get_varint(&num_defs) || num_defs > (1u << 22)) return false;
  out->defs.reserve(static_cast<std::size_t>(num_defs));
  std::string name, value;
  for (uint64_t d = 0; d < num_defs; ++d) {
    uint64_t ref = 0, num_pairs = 0;
    if (!reader.get_varint(&ref) || !reader.get_varint(&num_pairs) ||
        num_pairs > 256) {
      return false;
    }
    std::vector<Labels::Pair> pairs;
    pairs.reserve(static_cast<std::size_t>(num_pairs));
    for (uint64_t l = 0; l < num_pairs; ++l) {
      if (!reader.get_str(&name) || !reader.get_str(&value)) return false;
      pairs.emplace_back(name, value);
    }
    out->defs.emplace_back(ref, InternedLabels(Labels(std::move(pairs))));
  }
  uint64_t num_samples = 0;
  if (!reader.get_varint(&num_samples) || num_samples > (1u << 24))
    return false;
  out->rows.reserve(static_cast<std::size_t>(num_samples));
  int64_t prev_t = 0;
  for (uint64_t i = 0; i < num_samples; ++i) {
    StagedBatch::Row row{};
    int64_t delta = 0;
    if (!reader.get_varint(&row.ref) || !reader.get_zigzag(&delta) ||
        !reader.get_u64(&row.bits)) {
      return false;
    }
    prev_t += delta;
    row.t = prev_t;
    bool resolvable = dict.count(row.ref) > 0;
    if (!resolvable) {
      for (const auto& [ref, labels] : out->defs) {
        if (ref == row.ref) {
          resolvable = true;
          break;
        }
      }
    }
    if (!resolvable) return false;
    out->rows.push_back(row);
  }
  return reader.done();
}

}  // namespace

WalReplayResult replay_wal(simfs::DurableDir& dir, uint64_t seq_floor,
                           TimeSeriesStore& store, bool repair_torn_tail) {
  WalReplayResult result;
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : dir.list()) {
    auto seq = Wal::parse_segment_name(name);
    if (!seq) continue;
    result.max_seq = std::max(result.max_seq, *seq);
    if (*seq >= seq_floor) segments.emplace_back(*seq, name);
  }
  std::sort(segments.begin(), segments.end());

  std::unordered_map<uint64_t, InternedLabels> dict;
  std::vector<metrics::SampleRef> batch_refs;

  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& [seq, name] = segments[i];
    const bool last_segment = (i + 1 == segments.size());
    auto bytes_opt = dir.read(name);
    if (!bytes_opt) continue;
    const std::string& bytes = *bytes_opt;
    ++result.segments_scanned;

    uint64_t header_seq = 0;
    if (!read_header(bytes, &header_seq) || header_seq != seq) {
      // A torn header can only be the newest segment (created last); a
      // bad header earlier in the sequence is real corruption. Either
      // way nothing after this point is trustworthy.
      if (last_segment) {
        result.torn_tail = true;
        result.discarded_bytes += bytes.size();
        if (repair_torn_tail) dir.remove(name);
      } else {
        result.error = "bad segment header in " + name;
      }
      return result;
    }

    std::size_t offset = kHeaderLen;
    while (offset < bytes.size()) {
      auto stop_here = [&](bool torn) {
        result.discarded_bytes += bytes.size() - offset;
        if (torn) {
          result.torn_tail = true;
          if (repair_torn_tail) dir.truncate(name, offset);
        }
      };
      if (bytes.size() - offset < 8) {
        stop_here(last_segment);
        if (!last_segment) result.error = "short frame header in " + name;
        return result;
      }
      uint32_t len = 0, crc = 0;
      std::memcpy(&len, bytes.data() + offset, 4);
      std::memcpy(&crc, bytes.data() + offset + 4, 4);
      if (len > Wal::kMaxPayloadBytes ||
          bytes.size() - offset - 8 < len) {
        stop_here(last_segment);
        if (!last_segment) result.error = "truncated record in " + name;
        return result;
      }
      std::string_view payload(bytes.data() + offset + 8, len);
      if (crc32(payload) != crc) {
        stop_here(last_segment);
        if (!last_segment) result.error = "crc mismatch in " + name;
        return result;
      }

      Reader reader(payload);
      uint8_t type = 0;
      bool valid = reader.get_u8(&type);
      if (valid) {
        switch (type) {
          case Wal::kBatchRecord: {
            StagedBatch staged;
            valid = decode_batch(reader, dict, &staged);
            if (valid) {
              for (auto& [ref, labels] : staged.defs) {
                dict[ref] = std::move(labels);
              }
              batch_refs.clear();
              batch_refs.reserve(staged.rows.size());
              for (const auto& row : staged.rows) {
                metrics::SampleRef ref;
                ref.labels = &dict.at(row.ref);
                ref.timestamp_ms = row.t;
                std::memcpy(&ref.value, &row.bits, sizeof(ref.value));
                batch_refs.push_back(ref);
              }
              result.samples_appended +=
                  store.append_refs(batch_refs.data(), batch_refs.size());
            }
            break;
          }
          case Wal::kPurgeRecord: {
            int64_t cutoff = 0;
            valid = reader.get_zigzag(&cutoff) && reader.done();
            if (valid) store.purge_before(cutoff);
            break;
          }
          case Wal::kDeleteRecord: {
            uint64_t num_matchers = 0;
            valid = reader.get_varint(&num_matchers) && num_matchers <= 64;
            std::vector<metrics::LabelMatcher> matchers;
            for (uint64_t m = 0; valid && m < num_matchers; ++m) {
              uint8_t op = 0;
              metrics::LabelMatcher matcher;
              valid = reader.get_u8(&op) && op <= 3 &&
                      reader.get_str(&matcher.name) &&
                      reader.get_str(&matcher.value);
              if (valid) {
                matcher.op = static_cast<metrics::LabelMatcher::Op>(op);
                matchers.push_back(std::move(matcher));
              }
            }
            valid = valid && reader.done();
            if (valid) store.delete_series(matchers);
            break;
          }
          default:
            valid = false;
        }
      }
      if (!valid) {
        // The frame passed its CRC but the body does not decode: treat
        // it exactly like a torn tail — stop before applying anything.
        stop_here(last_segment);
        if (!last_segment) result.error = "undecodable record in " + name;
        return result;
      }
      ++result.records_applied;
      offset += 8 + len;
    }
  }
  return result;
}

DurableTsdb::DurableTsdb(StorePtr store, simfs::DurableDirPtr dir,
                         WalOptions options)
    : store_(std::move(store)), dir_(std::move(dir)), options_(options) {}

DurableTsdb::~DurableTsdb() {
  if (store_) store_->set_wal(nullptr);
}

DurableTsdb::OpenResult DurableTsdb::open() {
  OpenResult result;
  store_->set_wal(nullptr);
  store_->clear();

  uint64_t seq_floor = 0;
  if (auto snap = dir_->read(kSnapshotFile)) {
    if (snap->size() >= kSnapshotMagicLen + 8 &&
        std::memcmp(snap->data(), kSnapshotMagic, kSnapshotMagicLen) == 0) {
      uint64_t floor = 0;
      std::memcpy(&floor, snap->data() + kSnapshotMagicLen, 8);
      std::string_view body(*snap);
      body.remove_prefix(kSnapshotMagicLen + 8);
      if (auto restored = store_->restore_from_bytes(body)) {
        result.snapshot_samples = *restored;
        seq_floor = floor;
      } else {
        result.replay.error = "snapshot failed to restore; replaying WAL "
                              "from the beginning";
      }
    } else {
      result.replay.error = "snapshot header invalid; replaying WAL from "
                            "the beginning";
    }
  }

  std::string pre_error = result.replay.error;
  result.replay = replay_wal(*dir_, seq_floor, *store_);
  if (result.replay.error.empty()) result.replay.error = pre_error;

  uint64_t next_seq = std::max(result.replay.max_seq + 1,
                               std::max<uint64_t>(seq_floor, 1));
  wal_ = std::make_shared<Wal>(dir_, next_seq, options_);
  store_->set_wal(wal_);
  return result;
}

bool DurableTsdb::checkpoint() {
  auto barrier = wal_->commit_barrier();
  // The new generation starts above every existing segment; replay will
  // skip anything older because the snapshot already contains it.
  uint64_t floor = wal_->current_seq() + 1;
  std::string snap;
  snap.append(kSnapshotMagic, kSnapshotMagicLen);
  put_u64(snap, floor);
  snap += store_->snapshot_bytes();
  if (!dir_->replace(kSnapshotFile, snap)) return false;
  wal_->reset_to(floor);
  ++checkpoints_;
  return true;
}

}  // namespace ceems::tsdb
