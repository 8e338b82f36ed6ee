#include "simfs/record_log.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "common/byte_codec.h"
#include "common/logging.h"

namespace ceems::simfs {
namespace {

using common::codec::put_u32;
using common::codec::put_u64;

// Segment header: magic + version byte + u64 sequence.
constexpr char kSegmentMagic[] = "CEEMSWAL";
constexpr std::size_t kMagicLen = sizeof(kSegmentMagic) - 1;
constexpr uint8_t kSegmentVersion = 1;
constexpr std::size_t kHeaderLen = kMagicLen + 1 + 8;

// Snapshot wrapper: magic + u64 WAL sequence floor + caller body.
constexpr char kSnapshotMagic[] = "CEEMSDUR1";
constexpr std::size_t kSnapshotMagicLen = sizeof(kSnapshotMagic) - 1;
constexpr std::size_t kSnapshotHeaderLen = kSnapshotMagicLen + 8;
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

RecordLog::Recovery RecordLog::open(DurableDirPtr dir,
                                    std::size_t segment_bytes,
                                    const PayloadFn& restore,
                                    const PayloadFn& apply,
                                    const BodyWriter& write_body) {
  Recovery out;
  // A snapshot that is malformed or that `restore` rejects (leaving
  // nothing applied) is damage too: replay then starts at 0.
  uint64_t floor = 0;
  if (auto snap = dir->read(kSnapshotFile)) {
    if (snap->size() >= kSnapshotHeaderLen &&
        std::memcmp(snap->data(), kSnapshotMagic, kSnapshotMagicLen) == 0 &&
        restore(std::string_view(*snap).substr(kSnapshotHeaderLen))) {
      std::memcpy(&floor, snap->data() + kSnapshotMagicLen, 8);
    } else {
      out.snapshot_error =
          "snapshot unusable; replaying the log from the beginning";
    }
  }
  out.scan = scan_log(*dir, floor, apply);
  out.log = std::make_unique<RecordLog>(std::move(dir), out.scan.next_seq,
                                        segment_bytes);
  const std::string& damage =
      out.scan.error.empty() ? out.snapshot_error : out.scan.error;
  if (!damage.empty()) {
    // Make the recovered state the durable one: the checkpoint deletes
    // every segment, so nothing beyond the damage can replay over the
    // writes this generation acknowledges.
    CEEMS_LOG_WARN("record_log")
        << damage << "; checkpointing what was recovered";
    if (!out.log->checkpoint(write_body)) {
      std::lock_guard lock(out.log->mu_);
      out.log->sync_failed_ = true;
    }
  }
  return out;
}

RecordLog::RecordLog(DurableDirPtr dir, uint64_t start_seq,
                     std::size_t segment_bytes)
    : dir_(std::move(dir)), segment_limit_(segment_bytes), seq_(start_seq) {
  std::lock_guard lock(mu_);
  open_segment_locked();
  sync_failed_ = !dir_->sync(segment_);
  dirty_segments_.clear();
}

std::string RecordLog::segment_name(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::optional<uint64_t> RecordLog::parse_segment_name(std::string_view name) {
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

void RecordLog::open_segment_locked() {
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

uint64_t RecordLog::append(std::string_view payload) {
  std::lock_guard lock(mu_);
  if (segment_bytes_ >= segment_limit_) {
    // Rotate; the old segment keeps its place in dirty_segments_ and is
    // synced by the next flush leader.
    ++seq_;
    open_segment_locked();
  }
  frame_.clear();
  put_u32(frame_, static_cast<uint32_t>(payload.size()));
  put_u32(frame_, crc32(payload));
  frame_ += payload;
  dir_->append(segment_, frame_);
  segment_bytes_ += frame_.size();
  if (dirty_segments_.empty() || dirty_segments_.back() != segment_) {
    dirty_segments_.push_back(segment_);
  }
  ++stats_.records;
  stats_.bytes += frame_.size();
  return ++next_lsn_;
}

bool RecordLog::flush_to(uint64_t lsn) {
  std::unique_lock lock(mu_);
  for (;;) {
    if (flushed_lsn_ >= lsn) return !sync_failed_;
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
  sync_failed_ = sync_failed_ || !ok;
  ++stats_.groups;
  flush_cv_.notify_all();
  return !sync_failed_;
}

bool RecordLog::full() const {
  std::lock_guard lock(mu_);
  return segment_bytes_ >= segment_limit_;
}

bool RecordLog::checkpoint(const BodyWriter& write_body) {
  // The new generation starts above every existing segment; replay will
  // skip anything older because the snapshot already contains it.
  const uint64_t floor = current_seq() + 1;
  if (!install_log_snapshot(*dir_, floor, write_body)) return false;
  std::lock_guard lock(mu_);
  for (const std::string& name : dir_->list()) {
    if (parse_segment_name(name)) dir_->remove(name);
  }
  seq_ = floor;
  dirty_segments_.clear();
  open_segment_locked();
  sync_failed_ = !dir_->sync(segment_);
  dirty_segments_.clear();
  return true;
}

uint64_t RecordLog::current_seq() const {
  std::lock_guard lock(mu_);
  return seq_;
}

RecordLog::Stats RecordLog::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

LogScan scan_log(DurableDir& dir, uint64_t seq_floor,
                 const RecordLog::PayloadFn& apply) {
  LogScan result;
  result.next_seq = std::max<uint64_t>(seq_floor, 1);
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : dir.list()) {
    auto seq = RecordLog::parse_segment_name(name);
    if (!seq) continue;
    result.next_seq = std::max(result.next_seq, *seq + 1);
    if (*seq >= seq_floor) segments.emplace_back(*seq, name);
  }
  std::sort(segments.begin(), segments.end());

  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& [seq, name] = segments[i];
    const bool last_segment = (i + 1 == segments.size());
    auto bytes_opt = dir.read(name);
    if (!bytes_opt) continue;
    const std::string& bytes = *bytes_opt;

    uint64_t header_seq = 0;
    if (!read_header(bytes, &header_seq) || header_seq != seq) {
      // A torn header can only be the newest segment (created last); a
      // bad header earlier in the sequence is real corruption. Either
      // way nothing after this point is trustworthy.
      if (last_segment) {
        result.torn_tail = true;
        dir.remove(name);
      } else {
        result.error = "bad segment header in " + name;
      }
      return result;
    }

    std::size_t offset = kHeaderLen;
    while (offset < bytes.size()) {
      auto stop_here = [&](bool torn) {
        if (torn) {
          result.torn_tail = true;
          dir.truncate(name, offset);
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
      if (len > RecordLog::kMaxPayloadBytes ||
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
      if (!apply(payload)) {
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

bool install_log_snapshot(DurableDir& dir, uint64_t floor,
                          const RecordLog::BodyWriter& write_body) {
  std::string snap(kSnapshotMagic, kSnapshotMagicLen);
  put_u64(snap, floor);
  write_body(snap);
  return dir.replace(kSnapshotFile, snap);
}

}  // namespace ceems::simfs
