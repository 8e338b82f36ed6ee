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

// Every segment of `dir` as (sequence, name), in sequence order.
std::vector<std::pair<uint64_t, std::string>> list_segments(
    const DurableDir& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : dir.list()) {
    if (auto seq = RecordLog::parse_segment_name(name))
      segments.emplace_back(*seq, name);
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// Hands the payload of every frame after the header of segment `bytes`
// to `apply`. Returns where the first frame that is invalid, or whose
// payload `apply` rejects, starts (with `why` saying which), or
// bytes.size() when every frame was applied.
std::size_t walk_frames(std::string_view bytes,
                        const RecordLog::PayloadFn& apply, const char** why) {
  std::size_t offset = kHeaderLen;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < 8) {
      *why = "short frame header";
      return offset;
    }
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, bytes.data() + offset, 4);
    std::memcpy(&crc, bytes.data() + offset + 4, 4);
    if (len > RecordLog::kMaxPayloadBytes ||
        bytes.size() - offset - 8 < len) {
      *why = "truncated record";
      return offset;
    }
    std::string_view payload = bytes.substr(offset + 8, len);
    if (crc32(payload) != crc) {
      *why = "crc mismatch";
      return offset;
    }
    // A frame that passed its CRC but whose body does not decode ends
    // the walk exactly like a torn frame: nothing of it is applied.
    if (!apply(payload)) {
      *why = "undecodable record";
      return offset;
    }
    offset += 8 + len;
  }
  return offset;
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
  out.log->floor_ = floor;
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
    : dir_(std::move(dir)),
      segment_limit_(segment_bytes),
      seq_(start_seq),
      floor_(start_seq) {
  std::lock_guard lock(mu_);
  open_segment_locked();
  sync_failed_ = !dir_->sync(segment_);
  dirty_segments_.clear();
  acked_seq_ = seq_;
  acked_bytes_ = segment_bytes_;
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
  // is below `target` rides this one sync. A failed generation syncs
  // nothing more.
  flush_in_progress_ = true;
  const uint64_t target = next_lsn_;
  const uint64_t end_seq = seq_;  // where record `target` ends
  const std::size_t end_bytes = segment_bytes_;
  std::vector<std::string> to_sync;
  to_sync.swap(dirty_segments_);
  bool ok = !sync_failed_;
  if (ok) {
    lock.unlock();
    for (const std::string& name : to_sync) ok = ok && dir_->sync(name);
    lock.lock();
  }
  flush_in_progress_ = false;
  flushed_lsn_ = std::max(flushed_lsn_, target);
  if (ok) {
    durable_lsn_ = target;
    acked_seq_ = end_seq;
    acked_bytes_ = end_bytes;
  } else {
    sync_failed_ = true;
    truncate_to_acked_locked();
  }
  ++stats_.groups;
  flush_cv_.notify_all();
  return lsn <= durable_lsn_;
}

void RecordLog::truncate_to_acked_locked() {
  for (; seq_ > acked_seq_; --seq_) dir_->remove(segment_name(seq_));
  segment_ = segment_name(seq_);
  dir_->truncate(segment_, acked_bytes_);
  segment_bytes_ = acked_bytes_;
  dirty_segments_.clear();
}

bool RecordLog::full() const {
  std::lock_guard lock(mu_);
  return segment_bytes_ >= segment_limit_;
}

bool RecordLog::failed() const {
  std::lock_guard lock(mu_);
  return sync_failed_;
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
  floor_ = floor;
  dirty_segments_.clear();
  open_segment_locked();
  sync_failed_ = !dir_->sync(segment_);
  dirty_segments_.clear();
  // Every record logged so far is in the snapshot or was refused.
  flushed_lsn_ = durable_lsn_ = next_lsn_;
  acked_seq_ = seq_;
  acked_bytes_ = segment_bytes_;
  return true;
}

void RecordLog::read_payloads(const PayloadFn& fn) const {
  const uint64_t floor = [this] {
    std::lock_guard lock(mu_);
    return floor_;
  }();
  for (const auto& [seq, name] : list_segments(*dir_)) {
    if (seq < floor) continue;
    auto bytes = dir_->read(name);
    uint64_t header_seq = 0;
    const char* why = nullptr;
    if (!bytes || !read_header(*bytes, &header_seq) || header_seq != seq ||
        walk_frames(*bytes, fn, &why) < bytes->size()) {
      return;
    }
  }
}

bool RecordLog::ship_to(DurableDir& replica) const {
  // The snapshot first: once the replica has it, the segments it covers
  // are never replayed there, whether or not they are removed yet.
  auto snapshot = dir_->read(kSnapshotFile);
  if (snapshot != replica.read(kSnapshotFile) &&
      !(snapshot ? replica.replace(kSnapshotFile, *snapshot)
                 : replica.remove(kSnapshotFile))) {
    return false;
  }
  const auto segments = list_segments(*dir_);
  bool ok = true;
  for (const auto& [seq, name] : list_segments(replica)) {
    if (!std::binary_search(segments.begin(), segments.end(),
                            std::make_pair(seq, name))) {
      ok = replica.remove(name) && ok;
    }
  }
  for (const auto& [seq, name] : segments) {
    auto bytes = dir_->read(name);
    if (!bytes) continue;
    auto copy = replica.read(name);
    if (!copy || !bytes->starts_with(*copy)) {
      ok = replica.replace(name, *bytes) && ok;
    } else if (copy->size() < bytes->size()) {
      std::string_view missing = std::string_view(*bytes).substr(copy->size());
      ok = replica.append(name, missing) && replica.sync(name) && ok;
    }
  }
  return ok;
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
  auto segments = list_segments(dir);
  if (!segments.empty())
    result.next_seq = std::max(result.next_seq, segments.back().first + 1);
  std::erase_if(segments,
                [&](const auto& segment) { return segment.first < seq_floor; });
  auto counted = [&](std::string_view payload) {
    if (!apply(payload)) return false;
    ++result.records_applied;
    return true;
  };

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

    const char* why = nullptr;
    const std::size_t end = walk_frames(bytes, counted, &why);
    if (end < bytes.size()) {
      // An invalid frame in the newest segment is a torn tail: cut it
      // away durably. Anywhere earlier it is damage.
      if (last_segment) {
        result.torn_tail = true;
        dir.truncate(name, end);
      } else {
        result.error = std::string(why) + " in " + name;
      }
      return result;
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
