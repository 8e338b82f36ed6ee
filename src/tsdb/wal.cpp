#include "tsdb/wal.h"

#include <cstring>
#include <functional>

#include "common/byte_codec.h"

namespace ceems::tsdb {
namespace {

using common::codec::put_str;
using common::codec::put_u64;
using common::codec::put_varint;
using common::codec::put_zigzag;
using common::codec::Reader;
using metrics::InternedLabels;
using metrics::Labels;
using metrics::SymbolTable;

}  // namespace

Wal::Wal(simfs::DurableDirPtr dir, uint64_t start_seq, WalOptions options)
    : Wal(std::make_unique<simfs::RecordLog>(std::move(dir), start_seq,
                                             options.segment_bytes)) {}

Wal::Wal(std::unique_ptr<simfs::RecordLog> log) : log_(std::move(log)) {}

bool Wal::commit(std::unique_lock<std::mutex>& lock) {
  uint64_t lsn = log_->append(payload_);
  lock.unlock();
  return log_->flush_to(lsn);
}

bool Wal::log_batch(const metrics::SampleRef* samples, std::size_t count) {
  if (count == 0) return true;
  std::unique_lock lock(mu_);
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
  ++batches_;
  samples_ += count;
  return commit(lock);
}

bool Wal::log_purge(common::TimestampMs cutoff) {
  std::unique_lock lock(mu_);
  payload_.clear();
  payload_.push_back(static_cast<char>(kPurgeRecord));
  put_zigzag(payload_, cutoff);
  return commit(lock);
}

bool Wal::log_delete(const std::vector<metrics::LabelMatcher>& matchers) {
  std::unique_lock lock(mu_);
  payload_.clear();
  payload_.push_back(static_cast<char>(kDeleteRecord));
  put_varint(payload_, matchers.size());
  for (const auto& matcher : matchers) {
    payload_.push_back(static_cast<char>(matcher.op));
    put_str(payload_, matcher.name);
    put_str(payload_, matcher.value);
  }
  return commit(lock);
}

bool Wal::checkpoint(const simfs::RecordLog::BodyWriter& write_body) {
  if (!log_->checkpoint(write_body)) return false;
  std::lock_guard lock(mu_);
  dict_.clear();
  next_ref_ = 1;
  return true;
}

uint64_t Wal::current_seq() const { return log_->current_seq(); }

WalStats Wal::stats() const {
  std::lock_guard lock(mu_);
  WalStats stats;
  static_cast<simfs::RecordLog::Stats&>(stats) = log_->stats();
  stats.batches = batches_;
  stats.samples = samples_;
  return stats;
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

// Applies log payloads to a store; series refs resolve against the
// dictionary the log has defined so far.
struct Replayer {
  explicit Replayer(TimeSeriesStore& target) : store(target) {}

  TimeSeriesStore& store;
  uint64_t samples_appended = 0;
  std::unordered_map<uint64_t, InternedLabels> dict;
  std::vector<metrics::SampleRef> batch_refs;

  bool operator()(std::string_view payload) {
    Reader reader(payload);
    uint8_t type = 0;
    if (!reader.get_u8(&type)) return false;
    switch (type) {
      case Wal::kBatchRecord: {
        StagedBatch staged;
        if (!decode_batch(reader, dict, &staged)) return false;
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
        samples_appended +=
            store.replay_refs(batch_refs.data(), batch_refs.size());
        return true;
      }
      case Wal::kPurgeRecord: {
        int64_t cutoff = 0;
        if (!reader.get_zigzag(&cutoff) || !reader.done()) return false;
        store.purge_before(cutoff);
        return true;
      }
      case Wal::kDeleteRecord: {
        uint64_t num_matchers = 0;
        if (!reader.get_varint(&num_matchers) || num_matchers > 64)
          return false;
        std::vector<metrics::LabelMatcher> matchers;
        for (uint64_t m = 0; m < num_matchers; ++m) {
          uint8_t op = 0;
          metrics::LabelMatcher matcher;
          if (!reader.get_u8(&op) || op > 3 ||
              !reader.get_str(&matcher.name) ||
              !reader.get_str(&matcher.value)) {
            return false;
          }
          matcher.op = static_cast<metrics::LabelMatcher::Op>(op);
          matchers.push_back(std::move(matcher));
        }
        if (!reader.done()) return false;
        store.delete_series(matchers);
        return true;
      }
      default:
        return false;
    }
  }
};

}  // namespace

WalReplayResult replay_wal(simfs::DurableDir& dir, uint64_t seq_floor,
                           TimeSeriesStore& store) {
  WalReplayResult result;
  Replayer replayer(store);
  static_cast<simfs::LogScan&>(result) =
      simfs::scan_log(dir, seq_floor, std::ref(replayer));
  result.samples_appended = replayer.samples_appended;
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

  auto restore = [&](std::string_view body) {
    auto restored = store_->restore_from_bytes(body);
    result.snapshot_samples = restored.value_or(0);
    return restored.has_value();
  };
  Replayer replayer(*store_);
  auto recovery = simfs::RecordLog::open(
      dir_, options_.segment_bytes, restore, std::ref(replayer),
      [this](std::string& out) { out += store_->snapshot_bytes(); });
  static_cast<simfs::LogScan&>(result.replay) = recovery.scan;
  result.replay.samples_appended = replayer.samples_appended;
  if (result.replay.error.empty())
    result.replay.error = recovery.snapshot_error;
  wal_ = std::make_shared<Wal>(std::move(recovery.log));
  store_->set_wal(wal_);
  return result;
}

bool DurableTsdb::checkpoint() {
  auto barrier = wal_->commit_barrier();
  return wal_->checkpoint(
      [this](std::string& out) { out += store_->snapshot_bytes(); });
}

}  // namespace ceems::tsdb
