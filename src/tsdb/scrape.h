// Scrape manager: each sweep GETs /metrics from every target (the CEEMS
// exporters on compute nodes), parses the exposition text and ingests the
// samples — Prometheus' pull model. Each target gets the synthetic `up`,
// `scrape_duration_seconds` and `ceems_http_retries_total` series, so dead
// exporters and flaky transports are visible as data rather than as
// silence.
//
// Failure handling: a failed fetch is retried up to config.retries times,
// immediately, within the sweep; when every attempt fails, `up` goes to 0
// and a staleness marker (metrics::stale_marker()) is appended to every
// series the target exposed on its last good scrape, so queries stop
// seeing its stale samples immediately instead of for the full lookback
// window. Series that disappear from a healthy target's exposition between
// scrapes get the same marker — Prometheus' staleness semantics.
//
// The manager has no schedule of its own: the caller drives each sweep
// with scrape_all_once() (CeemsStack::pipeline_step() does, once per
// scrape interval of simulated time). A sweep runs in two phases on one
// thread pool. Phase 1 fetches and parses the targets in parallel; each
// only buffers its writes. Phase 2 writes the whole sweep, one task per
// store shard, so each shard lock is taken at most twice per sweep
// whatever the pool width, and no sweep worker waits on a shard lock that
// another sweep worker holds.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/threadpool.h"
#include "faults/fault.h"
#include "http/client.h"
#include "tsdb/storage.h"

namespace ceems::tsdb {

struct ScrapeTarget {
  std::string url;        // http://host:port/metrics
  Labels labels;          // attached to every sample (instance, hostname...)
  http::BasicAuthConfig auth;
  // Local transport: when set, the scrape calls this instead of HTTP and
  // parses the returned exposition text. Used to drive 1400 simulated
  // exporters in one process (E4) without 1400 listening sockets; the
  // parse/ingest path is byte-identical to the HTTP path. An empty
  // returned string is treated as a failed scrape.
  std::function<std::string()> local_fetch;
};

struct ScrapeConfig {
  // Sweep pool width: targets fetched and parsed at once. The store
  // writes run one task per shard on the same pool, so a wider pool adds
  // in-flight fetches, not writers contending for a shard.
  int parallelism = 8;
  int timeout_ms = 5000;
  // Honor timestamps in the exposition text; otherwise stamp at scrape time.
  bool honor_timestamps = false;
  // Extra fetch attempts per target per sweep after a failure. HTTP
  // targets retry inside http::Client (immediately); local-transport
  // targets re-evaluate the fault path against the already-fetched body,
  // so exporter-side state advances exactly once per sweep regardless of
  // retries.
  int retries = 1;
  // Chaos injection on the fetch path (site "scrape.target", key =
  // instance label or url). Empty in production.
  faults::FaultHook fault_hook;
};

struct ScrapeStats {
  uint64_t scrapes_total = 0;
  uint64_t scrapes_failed = 0;
  uint64_t samples_ingested = 0;
  uint64_t retries = 0;
  uint64_t stale_markers = 0;
};

class ScrapeManager {
 public:
  ScrapeManager(StorePtr store, common::ClockPtr clock,
                ScrapeConfig config = {});

  void add_target(ScrapeTarget target);
  std::size_t target_count() const;

  // One synchronous sweep over all targets; returns per-sweep stats.
  ScrapeStats scrape_all_once();

  ScrapeStats stats() const;

 private:
  // Reads each target's buffered writes after a sweep: the per-target
  // oracle of the bitwise differential in tests/scrape_test.cpp.
  friend struct ScrapeSweepPeer;

  struct TargetState {
    ScrapeTarget target;
    std::unique_ptr<http::Client> client;
    // Fault-stream key: the instance label when present, else the url.
    std::string fault_key;
    // Interned once at registration: the per-sweep hot loop merges target
    // labels into each sample by symbol id, and the synthetic up /
    // scrape_duration_seconds / ceems_http_retries_total label sets are
    // reused with their fingerprints precomputed.
    std::vector<metrics::InternedLabels::SymbolPair> target_syms;
    metrics::InternedLabels up_labels;
    metrics::InternedLabels duration_labels;
    metrics::InternedLabels retries_labels;
    // Per-target symbol-resolution cache — the heart of the zero-copy
    // parse path. Key: 64-bit FNV-1a of the raw series text (metric name
    // + label block, byte-for-byte as exposed), verified against the
    // stored raw bytes so a hash collision can never alias two series.
    // Value: the fully resolved label set (exposition labels interned
    // against the global SymbolTable, __name__ and target labels merged)
    // — built once per series lifetime, so a stable target's steady-state
    // scrape does zero symbol-table lookups and zero label allocations.
    // The `live` flag replaces the old per-sweep live_series map as the
    // staleness-marker diff basis; entries dead for kEvictSweeps sweeps
    // are evicted during the post-sweep scan. unordered_map reference
    // stability keeps SampleRef pointers valid until phase 2 has written
    // them, since the scan never evicts an entry the sweep wrote to.
    // Touched only by the (single) sweep thread scraping this target;
    // phase 2 reads the labels after phase 1 has finished.
    struct CachedSeries {
      std::string raw_key;
      metrics::InternedLabels labels;
      uint64_t last_seen = 0;  // sweep generation of last appearance
      bool live = false;       // exposed on the last successful scrape
    };
    std::unordered_map<uint64_t, CachedSeries> series_cache;
    // Stable backing for the (astronomically rare) line whose key hash
    // collides with a different cached series: parsed in full, appended
    // here, never cached. Cleared at the start of every sweep.
    std::deque<metrics::InternedLabels> overflow_labels;
    uint64_t sweep_gen = 0;
    // The target's writes for this sweep, buffered by phase 1 and written
    // by phase 2. `batch` holds the scraped samples in exposition order
    // (empty when the scrape failed); `tail` the staleness markers and
    // the self-series: markers first on success, self-series first on
    // failure. Labels point into series_cache / overflow_labels / the
    // *_labels members above, which stay put until the next sweep starts.
    // Both vectors are reused, so a steady sweep does not regrow them.
    std::vector<metrics::SampleRef> batch;
    std::vector<metrics::SampleRef> tail;
    // Scrape-level retry attempts (local transport); HTTP transport
    // retries are counted inside http::Client and added on export.
    uint64_t local_retries = 0;
    uint64_t consecutive_failures = 0;
  };

  // Sweeps a dead cache entry stays resident before eviction (cheap
  // re-resolution insurance for flapping series).
  static constexpr uint64_t kEvictSweeps = 8;

  struct TargetSweep {
    bool failed = false;
    uint64_t retries = 0;
    uint64_t stale_markers = 0;
  };

  // Phase 1 for one target: fetches with retries and fills state.batch
  // and state.tail. Writes nothing to the store.
  TargetSweep scrape_target(TargetState& state, common::TimestampMs now);

  // Zero-copy exposition parse: walks `body` line by line as
  // string_views, resolves each series through the target's cache and
  // fills state.batch. Throws metrics::ExpositionParseError on exactly
  // the inputs metrics::parse_exposition rejects.
  void parse_into_batch(TargetState& state, std::string_view body,
                        common::TimestampMs now);
  // Cache-miss path: full strict parse of the series part of a line
  // (name + label block), resolved against the symbol table and merged
  // with target labels. Sets *end_pos to one past the series text.
  metrics::InternedLabels resolve_series_strict(TargetState& state,
                                                std::string_view line,
                                                std::size_t name_len,
                                                std::size_t* end_pos);

  StorePtr store_;
  common::ClockPtr clock_;
  ScrapeConfig config_;

  mutable std::mutex targets_mu_;
  std::vector<std::unique_ptr<TargetState>> targets_;

  // Reused by scrape_all_once (single sweep driver at a time); sized
  // min(parallelism, targets) and rebuilt only when that width changes.
  std::unique_ptr<common::ThreadPool> sweep_pool_;
  std::size_t sweep_pool_width_ = 0;

  // Phase 2 scratch, one entry per store shard: every target's samples
  // in that shard, in target order, from its batch and from its tail,
  // and how many scraped samples the store accepted. Reused across sweeps.
  struct ShardWrites {
    std::vector<metrics::SampleRef> scraped;
    std::vector<metrics::SampleRef> tail;
    std::size_t accepted = 0;
  };
  std::array<ShardWrites, TimeSeriesStore::kShardCount> shard_writes_;

  std::atomic<uint64_t> scrapes_total_{0};
  std::atomic<uint64_t> scrapes_failed_{0};
  std::atomic<uint64_t> samples_ingested_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> stale_markers_{0};
};

}  // namespace ceems::tsdb
