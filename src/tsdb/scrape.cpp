#include "tsdb/scrape.h"

#include "common/fnv1a.h"
#include "common/logging.h"
#include "common/strutil.h"
#include "metrics/text_format.h"

namespace ceems::tsdb {

namespace {

using metrics::ExpositionParseError;
using metrics::InternedLabels;
using metrics::Labels;

}  // namespace

ScrapeManager::ScrapeManager(StorePtr store, common::ClockPtr clock,
                             ScrapeConfig config)
    : store_(std::move(store)),
      clock_(std::move(clock)),
      config_(config) {}

void ScrapeManager::add_target(ScrapeTarget target) {
  auto state = std::make_unique<TargetState>();
  http::ClientConfig client_config;
  client_config.io_timeout_ms = config_.timeout_ms;
  client_config.connect_timeout_ms = config_.timeout_ms;
  client_config.basic_auth = target.auth;
  // HTTP transport retries live in the client (immediate, within the
  // sweep); local-transport retries are handled in scrape_target.
  client_config.retry.max_retries = config_.retries;
  client_config.fault_hook = config_.fault_hook;
  state->target = std::move(target);
  state->client = std::make_unique<http::Client>(client_config);
  auto& table = metrics::SymbolTable::global();
  for (const auto& [name, value] : state->target.labels.pairs()) {
    state->target_syms.emplace_back(table.intern(name), table.intern(value));
  }
  state->up_labels = state->target.labels.with_name("up");
  state->duration_labels =
      state->target.labels.with_name("scrape_duration_seconds");
  state->retries_labels =
      state->target.labels.with_name("ceems_http_retries_total");
  auto instance = state->target.labels.get("instance");
  state->fault_key = instance ? std::string(*instance) : state->target.url;
  std::lock_guard lock(targets_mu_);
  targets_.push_back(std::move(state));
}

std::size_t ScrapeManager::target_count() const {
  std::lock_guard lock(targets_mu_);
  return targets_.size();
}

ScrapeManager::TargetSweep ScrapeManager::scrape_target(
    TargetState& state, common::TimestampMs now) {
  TargetSweep sweep;
  auto started = std::chrono::steady_clock::now();

  http::FetchResult result;
  if (state.target.local_fetch) {
    // The exposition body is produced exactly once per sweep, so exporter
    // state advances identically whether or not faults/retries occur —
    // the chaos suite's differential guard depends on this. Faults and
    // retries then replay against the cached body.
    std::string body = state.target.local_fetch();
    int attempts = 1 + std::max(0, config_.retries);
    for (int attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        ++sweep.retries;
        ++state.local_retries;
      }
      result = {};
      faults::FaultDecision fault;
      if (config_.fault_hook) {
        fault = config_.fault_hook("scrape.target", state.fault_key);
      }
      if (fault.kind == faults::FaultKind::kTruncateBody) {
        // A truncated exposition could parse cleanly up to the cut; the
        // transport layer (Content-Length check in http::Client) rejects
        // it rather than silently ingesting a partial sample set.
        result.error = "truncated body (injected)";
      } else if (!fault || (fault.kind == faults::FaultKind::kSlowResponse &&
                            fault.delay_ms < config_.timeout_ms)) {
        // No fault, or a response late but within the timeout. A
        // non-empty body ends the attempts, so it is handed over, not
        // copied; an empty one fails and is retried as it is.
        result.response.status = 200;
        result.ok = !body.empty();
        if (result.ok) {
          result.response.body = std::move(body);
        } else {
          result.error = "local fetch returned no data";
        }
      } else {
        result.error = std::string("injected fault: ") +
                       faults::fault_kind_name(fault.kind);
      }
      if (result.ok) break;
    }
  } else {
    uint64_t retries_before = state.client->stats().retries;
    result = state.client->get(state.target.url);
    sweep.retries += state.client->stats().retries - retries_before;
  }
  double duration_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  // Every outcome — success, failure, retry — lands in the store as data:
  // up, scrape_duration_seconds and the transport retry counter. They
  // ride in one batch with the sweep's staleness markers (state.batch,
  // reused once the scraped samples are in), so a WAL-backed store logs
  // at most two records per target per sweep. The self-series go last on
  // success and first on failure, so a scraped series whose labels equal
  // a self-series' resolves by the same last-write-wins order either way.
  auto push_self_series = [&](double up) {
    double retries = static_cast<double>(state.local_retries +
                                         state.client->stats().retries);
    state.batch.push_back({&state.up_labels, now, up});
    state.batch.push_back({&state.duration_labels, now, duration_sec});
    state.batch.push_back({&state.retries_labels, now, retries});
  };

  auto mark_failed = [&] {
    state.batch.clear();
    push_self_series(0);
    ++state.consecutive_failures;
    for (auto& [hash, entry] : state.series_cache) {
      if (!entry.live) continue;
      state.batch.push_back({&entry.labels, now, metrics::stale_marker()});
      entry.live = false;
      ++sweep.stale_markers;
    }
    store_->append_refs(state.batch.data(), state.batch.size());
    sweep.ingested = -1;
  };

  if (!result.ok || result.response.status != 200) {
    mark_failed();
    return sweep;
  }

  try {
    // Zero-copy parse into the reused scratch batch: lines are walked as
    // string_views over the response body, each series resolves through
    // the per-target cache (symbol resolution happens once per series
    // lifetime), and nothing is appended until the whole body parsed —
    // a malformed line fails the sweep atomically, exactly like the old
    // parse_exposition path.
    ++state.sweep_gen;
    parse_into_batch(state, result.response.body, now);
    sweep.ingested = static_cast<int64_t>(
        store_->append_refs(state.batch.data(), state.batch.size()));
    state.batch.clear();
    // One pass over the cache: series exposed last scrape but gone now
    // ended between sweeps — mark them stale so they vanish from queries
    // at this sweep, not after the lookback window drains (Prometheus'
    // disappearing-series semantics). Entries dead long enough are
    // evicted so churned series do not pin cache memory forever; an
    // entry marked stale in this pass is kept, since the batch still
    // points at its labels.
    for (auto it = state.series_cache.begin();
         it != state.series_cache.end();) {
      auto& entry = it->second;
      if (entry.last_seen == state.sweep_gen) {
        entry.live = true;
        ++it;
        continue;
      }
      if (entry.live) {
        state.batch.push_back({&entry.labels, now, metrics::stale_marker()});
        ++sweep.stale_markers;
        entry.live = false;
        ++it;
        continue;
      }
      if (state.sweep_gen - entry.last_seen > kEvictSweeps) {
        it = state.series_cache.erase(it);
      } else {
        ++it;
      }
    }
    state.consecutive_failures = 0;
  } catch (const metrics::ExpositionParseError& e) {
    CEEMS_LOG_WARN("scrape") << state.target.url << ": " << e.what();
    mark_failed();
    return sweep;
  }
  push_self_series(1);
  store_->append_refs(state.batch.data(), state.batch.size());
  return sweep;
}

void ScrapeManager::parse_into_batch(TargetState& state,
                                     std::string_view body,
                                     common::TimestampMs now) {
  state.batch.clear();
  state.overflow_labels.clear();

  for (std::size_t start = 0; start < body.size();) {
    std::size_t nl = body.find('\n', start);
    std::size_t line_end = (nl == std::string_view::npos) ? body.size() : nl;
    std::string_view line = common::trim(body.substr(start, line_end - start));
    start = line_end + 1;
    if (line.empty() || line[0] == '#') continue;  // comments never fail

    // Series key span: metric name plus the raw label block. The scan is
    // quote-aware (a '}' inside a quoted label value does not close the
    // block) but validates nothing — validation happens in the strict
    // parse on a cache miss, so every line the old parser rejected still
    // throws here.
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ' &&
           line[pos] != '\t') {
      ++pos;
    }
    std::size_t name_len = pos;
    std::size_t key_end = pos;
    bool scan_failed = false;
    if (pos < line.size() && line[pos] == '{') {
      bool in_quotes = false;
      std::size_t scan = pos + 1;
      std::size_t close = std::string_view::npos;
      while (scan < line.size()) {
        char c = line[scan];
        if (in_quotes) {
          if (c == '\\' && scan + 1 < line.size()) ++scan;
          else if (c == '"') in_quotes = false;
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == '}') {
          close = scan;
          break;
        }
        ++scan;
      }
      if (close == std::string_view::npos) {
        scan_failed = true;  // strict parse below raises the exact error
      } else {
        key_end = close + 1;
      }
    }

    const InternedLabels* labels = nullptr;
    if (!scan_failed) {
      std::string_view key = line.substr(0, key_end);
      uint64_t hash = common::fnv1a(key);
      auto it = state.series_cache.find(hash);
      if (it != state.series_cache.end() && it->second.raw_key == key) {
        it->second.last_seen = state.sweep_gen;
        labels = &it->second.labels;
      } else if (it == state.series_cache.end()) {
        InternedLabels resolved =
            resolve_series_strict(state, line, name_len, &key_end);
        auto [slot, inserted] = state.series_cache.emplace(
            hash, TargetState::CachedSeries{std::string(key),
                                            std::move(resolved),
                                            state.sweep_gen, false});
        labels = &slot->second.labels;
      } else {
        // Same 64-bit hash, different bytes: parse in full, keep the
        // labels alive in the overflow list, leave the cache alone.
        state.overflow_labels.push_back(
            resolve_series_strict(state, line, name_len, &key_end));
        labels = &state.overflow_labels.back();
      }
    } else {
      // No closing '}' found: the strict parse below throws the exact
      // error the old parser raised for this line.
      state.overflow_labels.push_back(
          resolve_series_strict(state, line, name_len, &key_end));
      labels = &state.overflow_labels.back();
    }

    metrics::SampleTail tail = metrics::parse_sample_tail(line, key_end);
    common::TimestampMs t = config_.honor_timestamps && tail.timestamp_ms != 0
                                ? tail.timestamp_ms
                                : now;
    state.batch.push_back({labels, t, tail.value});
  }
}

metrics::InternedLabels ScrapeManager::resolve_series_strict(
    TargetState& state, std::string_view line, std::size_t name_len,
    std::size_t* end_pos) {
  std::string_view name = line.substr(0, name_len);
  if (!metrics::is_valid_metric_name(name))
    throw ExpositionParseError("invalid metric name in line: " +
                               std::string(line));
  std::size_t pos = name_len;
  Labels labels;
  if (pos < line.size() && line[pos] == '{')
    labels = metrics::parse_label_block(line, pos);
  *end_pos = pos;
  InternedLabels resolved =
      InternedLabels(labels).with(metrics::kMetricNameLabel, name);
  for (const auto& [name_sym, value_sym] : state.target_syms) {
    resolved = resolved.with_symbols(name_sym, value_sym);
  }
  return resolved;
}

ScrapeStats ScrapeManager::scrape_all_once() {
  std::vector<TargetState*> snapshot;
  {
    std::lock_guard lock(targets_mu_);
    snapshot.reserve(targets_.size());
    for (auto& state : targets_) snapshot.push_back(state.get());
  }
  common::TimestampMs now = clock_->now_ms();

  ScrapeStats sweep;
  std::mutex sweep_mu;
  // The sweep pool persists across sweeps (re-created only when the
  // effective width changes, i.e. when targets are added below the
  // parallelism cap) — a steady-state sweep spawns no threads.
  std::size_t width =
      std::min<std::size_t>(static_cast<std::size_t>(config_.parallelism),
                            std::max<std::size_t>(1, snapshot.size()));
  if (!sweep_pool_ || sweep_pool_width_ != width) {
    sweep_pool_ = std::make_unique<common::ThreadPool>(width, "scrape");
    sweep_pool_width_ = width;
  }
  for (TargetState* state : snapshot) {
    sweep_pool_->submit([&, state] {
      TargetSweep result = scrape_target(*state, now);
      std::lock_guard lock(sweep_mu);
      ++sweep.scrapes_total;
      sweep.retries += result.retries;
      sweep.stale_markers += result.stale_markers;
      if (result.ingested < 0) {
        ++sweep.scrapes_failed;
      } else {
        sweep.samples_ingested += static_cast<uint64_t>(result.ingested);
      }
    });
  }
  sweep_pool_->wait_idle();

  scrapes_total_ += sweep.scrapes_total;
  scrapes_failed_ += sweep.scrapes_failed;
  samples_ingested_ += sweep.samples_ingested;
  retries_ += sweep.retries;
  stale_markers_ += sweep.stale_markers;
  return sweep;
}

ScrapeStats ScrapeManager::stats() const {
  ScrapeStats out;
  out.scrapes_total = scrapes_total_.load();
  out.scrapes_failed = scrapes_failed_.load();
  out.samples_ingested = samples_ingested_.load();
  out.retries = retries_.load();
  out.stale_markers = stale_markers_.load();
  return out;
}

}  // namespace ceems::tsdb
