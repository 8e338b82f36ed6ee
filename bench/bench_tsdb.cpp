// TSDB microbenchmarks: ingestion throughput, selector evaluation, and the
// PromQL operations the CEEMS pipeline leans on (rate over a window, Eq. 1
// style group_left joins, sum by aggregation). These underpin E4's scaling
// headroom numbers.
//
// The *_mt benchmarks exercise the sharded store and the parallel range
// evaluator at 1/4/8 threads — the scaling evidence for the lock-striped
// design. Run without arguments the binary writes its results to
// BENCH_tsdb.json (JSON reporter) for the perf trajectory; any explicit
// --benchmark_out flag overrides that.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <atomic>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "apiserver/updater.h"
#include "common/clock.h"
#include "common/threadpool.h"
#include "core/node_exporter_factory.h"
#include "core/rules_library.h"
#include "reldb/database.h"
#include "simfs/durable_dir.h"
#include "tsdb/longterm.h"
#include "tsdb/promql_eval.h"
#include "tsdb/rules.h"
#include "tsdb/scrape.h"
#include "tsdb/wal.h"

using namespace ceems;
using tsdb::TimeSeriesStore;

// Global allocation counters: every operator new in the binary bumps the
// count and adds its block's usable size to the live heap bytes, which
// every delete takes back. BM_scrape_ingest_e2e reports allocations per
// ingested sample on the production scrape→append path, the rule-pass
// benchmarks allocations per written rule sample, and
// BM_hot_series_overhead the heap a new series keeps.
static std::atomic<uint64_t> g_alloc_count{0};
static std::atomic<int64_t> g_heap_bytes{0};

static void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  g_heap_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

static void counted_free(void* p) noexcept {
  if (!p) return;
  g_heap_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

// Appends `samples` points of one series as a single append_refs batch,
// value(i) at t = i * step_ms.
template <typename ValueFn>
void append_series(TimeSeriesStore& store, const metrics::Labels& labels,
                   int samples, int64_t step_ms, ValueFn value) {
  metrics::InternedLabels interned(labels);
  std::vector<metrics::SampleRef> batch;
  batch.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    batch.push_back({&interned, i * step_ms, value(i)});
  }
  store.append_refs(batch.data(), batch.size());
}

// Builds a store with `hosts`×`series_per_host` series × `samples` each.
std::shared_ptr<TimeSeriesStore> make_store(int hosts, int series_per_host,
                                            int samples) {
  auto store = std::make_shared<TimeSeriesStore>();
  for (int h = 0; h < hosts; ++h) {
    for (int s = 0; s < series_per_host; ++s) {
      metrics::Labels labels =
          metrics::Labels{{"hostname", "n" + std::to_string(h)},
                          {"uuid", std::to_string(s)}}
              .with_name("m");
      append_series(*store, labels, samples, 30000,
                    [](int i) { return i * 10.0; });
    }
  }
  return store;
}

// One-sample append_refs calls round-robin over 1000 interned series.
void BM_append(benchmark::State& state) {
  TimeSeriesStore store;
  std::vector<metrics::InternedLabels> labels;
  for (int s = 0; s < 1000; ++s) {
    labels.emplace_back(metrics::Labels{{"uuid", std::to_string(s)}}
                            .with_name("m"));
  }
  int64_t t = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    metrics::SampleRef ref{&labels[i % labels.size()], t, 1.0};
    store.append_refs(&ref, 1);
    if (++i % labels.size() == 0) t += 30000;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_append);

void BM_select_by_equality(benchmark::State& state) {
  auto store = make_store(static_cast<int>(state.range(0)), 20, 120);
  for (auto _ : state) {
    auto result = store->select(
        {{"hostname", metrics::LabelMatcher::Op::kEq, "n0"}}, 0,
        120 * 30000);
    benchmark::DoNotOptimize(result);
  }
  state.counters["total_series"] = static_cast<double>(state.range(0) * 20);
}
BENCHMARK(BM_select_by_equality)->Arg(10)->Arg(100)->Arg(1000);

void BM_rate_over_window(benchmark::State& state) {
  auto store = make_store(static_cast<int>(state.range(0)), 10, 120);
  tsdb::promql::Engine engine;
  auto expr = tsdb::promql::parse("sum by (hostname) (rate(m[2m]))");
  for (auto _ : state) {
    auto value = engine.eval(*store, expr, 120 * 30000);
    benchmark::DoNotOptimize(value);
  }
  state.counters["series"] = static_cast<double>(state.range(0) * 10);
}
BENCHMARK(BM_rate_over_window)->Arg(10)->Arg(100)->Arg(400);

void BM_group_left_join(benchmark::State& state) {
  // The Eq. 1 shape: per-uuid series joined onto per-host series.
  auto store = std::make_shared<TimeSeriesStore>();
  int hosts = static_cast<int>(state.range(0));
  std::vector<metrics::InternedLabels> labels;
  labels.reserve(static_cast<std::size_t>(hosts) * 9);  // refs stay valid
  std::vector<metrics::SampleRef> batch;
  for (int h = 0; h < hosts; ++h) {
    std::string host = "n" + std::to_string(h);
    metrics::Labels node{{"hostname", host}};
    batch.push_back(
        {&labels.emplace_back(node.with_name("node_w")), 30000, 300.0});
    for (int u = 0; u < 8; ++u) {
      auto share = node.with("uuid", std::to_string(u)).with_name("job_share");
      batch.push_back({&labels.emplace_back(share), 30000, 0.125});
    }
  }
  store->append_refs(batch.data(), batch.size());
  tsdb::promql::Engine engine;
  auto expr = tsdb::promql::parse(
      "job_share * on(hostname) group_left() node_w");
  for (auto _ : state) {
    auto value = engine.eval(*store, expr, 30000);
    benchmark::DoNotOptimize(value);
  }
  state.counters["result_samples"] = static_cast<double>(hosts * 8);
}
BENCHMARK(BM_group_left_join)->Arg(10)->Arg(100)->Arg(1000);

void BM_range_query(benchmark::State& state) {
  auto store = make_store(20, 10, 240);  // 2 h of data
  tsdb::promql::Engine engine;
  auto expr = tsdb::promql::parse("sum by (hostname) (rate(m[2m]))");
  for (auto _ : state) {
    auto matrix = engine.eval_range(*store, expr, 0, 240 * 30000, 60000);
    benchmark::DoNotOptimize(matrix);
  }
}
BENCHMARK(BM_range_query);

// ---------- streaming range-query sweep (steps x window) ----------

// The decode-work claim behind the streaming evaluator, measured: the
// per-step path re-selects and re-decodes chunks at every step, so its
// decode count scales with steps x window; the streaming path selects the
// full span once and decodes each chunk at most once per query, so its
// count is flat in both. decodes_per_query makes that visible in
// BENCH_tsdb.json next to ns/op.
void run_range_query_sweep(benchmark::State& state, bool streaming) {
  auto store = make_store(10, 10, 480);  // 100 series x 4 h at 30 s
  int64_t steps = state.range(0);
  int64_t window_min = state.range(1);
  tsdb::promql::EngineOptions options;
  options.streaming_range = streaming;
  tsdb::promql::Engine engine(options);
  auto expr = tsdb::promql::parse("sum by (hostname) (rate(m[" +
                                  std::to_string(window_min) + "m]))");
  const int64_t end = 480 * 30000;
  const int64_t step_ms = end / steps;
  uint64_t decodes_before = tsdb::chunk_decode_count();
  for (auto _ : state) {
    auto matrix = engine.eval_range(*store, expr, 0, end, step_ms);
    benchmark::DoNotOptimize(matrix);
  }
  state.counters["decodes_per_query"] =
      static_cast<double>(tsdb::chunk_decode_count() - decodes_before) /
      static_cast<double>(state.iterations());
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["window_min"] = static_cast<double>(window_min);
}

void BM_streaming_range_query(benchmark::State& state) {
  run_range_query_sweep(state, /*streaming=*/true);
}

void BM_perstep_range_query(benchmark::State& state) {
  run_range_query_sweep(state, /*streaming=*/false);
}

void range_sweep_args(benchmark::internal::Benchmark* bench) {
  for (int64_t steps : {60, 240}) {
    for (int64_t window_min : {1, 5, 15}) {
      bench->Args({steps, window_min});
    }
  }
}
BENCHMARK(BM_streaming_range_query)->Apply(range_sweep_args);
BENCHMARK(BM_perstep_range_query)->Apply(range_sweep_args);

// ---------- long-range aligned-window sweep (resolution ladder) ----------

// The points-scanned claim behind the resolution-aware planner, measured:
// a ladder-backed LongTermStore answers aligned whole-window aggregations
// from pre-aggregated bucket columns, so the rows it touches per query
// shrink by the cadence-to-resolution ratio (15 s raw → 5 m buckets = 20x,
// → 1 h buckets = 240x) instead of scanning every raw sample in the span.
// points_scanned_per_query carries the number into BENCH_tsdb.json per
// resolution level; tools/bench_guard.py diffs it against the committed
// baseline so a planner regression (silent raw fallback) fails CI.
constexpr int64_t kLongRangeCadenceMs = 15000;  // 15 s scrape
constexpr int kLongRangeSeries = 20;
constexpr int64_t kLongRangeSpanMs = 24 * 3600 * int64_t{1000};  // 24 h

std::shared_ptr<tsdb::LongTermStore> make_ladder_store() {
  tsdb::LongTermConfig config;
  // Keep raw forever so the planner-off baseline really scans raw samples.
  config.downsample_after_ms = 365 * 24 * 3600 * int64_t{1000};
  config.levels = {{5 * 60 * 1000, 0}, {60 * 60 * 1000, 0}};
  auto hot = std::make_shared<TimeSeriesStore>();
  auto lt = std::make_shared<tsdb::LongTermStore>(hot, config);
  for (int s = 0; s < kLongRangeSeries; ++s) {
    metrics::Labels labels =
        metrics::Labels{{"hostname", "n" + std::to_string(s % 4)},
                        {"uuid", std::to_string(s)}}
            .with_name("m");
    metrics::InternedLabels interned(labels);
    std::vector<metrics::SampleRef> batch;
    for (int64_t t = kLongRangeCadenceMs; t <= kLongRangeSpanMs;
         t += kLongRangeCadenceMs) {
      batch.push_back(
          {&interned, t, 100.0 + static_cast<double>((t / 15000) % 40)});
    }
    hot->append_refs(batch.data(), batch.size());
  }
  lt->sync_from(*hot);
  lt->compact(kLongRangeSpanMs);
  return lt;
}

uint64_t ladder_points_scanned(const tsdb::LongTermStore& lt) {
  tsdb::LongTermSelectStats stats = lt.select_stats();
  uint64_t total = stats.raw_points_scanned;
  for (uint64_t points : stats.level_points_scanned) total += points;
  return total;
}

// Arg 0: resolution-aware planner on/off. Arg 1: window minutes — the step
// equals the window (report cadence), so 90 m windows land on the 5 m
// level (90 % 60 != 0) and 6 h windows on the 1 h level.
void BM_longrange_aligned_window(benchmark::State& state) {
  bool aware = state.range(0) != 0;
  int64_t window_min = state.range(1);
  auto lt = make_ladder_store();
  tsdb::promql::EngineOptions options;
  options.resolution_aware = aware;
  tsdb::promql::Engine engine(options);
  auto expr = tsdb::promql::parse("sum by (hostname) (avg_over_time(m[" +
                                  std::to_string(window_min) + "m]))");
  const int64_t window_ms = window_min * 60000;
  const int64_t start = kLongRangeSpanMs / 2;
  uint64_t points_before = ladder_points_scanned(*lt);
  for (auto _ : state) {
    auto matrix =
        engine.eval_range(*lt, expr, start, kLongRangeSpanMs, window_ms);
    benchmark::DoNotOptimize(matrix);
  }
  state.counters["points_scanned_per_query"] =
      static_cast<double>(ladder_points_scanned(*lt) - points_before) /
      static_cast<double>(state.iterations());
  state.counters["window_min"] = static_cast<double>(window_min);
  state.counters["resolution_aware"] = aware ? 1.0 : 0.0;
}

BENCHMARK(BM_longrange_aligned_window)
    ->Args({0, 90})
    ->Args({1, 90})
    ->Args({0, 360})
    ->Args({1, 360});

// ---------- long-term footprint (read-through) ----------

// One copy of recent data. An hour of 30 s sweeps over 500 series, each
// followed by the long-term sync and compaction a generation runs, all
// inside the 2 h downsample horizon, so every hot sample is still
// recent. A long-term store keeping its own raw copy would hold as many
// bytes beyond its ladder as the hot store holds (ratio 1); reading
// recent samples through the hot store it holds none (ratio 0).
// tools/bench_guard.py gates longterm_raw_bytes_per_hot_byte, so a
// reintroduced copy fails CI; sync_samples pins what the syncs counted.
void BM_longterm_footprint(benchmark::State& state) {
  constexpr int kSeries = 500;
  constexpr int kSweeps = 120;
  constexpr int64_t kStepMs = 30000;
  std::vector<metrics::InternedLabels> labels;
  for (int s = 0; s < kSeries; ++s) {
    labels.emplace_back(
        metrics::Labels{{"hostname", "n" + std::to_string(s % 50)},
                        {"uuid", std::to_string(s)}}
            .with_name("m"));
  }
  std::vector<metrics::SampleRef> batch(labels.size());
  double ratio = 0, synced = 0;
  for (auto _ : state) {
    auto hot = std::make_shared<TimeSeriesStore>();
    tsdb::LongTermStore lt(hot);
    std::size_t sync_samples = 0;
    for (int sweep = 1; sweep <= kSweeps; ++sweep) {
      const int64_t t = sweep * kStepMs;
      for (std::size_t s = 0; s < labels.size(); ++s) {
        batch[s] = {&labels[s], t, static_cast<double>(sweep + s)};
      }
      hot->append_refs(batch.data(), batch.size());
      sync_samples += lt.sync_from(*hot);
      lt.compact(t);
    }
    const double beyond_ladder = static_cast<double>(
        lt.stats().approx_bytes - lt.downsampled_stats().approx_bytes);
    ratio = beyond_ladder / static_cast<double>(hot->stats().approx_bytes);
    synced = static_cast<double>(sync_samples);
  }
  state.counters["longterm_raw_bytes_per_hot_byte"] = ratio;
  state.counters["sync_samples"] = synced;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kSeries * kSweeps);
}
BENCHMARK(BM_longterm_footprint)->Unit(benchmark::kMillisecond);

// ---------- long-term history read ----------

// One metric read back past the purge boundary. 40 metrics x 50 hosts
// over 8 h of 1-minute samples, compacted every 30 min into the default
// 5m level behind the default 2 h hot horizon; each iteration reads one
// metric over the last 6 h (4 h of ladder history, then the hot tail).
// ladder_series_per_select counts the ladder series each read checks:
// one scan of the level, all 2000, for the metric's 50.
// tools/bench_guard.py gates it.
void BM_longterm_select_history(benchmark::State& state) {
  constexpr int kMetrics = 40;
  constexpr int kHosts = 50;
  constexpr int64_t kStepMs = common::kMillisPerMinute;
  constexpr int64_t kEndMs = 8 * common::kMillisPerHour;
  constexpr int64_t kCompactEveryMs = 30 * common::kMillisPerMinute;
  std::vector<metrics::InternedLabels> labels;
  for (int m = 0; m < kMetrics; ++m) {
    for (int h = 0; h < kHosts; ++h) {
      labels.emplace_back(
          metrics::Labels{{"hostname", "n" + std::to_string(h)}}.with_name(
              "m" + std::to_string(m)));
    }
  }
  auto hot = std::make_shared<TimeSeriesStore>();
  tsdb::LongTermStore lt(hot);
  std::vector<metrics::SampleRef> batch(labels.size());
  for (int64_t t = kStepMs; t <= kEndMs; t += kStepMs) {
    for (std::size_t s = 0; s < labels.size(); ++s) {
      batch[s] = {&labels[s], t, static_cast<double>(t / kStepMs + s)};
    }
    hot->append_refs(batch.data(), batch.size());
    if (t % kCompactEveryMs == 0) {
      lt.sync_from(*hot);
      lt.compact(t);
    }
  }
  const std::vector<metrics::LabelMatcher> matchers = {
      {"__name__", metrics::LabelMatcher::Op::kEq, "m7"}};
  const uint64_t visited_before = lt.select_stats().ladder_series_visited;
  double returned = 0;
  for (auto _ : state) {
    auto views = lt.select(matchers, kEndMs - 6 * common::kMillisPerHour,
                           kEndMs);
    returned = static_cast<double>(views.size());
    benchmark::DoNotOptimize(views);
  }
  const double visited = static_cast<double>(
      lt.select_stats().ladder_series_visited - visited_before);
  state.counters["ladder_series_per_select"] =
      visited / static_cast<double>(state.iterations());
  state.counters["series_returned"] = returned;
}
BENCHMARK(BM_longterm_select_history)->Unit(benchmark::kMicrosecond);

void BM_purge(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto store = make_store(50, 20, 120);
    state.ResumeTiming();
    benchmark::DoNotOptimize(store->purge_before(60 * 30000));
  }
}
BENCHMARK(BM_purge);

// ---------- concurrency benchmarks (sharded store) ----------

// Batched scrape-style ingest with N writer threads appending to disjoint
// series (every exporter produces its own label sets): whole sweeps
// through append_refs, which groups samples by shard and takes each shard
// lock once per batch. Aggregate items/s across threads is the
// shard-scaling curve.
void BM_concurrent_ingest_batched(benchmark::State& state) {
  static std::shared_ptr<TimeSeriesStore> store;
  if (state.thread_index() == 0) store = std::make_shared<TimeSeriesStore>();

  std::vector<metrics::InternedLabels> labels;
  for (int s = 0; s < 256; ++s) {
    labels.emplace_back(
        metrics::Labels{{"thread", "t" + std::to_string(state.thread_index())},
                        {"uuid", std::to_string(s)}}
            .with_name("m"));
  }
  std::vector<metrics::SampleRef> batch;
  for (const auto& series : labels) batch.push_back({&series, 0, 1.0});
  int64_t t = 0;
  for (auto _ : state) {
    t += 30000;
    for (auto& sample : batch) sample.timestamp_ms = t;
    benchmark::DoNotOptimize(store->append_refs(batch.data(), batch.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
  if (state.thread_index() == 0) store.reset();
}
BENCHMARK(BM_concurrent_ingest_batched)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Range-query evaluation with the step grid parallelised across an
// N-thread pool (arg = pool size; 1 = the serial path).
void BM_parallel_range_query(benchmark::State& state) {
  auto store = make_store(20, 10, 240);  // 2 h of data
  int threads = static_cast<int>(state.range(0));
  tsdb::promql::EngineOptions options;
  if (threads > 1) {
    options.pool = std::make_shared<common::ThreadPool>(
        static_cast<std::size_t>(threads), "bench-eval");
  }
  tsdb::promql::Engine engine(options);
  auto expr = tsdb::promql::parse("sum by (hostname) (rate(m[2m]))");
  for (auto _ : state) {
    auto matrix = engine.eval_range(*store, expr, 0, 240 * 30000, 60000);
    benchmark::DoNotOptimize(matrix);
  }
  state.counters["eval_threads"] = threads;
}
BENCHMARK(BM_parallel_range_query)->Arg(1)->Arg(4)->Arg(8);

// Concurrent range queries against one store: the dashboard/LB fan-in
// shape. All threads share ONE engine and evaluate every query in full
// (parse, select, decode, sweep); the query mix includes regex
// selectors, so the lock-striped compiled-regex LRU and the store's shard
// locks sit on the measured path under contention. The `qps` counter is
// the aggregate query rate across threads.
void BM_concurrent_range_queries(benchmark::State& state) {
  static std::shared_ptr<TimeSeriesStore> store;
  static std::unique_ptr<tsdb::promql::Engine> engine;
  if (state.thread_index() == 0) {
    store = make_store(20, 10, 240);
    engine = std::make_unique<tsdb::promql::Engine>();
  }
  // A dashboard-like panel set: every thread rotates through all of it,
  // offset by thread index so threads touch different regex-cache stripes
  // at any instant.
  static const char* kQueries[] = {
      "sum by (hostname) (rate(m[2m]))",
      "sum by (hostname) (rate(m{hostname=~\"n1.*\"}[2m]))",
      "avg by (hostname) (m{hostname=~\"n[0-9]\",uuid=~\"[0-4]\"})",
      "sum(m)",
  };
  constexpr std::size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);
  std::size_t i = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    auto matrix = engine->eval_range(*store, kQueries[i++ % kQueryCount], 0,
                                     240 * 30000, 60000);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  if (state.thread_index() == 0) {
    engine.reset();
    store.reset();
  }
}
BENCHMARK(BM_concurrent_range_queries)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// ---------- storage-footprint benchmarks (chunked store) ----------

// A day-long regular scrape per series: the shape sealed Gorilla chunks
// are built for. Timed section is stats() (the accounting walk); the
// counters carry the storage-efficiency numbers.
void BM_storage_bytes_per_sample(benchmark::State& state) {
  int series = static_cast<int>(state.range(0));
  auto store = std::make_shared<TimeSeriesStore>();
  // Symbol footprint of THIS workload, costed with SymbolTable's own
  // per-entry accounting. The process-global table also holds whatever
  // strings earlier benchmarks in the process interned, so charging
  // stats.symbol_bytes here would make the counter depend on
  // --benchmark_filter (full run vs the CI smoke subset).
  std::set<std::string> distinct_symbols;
  for (int s = 0; s < series; ++s) {
    metrics::Labels labels =
        metrics::Labels{{"hostname", "n" + std::to_string(s % 16)},
                        {"uuid", std::to_string(s)}}
            .with_name("m");
    for (const auto& [name, value] : labels.pairs()) {
      distinct_symbols.insert(name);
      distinct_symbols.insert(value);
    }
    append_series(*store, labels, 2880, 30000,  // 24 h at 30 s
                  [](int i) { return 100.0 + (i % 60) * 0.5; });
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->stats());
  }
  auto stats = store->stats();
  std::size_t symbol_bytes =
      distinct_symbols.size() * (sizeof(std::string) +
                                 sizeof(std::string_view) + sizeof(uint32_t) +
                                 2 * sizeof(void*));
  for (const auto& sym : distinct_symbols) symbol_bytes += sym.size();
  double bytes_per_sample =
      static_cast<double>(stats.approx_bytes + symbol_bytes) /
      static_cast<double>(stats.num_samples);
  state.counters["bytes_per_sample"] = bytes_per_sample;
  state.counters["raw_bytes_per_sample"] =
      static_cast<double>(sizeof(tsdb::SamplePoint));
  state.counters["compression_ratio"] =
      static_cast<double>(sizeof(tsdb::SamplePoint)) / bytes_per_sample;
}
BENCHMARK(BM_storage_bytes_per_sample)->Arg(10)->Arg(100);

// What a new hot series costs the store: 100k six-label series of a
// 1000-node fleet (ten metric families for each of ten jobs per node),
// one sample each, appended in one batch per node. The label sets are
// interned before the measured appends, so symbol-table growth is not
// charged to the store. heap_bytes_per_new_series is the live heap the
// appends leave behind; approx_to_heap_ratio is how much of it
// StorageStats::approx_bytes accounts for. All three counters are exact
// functions of the code and the allocator.
void BM_hot_series_overhead(benchmark::State& state) {
  constexpr int kNodes = 1000;
  constexpr int kSeriesPerNode = 100;
  constexpr int kSeries = kNodes * kSeriesPerNode;
  std::vector<metrics::InternedLabels> labels;
  labels.reserve(kSeries);
  for (int s = 0; s < kSeries; ++s) {
    const int node = s / kSeriesPerNode;
    const std::string host = "jz" + std::to_string(node);
    labels.emplace_back(metrics::Labels{
        {"__name__", "ceems_compute_unit_m" + std::to_string(s % 10)},
        {"hostname", host},
        {"instance", host + ":9010"},
        {"job", "ceems"},
        {"nodegroup", "group" + std::to_string(node % 4)},
        {"uuid", std::to_string(100000 + node * 10 + (s / 10) % 10)}});
  }
  std::vector<metrics::SampleRef> samples;
  samples.reserve(kSeries);
  for (int s = 0; s < kSeries; ++s) {
    samples.push_back({&labels[static_cast<std::size_t>(s)],
                       1700000000000LL, static_cast<double>(s)});
  }
  auto fill = [&](TimeSeriesStore& store) {
    for (int node = 0; node < kNodes; ++node) {
      store.append_refs(&samples[static_cast<std::size_t>(node) *
                                 kSeriesPerNode],
                        kSeriesPerNode);
    }
  };
  {
    // Warms the append path's thread-local shard buckets.
    TimeSeriesStore warm;
    fill(warm);
  }

  int64_t heap = 0;
  uint64_t allocs = 0;
  std::size_t approx = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = std::make_unique<TimeSeriesStore>();
    const int64_t heap_before = g_heap_bytes.load(std::memory_order_relaxed);
    const uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    state.ResumeTiming();
    fill(*store);
    state.PauseTiming();
    heap = g_heap_bytes.load(std::memory_order_relaxed) - heap_before;
    allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    approx = store->stats().approx_bytes;
    store.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kSeries);
  state.counters["heap_bytes_per_new_series"] =
      static_cast<double>(heap) / kSeries;
  state.counters["allocs_per_new_series"] =
      static_cast<double>(allocs) / kSeries;
  state.counters["approx_to_heap_ratio"] =
      heap > 0 ? static_cast<double>(approx) / static_cast<double>(heap) : 0.0;
}
BENCHMARK(BM_hot_series_overhead)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// End-to-end scrape→append path: exposition text in, sealed chunks out.
// ---------------------------------------------------------------------------

// A realistic exporter body: `series` gauges across a handful of metric
// families, stable label blocks, values churning per wave so the chunk
// encoder sees real deltas. ~70 bytes/line, matching the CEEMS exporters.
std::string exposition_body(int target, int series, int wave) {
  std::string body;
  body.reserve(static_cast<std::size_t>(series) * 80);
  body += "# HELP ceems_job_power_watts per-job power draw\n";
  body += "# TYPE ceems_job_power_watts gauge\n";
  static const char* kFamilies[] = {
      "ceems_job_power_watts", "ceems_job_cpu_seconds_total",
      "ceems_job_memory_bytes", "ceems_job_gpu_util"};
  for (int s = 0; s < series; ++s) {
    body += kFamilies[s % 4];
    body += "{uuid=\"job-";
    body += std::to_string(target * 10000 + s / 4);
    body += "\",cgroup=\"slice";
    body += std::to_string(s % 7);
    body += "\"} ";
    body += std::to_string(100.0 * (target + 1) +
                           static_cast<double>((s * 13 + wave * 7) % 997));
    body += '\n';
  }
  return body;
}

struct ScrapeE2eFixture {
  static constexpr int kTargets = 8;
  static constexpr int kSeries = 400;
  static constexpr int kWaves = 16;

  std::vector<std::vector<std::string>> bodies;  // [target][wave]
  std::vector<metrics::Labels> target_labels;
  std::shared_ptr<std::atomic<int>> wave;

  ScrapeE2eFixture() : wave(std::make_shared<std::atomic<int>>(0)) {
    bodies.resize(kTargets);
    for (int t = 0; t < kTargets; ++t) {
      for (int w = 0; w < kWaves; ++w) {
        bodies[t].push_back(exposition_body(t, kSeries, w));
      }
      target_labels.push_back(
          metrics::Labels{{"instance", "bench-node-" + std::to_string(t)},
                          {"cluster", "bench"}});
    }
  }
};

// The production path: ScrapeManager's zero-copy parse (string_view line
// walk + per-target symbol-resolution cache) feeding append_refs. After
// warmup every line resolves through the cache — no label allocations,
// no symbol-table lookups — so the only steady-state heap traffic is the
// one body string per target per sweep and occasional chunk seals.
//
// Every run does the same 480 sweeps (four chunk-seal waves), so
// allocs_per_sample is exact. samples_per_second is per second of process
// CPU time, all threads together: the wall rate of a ~1 ms sweep on a
// 4-thread pool is mostly scheduling and spread 1.2-5.6 M/s between runs
// of one binary, while the CPU rate stays within a few percent. Google
// Benchmark's items_per_second still reports the wall rate.
void BM_scrape_ingest_e2e(benchmark::State& state) {
  ScrapeE2eFixture fix;
  auto clock = common::make_sim_clock(0);
  auto store = std::make_shared<TimeSeriesStore>();
  tsdb::ScrapeConfig config;
  config.parallelism = 4;
  tsdb::ScrapeManager scraper(store, clock, config);
  for (int t = 0; t < ScrapeE2eFixture::kTargets; ++t) {
    tsdb::ScrapeTarget target;
    target.labels = fix.target_labels[t];
    auto bodies = &fix.bodies[static_cast<std::size_t>(t)];
    auto wave = fix.wave;
    target.local_fetch = [bodies, wave] {
      return (*bodies)[static_cast<std::size_t>(
          wave->load(std::memory_order_relaxed) % ScrapeE2eFixture::kWaves)];
    };
    scraper.add_target(std::move(target));
  }
  auto sweep = [&] {
    clock->advance(30000);
    fix.wave->fetch_add(1, std::memory_order_relaxed);
    return scraper.scrape_all_once();
  };
  // Warm: series caches, head buffers, sweep pool.
  for (int i = 0; i < 8; ++i) sweep();

  uint64_t samples = 0;
  uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  std::clock_t cpu_before = std::clock();
  for (auto _ : state) {
    samples += sweep().samples_ingested;
  }
  double cpu_seconds = static_cast<double>(std::clock() - cpu_before) /
                       CLOCKS_PER_SEC;
  uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<int64_t>(samples));
  state.counters["samples_per_second"] =
      cpu_seconds > 0 ? static_cast<double>(samples) / cpu_seconds : 0.0;
  state.counters["allocs_per_sample"] =
      samples ? static_cast<double>(allocs) / static_cast<double>(samples)
              : 0.0;
}
BENCHMARK(BM_scrape_ingest_e2e)->Unit(benchmark::kMillisecond)
    ->Iterations(480)
    ->UseRealTime();

// Scrape sweeps over 256 small targets into a WAL-backed store
// (SimDurableDir), with the stack's default sweep width. A sweep writes
// one store shard at a time, so it logs at most two records per shard:
// wal_records_per_sweep is exact, at most 32 (scraped samples, then
// markers and self-series, per shard), where per-target appends logged
// two per target (512).
void BM_scrape_sweep_wal(benchmark::State& state) {
  constexpr int kTargets = 256;
  constexpr int kSeries = 16;
  auto clock = common::make_sim_clock(0);
  auto store = std::make_shared<TimeSeriesStore>();
  auto dir = std::make_shared<simfs::SimDurableDir>();
  tsdb::DurableTsdb durable(store, dir);
  durable.open();
  tsdb::ScrapeManager scraper(store, clock);
  auto wave = std::make_shared<std::atomic<int>>(0);
  for (int t = 0; t < kTargets; ++t) {
    tsdb::ScrapeTarget target;
    target.labels = metrics::Labels{
        {"instance", "bench-node-" + std::to_string(t)}, {"cluster", "bench"}};
    target.local_fetch = [t, wave] {
      return exposition_body(t, kSeries, wave->load(std::memory_order_relaxed));
    };
    scraper.add_target(std::move(target));
  }
  auto sweep = [&] {
    clock->advance(30000);
    wave->fetch_add(1, std::memory_order_relaxed);
    return scraper.scrape_all_once();
  };
  for (int i = 0; i < 4; ++i) sweep();  // warm: caches, series, sweep pool

  uint64_t records = 0, samples = 0, sweeps = 0;
  for (auto _ : state) {
    uint64_t before = durable.wal().stats().records;
    samples += sweep().samples_ingested;
    records += durable.wal().stats().records - before;
    ++sweeps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(samples));
  state.counters["wal_records_per_sweep"] =
      static_cast<double>(records) / static_cast<double>(sweeps);
}
BENCHMARK(BM_scrape_sweep_wal)->Unit(benchmark::kMillisecond)
    ->Iterations(200)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Exporter render: the first stage of a monitoring generation.
// ---------------------------------------------------------------------------

// One CEEMS exporter per node over a fixed mixed fleet: every node group
// (Intel and AMD CPU, GPU with and without IPMI-included GPU power), one
// to four resident jobs per node, each simulator stepped from its own
// seed. The timed loop renders every exporter without stepping, so each
// render writes the same bytes and both counters are exact.
void BM_exporter_render_fleet(benchmark::State& state) {
  constexpr int kNodes = 16;
  auto clock = common::make_sim_clock(1700000000000LL);
  std::vector<node::NodeSimPtr> nodes;
  std::vector<std::unique_ptr<exporter::Exporter>> exporters;
  for (int n = 0; n < kNodes; ++n) {
    std::string host = "jz" + std::to_string(n);
    node::NodeSpec spec = n % 4 == 0   ? node::make_intel_cpu_node(host)
                          : n % 4 == 1 ? node::make_amd_cpu_node(host)
                          : n % 4 == 2 ? node::make_v100_node(host)
                                       : node::make_a100_node(host);
    auto sim = std::make_shared<node::NodeSim>(std::move(spec), clock,
                                               100 + n);
    const int jobs = 1 + n % 4;
    for (int j = 0; j < jobs; ++j) {
      node::WorkloadPlacement placement;
      placement.job_id = 10000 + n * 10 + j;
      placement.user = "u" + std::to_string(j);
      placement.alloc_cpus = 4;
      if (j < static_cast<int>(sim->spec().gpus.size()) && n % 4 >= 2) {
        placement.gpu_ordinals = {j};
      }
      node::WorkloadBehavior behavior;
      behavior.cpu_util_mean = 0.5 + 0.1 * j;
      behavior.gpu_util_mean = 0.6;
      sim->add_workload(placement, behavior);
    }
    for (int step = 0; step < 5; ++step) sim->step(30000);
    // As in the stack's in-process fleet: no self metrics, whose RSS and
    // sweep-duration values would make the bytes vary between renders.
    exporter::ExporterConfig config;
    config.enable_self_metrics = false;
    exporters.push_back(core::make_ceems_exporter(sim, clock, config));
    nodes.push_back(std::move(sim));
  }
  auto render_all = [&] {
    std::size_t bytes = 0;
    for (auto& exp : exporters) {
      std::string body = exp->render(clock->now_ms());
      bytes += body.size();
      benchmark::DoNotOptimize(body);
    }
    return bytes;
  };
  // Warm (RAPL cursors are set on the first render) and count the samples
  // one pass writes.
  render_all();
  std::size_t samples = 0;
  for (auto& exp : exporters) {
    std::string body = exp->render(clock->now_ms());
    for (std::string_view rest = body; !rest.empty();) {
      std::size_t nl = rest.find('\n');
      if (rest[0] != '#') ++samples;
      rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    }
  }

  uint64_t renders = 0;
  std::size_t bytes = 0;
  uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    bytes += render_all();
    renders += kNodes;
  }
  uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  uint64_t passes = renders / kNodes;
  state.counters["allocs_per_rendered_sample"] =
      passes ? static_cast<double>(allocs) /
                   static_cast<double>(passes * samples)
             : 0.0;
  state.counters["exposition_bytes_per_render"] =
      renders ? static_cast<double>(bytes) / static_cast<double>(renders)
              : 0.0;
  state.counters["samples_per_render"] =
      static_cast<double>(samples) / kNodes;
}
BENCHMARK(BM_exporter_render_fleet)->Unit(benchmark::kMicrosecond);

// A fixed Jean-Zay-shaped fleet for the rule pass: every node group, two
// resident jobs per node, GPUs and eBPF traffic, values that move every
// pass but never cross an alert threshold — so each pass writes the same
// rule outputs and the per-pass counters are exact.
struct RuleFleet {
  struct Series {
    metrics::InternedLabels labels;
    double base = 0;     // gauge level, or counter rate per second
    bool counter = false;
  };
  std::vector<std::vector<Series>> nodes;  // one append batch per node

  explicit RuleFleet(int node_count) {
    static const char* kGroups[] = {"intel-cpu", "amd-cpu", "gpu-incl",
                                    "gpu-excl"};
    for (int n = 0; n < node_count; ++n) {
      std::string host = "jz" + std::to_string(n);
      std::string group = kGroups[n % 4];
      metrics::Labels base{{"hostname", host},
                           {"instance", host + ":9010"},
                           {"nodegroup", group}};
      std::vector<Series> node;
      auto add = [&](const metrics::Labels& labels, const char* name,
                     double value, bool counter) {
        node.push_back({metrics::InternedLabels(labels.with_name(name)),
                        value, counter});
      };
      add(base, "up", 1, false);
      add(base, "scrape_duration_seconds", 0.05, false);
      add(base, "ceems_ipmi_dcmi_current_watts", 400 + n % 50, false);
      add(base.with("index", "0"), "ceems_rapl_package_joules_total", 150,
          true);
      if (group == "intel-cpu" || group == "gpu-incl") {
        add(base.with("index", "0"), "ceems_rapl_dram_joules_total", 30, true);
      }
      for (const char* mode : {"user", "system", "idle", "iowait"}) {
        add(base.with("cpu", "0").with("mode", mode), "node_cpu_seconds_total",
            4, true);
      }
      add(base, "node_memory_MemTotal_bytes", 256e9, false);
      add(base, "node_memory_MemAvailable_bytes", 128e9, false);
      add(base, "ceems_compute_units", 2, false);
      bool gpu = group == "gpu-incl" || group == "gpu-excl";
      for (int g = 0; gpu && g < 2; ++g) {
        std::string gpu_uuid = "GPU-" + host + "-" + std::to_string(g);
        if (group == "gpu-incl") {
          auto dev = base.with("UUID", gpu_uuid).with("gpu", std::to_string(g));
          add(dev, "DCGM_FI_DEV_POWER_USAGE", 200, false);
          add(dev, "DCGM_FI_DEV_GPU_UTIL", 80, false);
        } else {
          add(base.with("gpu_id", std::to_string(g)), "amd_gpu_power", 2e8,
              false);
        }
      }
      for (int j = 0; j < 2; ++j) {
        auto unit = base.with("uuid", host + "-" + std::to_string(j));
        add(unit, "ceems_compute_unit_cpu_usage_seconds_total", 1 + j, true);
        add(unit, "ceems_compute_unit_memory_current_bytes", 8e9 * (j + 1),
            false);
        add(unit, "ceems_compute_unit_network_tx_bytes_total", 1e6, true);
        add(unit, "ceems_compute_unit_network_rx_bytes_total", 2e6, true);
        if (gpu) {
          std::string g = std::to_string(j);
          add(unit.with("gpu_uuid", "GPU-" + host + "-" + g).with("index", g),
              "ceems_compute_unit_gpu_index_flag", 1, false);
        }
      }
      if (n == 0) {
        add(metrics::Labels{{"provider", "rte"}}, "ceems_emissions_gCo2_kWh",
            50, false);
      }
      nodes.push_back(std::move(node));
    }
  }

  // One scrape of every node at pass `pass` (t = pass * 30 s).
  void scrape(TimeSeriesStore& store, int pass) const {
    std::vector<metrics::SampleRef> batch;
    for (const auto& node : nodes) {
      batch.clear();
      for (const auto& series : node) {
        double v = series.counter ? series.base * 30.0 * pass
                                  : series.base * (1.0 + 0.01 * (pass % 7));
        batch.push_back({&series.labels, int64_t{pass} * 30000, v});
      }
      store.append_refs(batch.data(), batch.size());
    }
  }
};

// Per-pass totals of one rule-pass benchmark run.
struct RulePassCounts {
  uint64_t wal_groups = 0;
  uint64_t wal_records = 0;
  uint64_t samples = 0;
  uint64_t allocs = 0;  // inside evaluate_all only
  uint64_t passes = 0;
};

// Times full rule passes (Eq. 1 library + eBPF refinement + shipped
// alerts) over a WAL-backed hot store on SimDurableDir, with the rule
// engine on `pool` (nullptr: inline).
RulePassCounts time_rule_passes(benchmark::State& state,
                                std::shared_ptr<common::ThreadPool> pool) {
  auto store = std::make_shared<TimeSeriesStore>();
  auto dir = std::make_shared<simfs::SimDurableDir>();
  tsdb::DurableTsdb durable(store, dir);
  durable.open();
  tsdb::promql::EngineOptions options;
  options.pool = std::move(pool);
  tsdb::RuleEngine rules(store, options);
  for (auto& group : core::jean_zay_rule_groups()) rules.add_group(group);
  for (auto& group : core::ebpf_network_rules()) rules.add_group(group);
  for (auto& group : core::ceems_alert_rules()) rules.add_group(group);
  RuleFleet fleet(64);
  int pass = 1;
  // Warm: rate() windows fill after a few scrapes.
  for (; pass <= 6; ++pass) {
    fleet.scrape(*store, pass);
    rules.evaluate_all(int64_t{pass} * 30000);
  }

  RulePassCounts counts;
  for (auto _ : state) {
    state.PauseTiming();
    fleet.scrape(*store, pass);
    tsdb::WalStats before = durable.wal().stats();
    state.ResumeTiming();
    uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    tsdb::RuleEvalStats stats = rules.evaluate_all(int64_t{pass} * 30000);
    counts.allocs +=
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    benchmark::DoNotOptimize(stats);
    state.PauseTiming();
    counts.wal_groups += durable.wal().stats().groups - before.groups;
    counts.wal_records += durable.wal().stats().records - before.records;
    counts.samples += stats.samples_written;
    ++counts.passes;
    ++pass;
    state.ResumeTiming();
  }
  return counts;
}

double per_pass(uint64_t total, const RulePassCounts& counts) {
  return static_cast<double>(total) / static_cast<double>(counts.passes);
}

// Heap allocations evaluate_all makes per sample the rules write: select,
// evaluation, output labels and the WAL batch together. String labels
// built per selected series or per sample show up here as dozens.
double allocs_per_rule_sample(const RulePassCounts& counts) {
  return counts.samples ? static_cast<double>(counts.allocs) /
                              static_cast<double>(counts.samples)
                        : 0.0;
}

// The inline pass. Each rule commits one batch, so wal_groups_per_pass
// counts the rules that wrote anything (per-sample appends would make it
// rule_samples_per_pass), and rule_samples_per_pass pins the work each
// pass does.
void BM_rule_pass_wal(benchmark::State& state) {
  RulePassCounts counts = time_rule_passes(state, nullptr);
  state.counters["wal_groups_per_pass"] = per_pass(counts.wal_groups, counts);
  state.counters["rule_samples_per_pass"] = per_pass(counts.samples, counts);
  state.counters["allocs_per_rule_sample"] = allocs_per_rule_sample(counts);
}
BENCHMARK(BM_rule_pass_wal)->Unit(benchmark::kMillisecond);

// The same pass as a conflict graph on a 4-thread pool. Concurrent rule
// batches may share a WAL group commit, so the exact counter is
// wal_records_per_pass (one record per rule that wrote anything);
// rule_samples_per_pass must equal BM_rule_pass_wal's.
void BM_rule_pass_graph(benchmark::State& state) {
  RulePassCounts counts = time_rule_passes(
      state, std::make_shared<common::ThreadPool>(4, "rules"));
  state.counters["wal_records_per_pass"] =
      per_pass(counts.wal_records, counts);
  state.counters["rule_samples_per_pass"] = per_pass(counts.samples, counts);
  state.counters["allocs_per_rule_sample"] = allocs_per_rule_sample(counts);
}
BENCHMARK(BM_rule_pass_graph)->Unit(benchmark::kMillisecond)->UseRealTime();

// One API-server updater cycle on a durable units DB (SimDurableDir):
// 256 running units aggregated over a hot store with their power series.
// A cycle commits one batch, so db_syncs_per_cycle is 1 (per-row commits
// would make it units_per_cycle), and units_per_cycle pins the rows each
// cycle writes.
void BM_updater_cycle_db(benchmark::State& state) {
  constexpr int kUnits = 256;
  auto store = std::make_shared<TimeSeriesStore>();
  auto nova = std::make_shared<apiserver::OpenstackAdapter>("cloud");
  std::vector<metrics::InternedLabels> power;
  for (int u = 0; u < kUnits; ++u) {
    std::string uuid = "vm-" + std::to_string(u);
    nova->report_vm(uuid, "user" + std::to_string(u % 16), "prj", 4,
                    8LL << 30, "ACTIVE", 0, 1, 0);
    power.emplace_back(
        metrics::Labels{{"uuid", uuid}}.with_name("ceems_job_power_watts"));
  }
  auto dir = std::make_shared<simfs::SimDurableDir>();
  auto db = reldb::Database::open(dir);
  auto clock = common::make_sim_clock(0);
  apiserver::Updater updater(*db, store, nullptr, {nova}, clock);
  int64_t now = 0;
  std::vector<metrics::SampleRef> batch;
  auto advance_one_minute = [&] {
    for (int scrape = 0; scrape < 2; ++scrape) {
      now += 30000;
      batch.clear();
      for (int u = 0; u < kUnits; ++u) {
        batch.push_back({&power[u], now, 150.0 + u % 50});
      }
      store->append_refs(batch.data(), batch.size());
    }
    clock->set(now);
  };
  advance_one_minute();
  updater.update_once();  // polls every unit and pins the window start

  uint64_t syncs = 0;
  uint64_t units = 0;
  uint64_t cycles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    advance_one_minute();
    db->checkpoint();  // so that no measured cycle auto-checkpoints
    uint64_t syncs_before = dir->sync_count();
    state.ResumeTiming();
    apiserver::UpdateStats stats = updater.update_once();
    benchmark::DoNotOptimize(stats);
    state.PauseTiming();
    syncs += dir->sync_count() - syncs_before;
    units += stats.units_upserted + stats.units_aggregated;
    ++cycles;
    state.ResumeTiming();
  }
  state.counters["db_syncs_per_cycle"] =
      static_cast<double>(syncs) / static_cast<double>(cycles);
  state.counters["units_per_cycle"] =
      static_cast<double>(units) / static_cast<double>(cycles);
}
BENCHMARK(BM_updater_cycle_db)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN, plus a default JSON report to BENCH_tsdb.json so every
// run leaves a perf-trajectory artifact without extra flags.
int main(int argc, char** argv) {
  // The distro-packaged benchmark library is compiled without NDEBUG, so the
  // built-in library_build_type context field always reads "debug" no matter
  // how this binary was built. Re-emit the key from this translation unit's
  // point of view: custom context is serialized after the built-in fields,
  // so JSON consumers (last key wins) see the build type of the benchmark
  // binary itself — which is the thing that makes the numbers meaningful.
#ifdef NDEBUG
  benchmark::AddCustomContext("library_build_type", "release");
#else
  benchmark::AddCustomContext("library_build_type", "debug");
#endif
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_tsdb.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
