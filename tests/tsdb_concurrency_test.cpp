// Concurrency coverage for the sharded TSDB: multi-threaded ingestion with
// simultaneous range queries. Asserts the two properties the aggregation
// tier depends on at fleet scale: no accepted sample is lost, and readers
// always observe time-ordered, monotone counter series (a query racing a
// write may see a prefix of a series, never a torn or reordered one).
// The LongTerm* case races replication and compaction (long-term mutex,
// then hot shard locks, and the hot purge) against hot writers and
// long-term readers. The symbol-table case races interning against the
// lock-free text() and to_labels() readers, and the slot-reuse case races
// series deletion and re-creation against selects. The scrape case races
// two-phase scrape sweeps (parallel parse, then one writer per shard) on a
// WAL-backed store against selects, the watermark and checkpoints. The
// newest-sample case races select_newest() against appends that seal
// chunks, mid-chunk purges and series deletion. These
// tests are the workload the CI ThreadSanitizer job gates on.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "metrics/symbols.h"
#include "simfs/durable_dir.h"
#include "tsdb/longterm.h"
#include "tsdb/promql_eval.h"
#include "tsdb/scrape.h"
#include "tsdb/storage.h"
#include "tsdb/wal.h"
#include "append_one.h"

using namespace ceems;
using tsdb::TimeSeriesStore;

namespace {

metrics::Labels worker_series(int worker, int series) {
  return metrics::Labels{{"worker", "w" + std::to_string(worker)},
                         {"uuid", std::to_string(series)}}
      .with_name("ctr");
}

TEST(TsdbConcurrency, ParallelIngestLosesNoSamples) {
  constexpr int kWorkers = 8;
  constexpr int kSeriesPerWorker = 16;
  constexpr int kSamplesPerSeries = 200;

  TimeSeriesStore store;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&store, w] {
      for (int i = 0; i < kSamplesPerSeries; ++i) {
        for (int s = 0; s < kSeriesPerWorker; ++s) {
          ASSERT_TRUE(
              append_one(store, worker_series(w, s), i * 1000, i * 10.0));
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  auto stats = store.stats();
  EXPECT_EQ(stats.num_series,
            static_cast<std::size_t>(kWorkers * kSeriesPerWorker));
  EXPECT_EQ(stats.num_samples, static_cast<std::size_t>(
                                   kWorkers * kSeriesPerWorker *
                                   kSamplesPerSeries));
  // Every series is complete and time-ordered.
  for (int w = 0; w < kWorkers; ++w) {
    for (int s = 0; s < kSeriesPerWorker; ++s) {
      auto result = store.select(
          {{"worker", metrics::LabelMatcher::Op::kEq, "w" + std::to_string(w)},
           {"uuid", metrics::LabelMatcher::Op::kEq, std::to_string(s)}},
          0, kSamplesPerSeries * 1000);
      ASSERT_EQ(result.size(), 1u);
      ASSERT_EQ(result[0].samples().size(),
                static_cast<std::size_t>(kSamplesPerSeries));
      for (std::size_t i = 1; i < result[0].samples().size(); ++i) {
        EXPECT_LT(result[0].samples()[i - 1].t, result[0].samples()[i].t);
      }
    }
  }
}

TEST(TsdbConcurrency, QueriesDuringIngestSeeMonotonicCounters) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kSeriesPerWriter = 8;
  constexpr int kSamplesPerSeries = 300;

  TimeSeriesStore store;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < kSamplesPerSeries; ++i) {
        for (int s = 0; s < kSeriesPerWriter; ++s) {
          append_one(store, worker_series(w, s), i * 1000, i * 10.0);
        }
      }
    });
  }

  // Readers hammer full-range selects and PromQL range queries while the
  // writers run. Counters only ever increase, so any torn read would show
  // up as a non-monotone series.
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      tsdb::promql::Engine engine;
      while (!done.load(std::memory_order_acquire)) {
        auto series = store.select(
            {{"__name__", metrics::LabelMatcher::Op::kEq, "ctr"}}, 0,
            kSamplesPerSeries * 1000);
        for (const auto& s : series) {
          for (std::size_t i = 1; i < s.samples().size(); ++i) {
            ASSERT_LT(s.samples()[i - 1].t, s.samples()[i].t);
            ASSERT_LE(s.samples()[i - 1].v, s.samples()[i].v);
          }
        }
        auto matrix = engine.eval_range(
            store, "sum by (worker) (ctr)", 0, kSamplesPerSeries * 1000,
            10 * 1000);
        for (const auto& s : matrix) {
          for (std::size_t i = 1; i < s.samples.size(); ++i) {
            ASSERT_LT(s.samples[i - 1].t, s.samples[i].t);
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);

  // Once writers are quiesced, nothing was lost.
  auto stats = store.stats();
  EXPECT_EQ(stats.num_samples, static_cast<std::size_t>(
                                   kWriters * kSeriesPerWriter *
                                   kSamplesPerSeries));
}

TEST(TsdbConcurrency, PurgeAndDeleteRaceAppends) {
  constexpr int kWriters = 4;
  constexpr int kIterations = 200;

  TimeSeriesStore store;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < kIterations; ++i) {
        append_one(store, worker_series(w, i % 4), i * 1000, i);
      }
    });
  }
  std::thread maintenance([&store] {
    for (int i = 0; i < 50; ++i) {
      store.purge_before(i * 500);
      store.delete_series(
          {{"worker", metrics::LabelMatcher::Op::kEq, "w0"}});
      store.select({{"worker", metrics::LabelMatcher::Op::kEq, "w1"}}, 0,
                   std::numeric_limits<common::TimestampMs>::max());
      store.stats();
      store.max_time();
    }
  });
  for (auto& writer : writers) writer.join();
  maintenance.join();
  // Post-condition is only internal consistency: every surviving series is
  // time-ordered.
  for (const auto& view :
       store.select({}, 0, std::numeric_limits<common::TimestampMs>::max())) {
    auto samples = view.samples();
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_LT(samples[i - 1].t, samples[i].t);
    }
  }
}

TEST(TsdbConcurrency, SelectNewestRacesSealsPurgeAndDelete) {
  // Writers append past the seal threshold again and again while
  // maintenance purges mid-chunk and deletes series that the writers then
  // re-create. Every newest sample a reader gets must be a sample some
  // writer wrote (v == t / 1000), inside the window, with labels sorted.
  constexpr int kWriters = 2;
  constexpr int kSamples = 600;  // five sealed chunks per series
  TimeSeriesStore store;
  std::atomic<int> progress{0};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kSamples; ++i) {
        for (int s = 0; s < 4; ++s) {
          append_one(store, worker_series(w, s), int64_t{i} * 1000, i);
        }
        if (w == 0) progress.store(i);
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_left.load() > 0) {
      const int now = progress.load();
      store.purge_before(int64_t{now - 150} * 1000 + 500);
      store.delete_series({{"worker", metrics::LabelMatcher::Op::kEq, "w1"},
                           {"uuid", metrics::LabelMatcher::Op::kEq, "3"}});
      std::this_thread::yield();
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      while (writers_left.load() > 0) {
        const int64_t at = int64_t{progress.load()} * 1000;
        const int64_t lookback = r == 0 ? 300000 : 2500;
        std::vector<metrics::LabelMatcher> matchers;
        if (r == 1) {
          matchers = {{"worker", metrics::LabelMatcher::Op::kNe, "w9"}};
        }
        auto newest = store.select_newest(matchers, at - lookback, at);
        for (std::size_t i = 0; i < newest.size(); ++i) {
          const auto& sample = newest[i].sample;
          EXPECT_GE(sample.t, at - lookback);
          EXPECT_LE(sample.t, at);
          EXPECT_EQ(sample.v, static_cast<double>(sample.t / 1000));
          if (i > 0) {
            EXPECT_TRUE(newest[i - 1].labels < newest[i].labels);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Writer 0's series all end at the last sample.
  auto newest = store.select_newest(
      {{"worker", metrics::LabelMatcher::Op::kEq, "w0"}}, 0,
      std::numeric_limits<common::TimestampMs>::max());
  ASSERT_EQ(newest.size(), 4u);
  for (const auto& series : newest) {
    EXPECT_EQ(series.sample.t, int64_t{kSamples - 1} * 1000);
  }
}

TEST(TsdbConcurrency, SymbolInternRacesTextAndToLabels) {
  metrics::SymbolTable& table = metrics::SymbolTable::global();
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 4000;  // together they cross view blocks
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&table, &writers_left, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        std::string text =
            "intern_race_" + std::to_string(w) + "_" + std::to_string(i);
        uint32_t id = table.intern(text);
        EXPECT_EQ(table.text(id), text);
        // Interning through labels races the same table.
        metrics::Labels labels =
            metrics::Labels{{"race_value", text}}.with_name("race_m");
        EXPECT_EQ(metrics::InternedLabels(labels).to_labels(), labels);
      }
      writers_left.fetch_sub(1);
    });
  }
  // Readers resolve the newest ids while they are being published: every
  // id below size() reads back as the string that interns to it.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&table, &writers_left] {
      while (writers_left.load() > 0) {
        const auto size = static_cast<uint32_t>(table.size());
        for (uint32_t id = size > 32 ? size - 32 : 0; id < size; ++id) {
          std::string_view text = table.text(id);
          EXPECT_EQ(table.intern(text), id);
        }
        EXPECT_TRUE(table.text(size + 1000000).empty());
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(TsdbConcurrency, SlotReuseRacesSelects) {
  // The writer keeps deleting the oldest job and creating a new one, so
  // freed slots are reused while readers select by job; a posting that
  // still named a reused id would hand a reader another job's series.
  constexpr int kJobs = 300;
  constexpr int kLive = 8;
  TimeSeriesStore store;
  auto job_labels = [](int job, int metric) {
    return metrics::Labels{{"uuid", "slot-job-" + std::to_string(job)},
                           {"hostname", "n" + std::to_string(job % 3)}}
        .with_name("slot_m" + std::to_string(metric));
  };
  std::atomic<int> newest{-1};
  std::thread writer([&] {
    for (int job = 0; job < kJobs; ++job) {
      for (int metric = 0; metric < 4; ++metric) {
        append_one(store, job_labels(job, metric), 1000, job);
      }
      newest.store(job);
      if (job >= kLive) {
        store.delete_series({{"uuid", metrics::LabelMatcher::Op::kEq,
                              "slot-job-" + std::to_string(job - kLive)}});
      }
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (newest.load() < kJobs - 1) {
        const int job = std::max(0, newest.load() - r * 3);
        const std::string uuid = "slot-job-" + std::to_string(job);
        for (const auto& series : store.select_newest(
                 {{"uuid", metrics::LabelMatcher::Op::kEq, uuid}}, 0, 2000)) {
          EXPECT_EQ(series.labels.get("uuid"), uuid);
          EXPECT_EQ(series.sample.v, job);
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(store.stats().num_series, std::size_t{kLive} * 4);
}

TEST(TsdbConcurrency, ParallelRangeEvalMatchesSerialBitForBit) {
  TimeSeriesStore store;
  for (int h = 0; h < 12; ++h) {
    for (int s = 0; s < 6; ++s) {
      auto labels = metrics::Labels{{"hostname", "n" + std::to_string(h)},
                                    {"uuid", std::to_string(s)}}
                        .with_name("m");
      for (int i = 0; i < 240; ++i) {
        append_one(store, labels, i * 30000, i * 7.0 + h * 0.25 + s * 0.125);
      }
    }
  }

  tsdb::promql::EngineOptions serial_options;
  tsdb::promql::Engine serial(serial_options);

  tsdb::promql::EngineOptions parallel_options;
  parallel_options.pool = std::make_shared<common::ThreadPool>(8, "eval");
  tsdb::promql::Engine parallel(parallel_options);

  for (const std::string query :
       {"sum by (hostname) (rate(m[2m]))", "avg(m)", "m * 2",
        "topk(3, sum by (hostname) (m))"}) {
    auto expected = serial.eval_range(store, query, 0, 240 * 30000, 30000);
    auto actual = parallel.eval_range(store, query, 0, 240 * 30000, 30000);
    ASSERT_EQ(expected.size(), actual.size()) << query;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].labels, actual[i].labels) << query;
      ASSERT_EQ(expected[i].samples.size(), actual[i].samples.size())
          << query;
      for (std::size_t j = 0; j < expected[i].samples.size(); ++j) {
        EXPECT_EQ(expected[i].samples[j].t, actual[i].samples[j].t) << query;
        // Bit-identical, not approximately equal.
        EXPECT_EQ(expected[i].samples[j].v, actual[i].samples[j].v) << query;
      }
    }
  }
}

TEST(TsdbConcurrency, ConcurrentRangeQueriesDuringWrites) {
  auto store = std::make_shared<TimeSeriesStore>();
  for (int s = 0; s < 32; ++s) {
    auto labels = metrics::Labels{{"uuid", std::to_string(s)}}.with_name("m");
    for (int i = 0; i < 50; ++i) append_one(*store, labels, i * 1000, i);
  }

  tsdb::promql::EngineOptions options;
  options.pool = std::make_shared<common::ThreadPool>(4, "eval");
  tsdb::promql::Engine engine(options);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    auto labels = metrics::Labels{{"uuid", "w"}}.with_name("m");
    for (int i = 0; i < 500; ++i) append_one(*store, labels, i * 1000, i);
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> queriers;
  for (int q = 0; q < 4; ++q) {
    queriers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto matrix =
            engine.eval_range(*store, "sum(m)", 0, 49 * 1000, 1000);
        ASSERT_EQ(matrix.size(), 1u);
        // Sums over monotone counters must themselves be monotone.
        for (std::size_t i = 1; i < matrix[0].samples.size(); ++i) {
          ASSERT_LE(matrix[0].samples[i - 1].v, matrix[0].samples[i].v);
        }
      }
    });
  }
  writer.join();
  for (auto& querier : queriers) querier.join();
}

TEST(LongTermConcurrency, SyncAndCompactRaceHotWritesAndReads) {
  constexpr int kWriters = 2;
  constexpr int kSeriesPerWriter = 24;
  constexpr int kSteps = 150;
  constexpr int64_t kStepMs = 30000;

  auto hot_ptr = std::make_shared<TimeSeriesStore>();
  TimeSeriesStore& hot = *hot_ptr;
  tsdb::LongTermConfig config;
  config.downsample_after_ms = 5 * common::kMillisPerMinute;
  config.levels = {{common::kMillisPerMinute, 0},
                   {5 * common::kMillisPerMinute, 0}};
  tsdb::LongTermStore lt(hot_ptr, config);

  std::atomic<int> writers_done{0};
  std::atomic<int> syncs{0};
  std::atomic<int64_t> newest{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<metrics::InternedLabels> labels;
      for (int s = 0; s < kSeriesPerWriter; ++s) {
        labels.emplace_back(worker_series(w, s));
      }
      std::vector<metrics::SampleRef> batch;
      for (int i = 1; i <= kSteps; ++i) {
        batch.clear();
        for (const auto& series : labels) {
          batch.push_back({&series, i * kStepMs, i * 10.0});
        }
        // Pace the writers to the syncer so replication, compaction and
        // purges interleave with ingestion for the whole run.
        while (syncs.load() < i / 4) std::this_thread::yield();
        hot.append_refs(batch.data(), batch.size());
        int64_t t = i * kStepMs;
        int64_t seen = newest.load();
        while (seen < t && !newest.compare_exchange_weak(seen, t)) {
        }
      }
      writers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_done.load() < kWriters) {
      lt.sync_from(hot);
      lt.compact(newest.load());
      syncs.fetch_add(1);
    }
  });
  std::atomic<bool> torn{false};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (writers_done.load() < kWriters) {
        for (const auto& view :
             lt.select({{"__name__", metrics::LabelMatcher::Op::kEq, "ctr"}},
                       0, std::numeric_limits<common::TimestampMs>::max())) {
          auto samples = view.samples();
          for (std::size_t i = 1; i < samples.size(); ++i) {
            if (samples[i - 1].t >= samples[i].t ||
                samples[i - 1].v > samples[i].v) {
              torn.store(true);
            }
          }
        }
        for (int64_t res : lt.agg_resolutions()) {
          int64_t end = (newest.load() / res) * res;
          lt.select_agg(res, {}, end - 4 * res, end);
        }
        lt.stats();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GE(syncs.load(), kSteps / 4);

  // A lagging writer's batch lands behind a cursor another writer
  // advanced and is rejected at the watermark, so completeness is not
  // asserted here — only that reads stay time-ordered with the newest
  // cursor, and that every sample is either stored or counted as out of
  // bounds (compaction purged the rest).
  lt.sync_from(hot);
  EXPECT_EQ(lt.sync_cursor(), kSteps * kStepMs);
  EXPECT_EQ(hot.watermark(), kSteps * kStepMs);
  EXPECT_LE(hot.stats().num_samples + hot.stats().out_of_bounds,
            static_cast<std::size_t>(kWriters * kSeriesPerWriter * kSteps));
  auto views = lt.select({}, 0, std::numeric_limits<common::TimestampMs>::max());
  EXPECT_FALSE(views.empty());
  EXPECT_LE(views.size(),
            static_cast<std::size_t>(kWriters * kSeriesPerWriter));
  for (const auto& view : views) {
    auto samples = view.samples();
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_LT(samples[i - 1].t, samples[i].t);
    }
  }
}

TEST(TsdbConcurrency, ScrapeSweepsRaceReadsWatermarkAndCheckpoints) {
  constexpr int kTargets = 16;
  constexpr int kSeries = 24;
  constexpr int kSweeps = 40;

  auto clock = common::make_sim_clock(0);
  auto store = std::make_shared<TimeSeriesStore>();
  auto dir = std::make_shared<simfs::SimDurableDir>();
  tsdb::DurableTsdb durable(store, dir);
  durable.open();
  std::atomic<int> sweep{0};
  tsdb::ScrapeManager manager(store, clock);  // default width: 8 workers
  for (int t = 0; t < kTargets; ++t) {
    tsdb::ScrapeTarget target;
    target.labels = metrics::Labels{{"instance", "n" + std::to_string(t)}};
    target.local_fetch = [t, &sweep] {
      int i = sweep.load();
      std::string body;
      for (int s = 0; s < kSeries; ++s) {
        body += "ctr{uuid=\"" + std::to_string(s) + "\"} " +
                std::to_string(i * 10 + t) + "\n";
        // A gauge that comes and goes, so sweeps write staleness markers.
        if ((i + s) % 3 != 0) {
          body += "gauge{uuid=\"" + std::to_string(s) + "\"} 1\n";
        }
      }
      return body;
    };
    manager.add_target(std::move(target));
  }

  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    for (int i = 1; i <= kSweeps; ++i) {
      sweep.store(i);
      clock->advance(30000);
      manager.scrape_all_once();
    }
    done.store(true);
  });
  std::atomic<bool> torn{false};
  std::thread reader([&] {
    while (!done.load()) {
      for (const auto& view :
           store->select({{"__name__", metrics::LabelMatcher::Op::kEq, "ctr"}},
                         0, std::numeric_limits<common::TimestampMs>::max())) {
        auto samples = view.samples();
        for (std::size_t i = 1; i < samples.size(); ++i) {
          if (samples[i - 1].t >= samples[i].t ||
              samples[i - 1].v > samples[i].v) {
            torn.store(true);
          }
        }
      }
      store->select_interned(0, std::numeric_limits<common::TimestampMs>::max());
    }
  });
  std::thread syncer([&] {
    // The long-term sync cursor's step: raises the watermark to the
    // newest sample, so a sweep's later shards may land out of bounds.
    common::TimestampMs cursor = 0;
    while (!done.load()) {
      auto since = store->advance_watermark(cursor + 1);
      if (since.samples > 0) cursor = since.newest;
      std::this_thread::yield();
    }
  });
  std::atomic<int> checkpoints{0};
  std::thread checkpointer([&] {
    while (!done.load()) {
      if (durable.checkpoint()) checkpoints.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (std::thread* thread : {&sweeper, &reader, &syncer, &checkpointer}) {
    thread->join();
  }
  EXPECT_FALSE(torn.load());
  EXPECT_GT(checkpoints.load(), 0);
  EXPECT_GT(manager.stats().stale_markers, 0u);

  // Every write is in the snapshot or in a record after it, whole: the
  // store recovered from the log is the live store, byte for byte.
  auto copy = std::make_shared<simfs::SimDurableDir>();
  for (const auto& name : dir->list()) copy->replace(name, *dir->read(name));
  auto recovered = std::make_shared<TimeSeriesStore>();
  tsdb::DurableTsdb(recovered, copy).open();
  EXPECT_EQ(recovered->snapshot_bytes(), store->snapshot_bytes());
}

}  // namespace
