#include <gtest/gtest.h>

#include <string_view>

#include "core/node_exporter_factory.h"
#include "metrics/model.h"
#include "exporter/exporter.h"
#include "http/server.h"
#include "node/node_sim.h"
#include "simfs/durable_dir.h"
#include "tsdb/scrape.h"
#include "tsdb/wal.h"

namespace ceems::tsdb {
namespace {

using common::make_sim_clock;

class ScrapeTest : public ::testing::Test {
 protected:
  ScrapeTest()
      : clock_(make_sim_clock(1000000)),
        store_(std::make_shared<TimeSeriesStore>()) {}

  std::shared_ptr<common::SimClock> clock_;
  StorePtr store_;
};

TEST_F(ScrapeTest, HttpTargetIngestedWithTargetLabels) {
  http::Server server{http::ServerConfig{}};
  server.handle("/metrics", [](const http::Request&) {
    return http::Response::text(200,
                                "# TYPE m counter\nm{mode=\"user\"} 42\n");
  });
  server.start();

  ScrapeManager manager(store_, clock_);
  ScrapeTarget target;
  target.url = server.base_url() + "/metrics";
  target.labels = metrics::Labels{{"hostname", "n1"}};
  manager.add_target(std::move(target));

  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_total, 1u);
  EXPECT_EQ(stats.scrapes_failed, 0u);
  EXPECT_EQ(stats.samples_ingested, 1u);

  auto series = store_->select({{"__name__", metrics::LabelMatcher::Op::kEq,
                                 "m"}},
                               0, clock_->now_ms());
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(*series[0].labels.get("hostname"), "n1");
  EXPECT_EQ(series[0].samples()[0].t, clock_->now_ms());

  auto up = store_->select({{"__name__", metrics::LabelMatcher::Op::kEq,
                             "up"}},
                           0, clock_->now_ms());
  ASSERT_EQ(up.size(), 1u);
  EXPECT_DOUBLE_EQ(up[0].samples()[0].v, 1);
  server.stop();
}

TEST_F(ScrapeTest, DeadTargetRecordsUpZero) {
  ScrapeManager manager(store_, clock_);
  ScrapeTarget target;
  target.url = "http://127.0.0.1:1/metrics";  // nothing listens
  target.labels = metrics::Labels{{"hostname", "dead"}};
  manager.add_target(std::move(target));

  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_failed, 1u);
  auto up = store_->select({{"__name__", metrics::LabelMatcher::Op::kEq,
                             "up"}},
                           0, clock_->now_ms());
  ASSERT_EQ(up.size(), 1u);
  EXPECT_DOUBLE_EQ(up[0].samples()[0].v, 0);
}

TEST_F(ScrapeTest, MalformedExpositionIsScrapeFailure) {
  http::Server server{http::ServerConfig{}};
  server.handle("/metrics", [](const http::Request&) {
    return http::Response::text(200, "9bad{ 1\n");
  });
  server.start();
  ScrapeManager manager(store_, clock_);
  ScrapeTarget target;
  target.url = server.base_url() + "/metrics";
  manager.add_target(std::move(target));
  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_failed, 1u);
  server.stop();
}

TEST_F(ScrapeTest, LocalTransportMatchesHttpPath) {
  ScrapeManager manager(store_, clock_);
  ScrapeTarget target;
  target.local_fetch = [] {
    return std::string("# TYPE g gauge\ng 7\n");
  };
  target.labels = metrics::Labels{{"hostname", "local1"}};
  manager.add_target(std::move(target));
  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.samples_ingested, 1u);
  auto series = store_->select({{"hostname", metrics::LabelMatcher::Op::kEq,
                                 "local1"}},
                               0, clock_->now_ms());
  // g + up + scrape_duration_seconds + ceems_http_retries_total
  EXPECT_EQ(series.size(), 4u);
}

TEST_F(ScrapeTest, LocalTransportEmptyIsFailure) {
  ScrapeManager manager(store_, clock_);
  ScrapeTarget target;
  target.local_fetch = [] { return std::string(); };
  manager.add_target(std::move(target));
  EXPECT_EQ(manager.scrape_all_once().scrapes_failed, 1u);
}

TEST_F(ScrapeTest, ManyTargetsScrapedInParallel) {
  ScrapeConfig config;
  config.parallelism = 8;
  ScrapeManager manager(store_, clock_, config);
  for (int i = 0; i < 50; ++i) {
    ScrapeTarget target;
    target.local_fetch = [i] {
      return "m{i=\"" + std::to_string(i) + "\"} " + std::to_string(i) + "\n";
    };
    target.labels = metrics::Labels{{"hostname", "n" + std::to_string(i)}};
    manager.add_target(std::move(target));
  }
  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_total, 50u);
  EXPECT_EQ(stats.samples_ingested, 50u);
  // Per target: m + up + scrape_duration_seconds + ceems_http_retries_total.
  EXPECT_EQ(store_->stats().num_series, 200u);
}

TEST_F(ScrapeTest, BasicAuthAgainstExporter) {
  auto node = std::make_shared<node::NodeSim>(
      node::make_intel_cpu_node("n1"), clock_, 1);
  exporter::ExporterConfig config;
  config.http.basic_auth = {"prom", "pw"};
  auto exp = core::make_ceems_exporter(node, clock_, config);
  exp->start();

  // Without credentials: 401 → scrape failure.
  {
    ScrapeManager manager(store_, clock_);
    ScrapeTarget target;
    target.url = exp->metrics_url();
    manager.add_target(std::move(target));
    EXPECT_EQ(manager.scrape_all_once().scrapes_failed, 1u);
  }
  // With credentials: success.
  {
    auto store = std::make_shared<TimeSeriesStore>();
    ScrapeManager manager(store, clock_);
    ScrapeTarget target;
    target.url = exp->metrics_url();
    target.auth = {"prom", "pw"};
    manager.add_target(std::move(target));
    ScrapeStats stats = manager.scrape_all_once();
    EXPECT_EQ(stats.scrapes_failed, 0u);
    EXPECT_GT(stats.samples_ingested, 10u);
  }
  exp->stop();
}

TEST_F(ScrapeTest, RetryRecoversFlakyTargetAndCountsRetries) {
  ScrapeConfig config;
  config.retries = 1;
  // Fail the first fetch attempt of every sweep; the in-sweep retry lands.
  int attempt = 0;
  config.fault_hook = [&](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    if (attempt++ % 2 == 0) fault.kind = faults::FaultKind::kIoTimeout;
    return fault;
  };
  ScrapeManager manager(store_, clock_, config);
  ScrapeTarget target;
  target.local_fetch = [] { return std::string("g 7\n"); };
  target.labels = metrics::Labels{{"instance", "flaky"}};
  manager.add_target(std::move(target));

  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_failed, 0u);
  EXPECT_EQ(stats.retries, 1u);

  auto up = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "up"}}, 0,
      clock_->now_ms());
  ASSERT_EQ(up.size(), 1u);
  EXPECT_DOUBLE_EQ(up[0].samples()[0].v, 1);
  auto retries = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq,
        "ceems_http_retries_total"}},
      0, clock_->now_ms());
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_DOUBLE_EQ(retries[0].samples()[0].v, 1);
}

TEST_F(ScrapeTest, FailedScrapeEmitsUpZeroAndStaleMarkers) {
  ScrapeConfig config;
  config.retries = 0;
  bool down = false;
  config.fault_hook = [&](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    if (down) fault.kind = faults::FaultKind::kConnectTimeout;
    return fault;
  };
  ScrapeManager manager(store_, clock_, config);
  ScrapeTarget target;
  target.local_fetch = [] { return std::string("g 7\nh 8\n"); };
  target.labels = metrics::Labels{{"instance", "i1"}};
  manager.add_target(std::move(target));

  manager.scrape_all_once();
  clock_->advance(30000);
  down = true;
  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_failed, 1u);
  EXPECT_EQ(stats.stale_markers, 2u);  // g and h

  auto up = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "up"}}, 0,
      clock_->now_ms());
  ASSERT_EQ(up.size(), 1u);
  ASSERT_EQ(up[0].samples().size(), 2u);
  EXPECT_DOUBLE_EQ(up[0].samples()[1].v, 0);

  for (const char* name : {"g", "h"}) {
    auto series = store_->select(
        {{"__name__", metrics::LabelMatcher::Op::kEq, name}}, 0,
        clock_->now_ms());
    ASSERT_EQ(series.size(), 1u) << name;
    ASSERT_EQ(series[0].samples().size(), 2u) << name;
    EXPECT_TRUE(metrics::is_stale_marker(series[0].samples()[1].v)) << name;
  }

  // A third failed sweep appends nothing further: the series are already
  // marked and live_series is empty.
  clock_->advance(30000);
  EXPECT_EQ(manager.scrape_all_once().stale_markers, 0u);
}

TEST_F(ScrapeTest, SelfSeriesAndMarkersShareOneWalRecord) {
  // Per target and sweep: the scraped batch, then one batch holding the
  // staleness markers and up / scrape_duration_seconds / retry counter.
  // A failed sweep logs only the second one.
  auto dir = std::make_shared<simfs::SimDurableDir>();
  DurableTsdb durable(store_, dir);
  durable.open();
  ScrapeConfig config;
  config.retries = 0;
  bool down = false;
  config.fault_hook = [&](std::string_view, std::string_view) {
    faults::FaultDecision fault;
    if (down) fault.kind = faults::FaultKind::kConnectTimeout;
    return fault;
  };
  ScrapeManager manager(store_, clock_, config);
  int sweep = 0;
  for (int t = 0; t < 3; ++t) {
    ScrapeTarget target;
    target.local_fetch = [&sweep] {
      return sweep == 0 ? std::string("g 1\nh 2\n") : std::string("g 1\n");
    };
    target.labels = metrics::Labels{{"instance", "i" + std::to_string(t)}};
    manager.add_target(std::move(target));
  }
  auto records = [&] { return durable.wal().stats().records; };

  uint64_t before = records();
  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.samples_ingested, 6u);  // scraped samples only
  EXPECT_EQ(records() - before, 6u);

  sweep = 1;  // h disappears: its marker rides with the self-series
  clock_->advance(30000);
  before = records();
  stats = manager.scrape_all_once();
  EXPECT_EQ(stats.samples_ingested, 3u);
  EXPECT_EQ(stats.stale_markers, 3u);
  EXPECT_EQ(records() - before, 6u);

  down = true;  // g's marker and up=0 in a single record per target
  clock_->advance(30000);
  before = records();
  stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_failed, 3u);
  EXPECT_EQ(stats.stale_markers, 3u);
  EXPECT_EQ(records() - before, 3u);

  auto up = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "up"}}, 0,
      clock_->now_ms());
  ASSERT_EQ(up.size(), 3u);
  for (const auto& view : up) {
    auto samples = view.samples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_DOUBLE_EQ(samples[2].v, 0);
  }
}

TEST_F(ScrapeTest, DisappearingSeriesGetsStaleMarker) {
  ScrapeManager manager(store_, clock_);
  int sweep = 0;
  ScrapeTarget target;
  target.local_fetch = [&] {
    return sweep == 0 ? std::string("g 1\nh 2\n") : std::string("g 1\n");
  };
  target.labels = metrics::Labels{{"instance", "i1"}};
  manager.add_target(std::move(target));

  manager.scrape_all_once();
  sweep = 1;
  clock_->advance(30000);
  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_failed, 0u);
  EXPECT_EQ(stats.stale_markers, 1u);

  auto h = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "h"}}, 0,
      clock_->now_ms());
  ASSERT_EQ(h.size(), 1u);
  ASSERT_EQ(h[0].samples().size(), 2u);
  EXPECT_TRUE(metrics::is_stale_marker(h[0].samples()[1].v));
  auto g = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "g"}}, 0,
      clock_->now_ms());
  ASSERT_EQ(g.size(), 1u);
  for (const auto& sample : g[0].samples()) {
    EXPECT_FALSE(metrics::is_stale_marker(sample.v));
  }
}

TEST_F(ScrapeTest, BackgroundLoopScrapesOnSimClock) {
  ScrapeConfig config;
  config.interval_ms = 30000;
  ScrapeManager manager(store_, clock_, config);
  ScrapeTarget target;
  target.local_fetch = [] { return std::string("g 1\n"); };
  manager.add_target(std::move(target));

  manager.start();
  for (int i = 0; i < 3; ++i) {
    while (clock_->sleeper_count() == 0) std::this_thread::yield();
    clock_->advance(30000);
  }
  manager.stop();
  EXPECT_GE(manager.stats().scrapes_total, 3u);
}

}  // namespace
}  // namespace ceems::tsdb
