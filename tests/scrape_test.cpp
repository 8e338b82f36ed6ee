#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string_view>

#include "common/byte_codec.h"
#include "common/fnv1a.h"
#include "common/logging.h"
#include "core/node_exporter_factory.h"
#include "metrics/model.h"
#include "metrics/registry.h"
#include "exporter/exporter.h"
#include "http/server.h"
#include "metrics/text_format.h"
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

TEST_F(ScrapeTest, MultiLineHelpTextKeepsTargetUp) {
  auto registry = std::make_shared<metrics::Registry>();
  registry
      ->gauge("ceems_doc_gauge",
              "First line.\nsecond line with a \\ backslash",
              metrics::Labels{{"kind", "doc"}})
      ->set(5);
  ScrapeManager manager(store_, clock_);
  ScrapeTarget target;
  target.local_fetch = [registry] {
    return metrics::encode_families(registry->collect());
  };
  target.labels = metrics::Labels{{"hostname", "doc1"}};
  manager.add_target(std::move(target));
  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_failed, 0u);
  EXPECT_EQ(stats.samples_ingested, 1u);
  auto up = store_->select(
      {{"__name__", metrics::LabelMatcher::Op::kEq, "up"},
       {"hostname", metrics::LabelMatcher::Op::kEq, "doc1"}},
      0, clock_->now_ms());
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].samples().back().v, 1);
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
  // Per store shard and sweep: one record of the scraped samples in that
  // shard, then one of the staleness markers and up /
  // scrape_duration_seconds / retry counter in it. A failed sweep logs
  // only the second kind.
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
  // The records a sweep logs: one per shard holding a scraped sample of
  // the `scraped` metrics, one per shard holding a marker or self-series
  // of the `tail` metrics, over the three targets.
  auto expected_records = [](std::vector<std::string> scraped,
                             std::vector<std::string> tail) {
    std::set<std::size_t> scraped_shards, tail_shards;
    for (int t = 0; t < 3; ++t) {
      Labels target{{"instance", "i" + std::to_string(t)}};
      for (const auto& name : scraped) {
        scraped_shards.insert(TimeSeriesStore::shard_of(
            InternedLabels(target.with_name(name)).fingerprint()));
      }
      for (const auto& name : tail) {
        tail_shards.insert(TimeSeriesStore::shard_of(
            InternedLabels(target.with_name(name)).fingerprint()));
      }
    }
    return scraped_shards.size() + tail_shards.size();
  };
  const std::vector<std::string> self = {"up", "scrape_duration_seconds",
                                         "ceems_http_retries_total"};
  auto with_self = [&](std::string name) {
    std::vector<std::string> names = self;
    names.push_back(std::move(name));
    return names;
  };

  uint64_t before = records();
  ScrapeStats stats = manager.scrape_all_once();
  EXPECT_EQ(stats.samples_ingested, 6u);  // scraped samples only
  EXPECT_EQ(records() - before, expected_records({"g", "h"}, self));

  sweep = 1;  // h disappears: its marker rides with the self-series
  clock_->advance(30000);
  before = records();
  stats = manager.scrape_all_once();
  EXPECT_EQ(stats.samples_ingested, 3u);
  EXPECT_EQ(stats.stale_markers, 3u);
  EXPECT_EQ(records() - before, expected_records({"g"}, with_self("h")));

  down = true;  // g's marker and up=0 share their shards' second records
  clock_->advance(30000);
  before = records();
  stats = manager.scrape_all_once();
  EXPECT_EQ(stats.scrapes_failed, 3u);
  EXPECT_EQ(stats.stale_markers, 3u);
  EXPECT_EQ(records() - before, expected_records({}, with_self("g")));

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

// ---------- zero-copy parser vs metrics::parse_exposition ----------
//
// ScrapeManager's zero-copy parser promises byte-for-byte the same
// accept/reject rules as metrics::parse_exposition, and the same samples.
// Random exposition bodies, and the same bodies with one mutation each,
// go through a local_fetch target and through the reference path
// (parse_exposition, then the target labels merged into every sample);
// the verdicts must agree and accepted bodies must store bitwise-equal
// samples (NaN payloads included).

// One exposition line: a comment (text only) or a sample split into the
// parts the mutations edit.
struct ExpoLine {
  std::string comment;
  std::string series;  // name plus optional label block
  std::string sep = " ";
  std::string value;
  std::string ts;  // empty: no exposition timestamp

  std::string render() const {
    if (series.empty()) return comment;
    std::string out = series + sep + value;
    if (!ts.empty()) out += " " + ts;
    return out;
  }
};

ExpoLine comment_line(std::string text) {
  ExpoLine line;
  line.comment = std::move(text);
  return line;
}

template <typename T, std::size_t N>
const T& pick(std::mt19937_64& rng, const T (&items)[N]) {
  return items[rng() % N];
}

std::string random_label_value(std::mt19937_64& rng) {
  // Escapes and the bytes the quote-aware key scan must see through.
  static const char* kPieces[] = {"a",  "job-7", "x y", "}",    ",",
                                  "=",  "{",     "0",   "\\\\", "\\\"",
                                  "\\n", "\xc3\xa9", "slice/1"};
  std::string value;
  for (int n = static_cast<int>(rng() % 4); n > 0; --n) {
    value += pick(rng, kPieces);
  }
  return value;
}

ExpoLine random_sample_line(std::mt19937_64& rng) {
  static const char* kNames[] = {"ceems_job_power_watts",
                                 "node_cpu_seconds_total", "m", "a:b_c"};
  // "instance" collides with a target label: the target's value wins.
  static const char* kLabelNames[] = {"uuid", "cgroup", "mode", "instance",
                                      "le"};
  static const char* kValues[] = {"1",    "-2.5", "1e3",  "0.1", "NaN",
                                  "+Inf", "-Inf", "1e-300", "42"};
  ExpoLine line;
  line.series = pick(rng, kNames);
  int labels = static_cast<int>(rng() % 4);
  if (labels > 0 || rng() % 4 == 0) {
    line.series += '{';
    for (int l = 0; l < labels; ++l) {
      if (l > 0) line.series += rng() % 3 == 0 ? ", " : ",";
      line.series += pick(rng, kLabelNames);
      line.series += "=\"" + random_label_value(rng) + "\"";
    }
    if (labels > 0 && rng() % 5 == 0) line.series += ',';
    line.series += '}';
  }
  if (rng() % 4 == 0) line.sep = "\t";
  line.value = pick(rng, kValues);
  if (rng() % 4 == 0) {
    line.ts = std::to_string(1'700'000'000'000 +
                             static_cast<int64_t>(rng() % 100'000));
  }
  return line;
}

std::vector<ExpoLine> random_body(std::mt19937_64& rng) {
  std::vector<ExpoLine> lines;
  lines.push_back(comment_line("# HELP ceems_job_power_watts Power."));
  lines.push_back(comment_line("# TYPE ceems_job_power_watts gauge"));
  for (int n = 1 + static_cast<int>(rng() % 12); n > 0; --n) {
    lines.push_back(random_sample_line(rng));
  }
  return lines;
}

std::string render_body(const std::vector<ExpoLine>& lines,
                        std::mt19937_64& rng) {
  const char* newline = rng() % 5 == 0 ? "\r\n" : "\n";
  std::string body;
  for (const auto& line : lines) {
    if (rng() % 10 == 0) body += "  ";
    body += line.render();
    body += newline;
    if (rng() % 10 == 0) body += newline;  // blank line
  }
  return body;
}

enum class Mutation {
  kNone,
  kTruncatedLabelBlock,
  kUnquotedValue,
  kBadFloat,
  kEscape,
  kComment,
  kTimestamp,
  kDuplicateSeries,
  kInvalidName,
};

constexpr Mutation kMutations[] = {
    Mutation::kNone,          Mutation::kTruncatedLabelBlock,
    Mutation::kUnquotedValue, Mutation::kBadFloat,
    Mutation::kEscape,        Mutation::kComment,
    Mutation::kTimestamp,     Mutation::kDuplicateSeries,
    Mutation::kInvalidName};

// Index of a random sample line (the body always has one).
std::size_t random_sample(const std::vector<ExpoLine>& lines,
                          std::mt19937_64& rng) {
  std::vector<std::size_t> samples;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].series.empty()) samples.push_back(i);
  }
  return samples[rng() % samples.size()];
}

void mutate(std::vector<ExpoLine>& lines, Mutation mutation,
            std::mt19937_64& rng) {
  ExpoLine& line = lines[random_sample(lines, rng)];
  std::string& series = line.series;
  std::size_t brace = series.find('{');
  std::size_t quote = series.find("=\"");
  switch (mutation) {
    case Mutation::kNone:
      return;
    case Mutation::kTruncatedLabelBlock:
      if (brace == std::string::npos) {
        series += "{uuid=\"1\"}";
        brace = series.find('{');
      }
      // Cut anywhere inside the block, before its closing '}'.
      series.resize(brace + 1 + rng() % (series.size() - brace - 1));
      return;
    case Mutation::kUnquotedValue:
      if (quote == std::string::npos) {
        series += "{uuid=7}";
      } else {
        series.erase(quote + 1, 1);
      }
      return;
    case Mutation::kBadFloat: {
      static const char* kBad[] = {"1.2.3", "abc", "1e", "--1", "0x", "1,5"};
      line.value = pick(rng, kBad);
      return;
    }
    case Mutation::kEscape: {
      static const char* kEscapes[] = {"\\\\", "\\\"", "\\n", "\\t", "\\}",
                                       "\\{"};
      if (quote == std::string::npos) {
        series += "{uuid=\"\"}";
        quote = series.find("=\"");
      }
      series.insert(quote + 2, pick(rng, kEscapes));
      return;
    }
    case Mutation::kComment: {
      static const char* kComments[] = {"# EOF", "#", "# TYPE m counter",
                                        "#comment {a=\"", "# HELP m"};
      ExpoLine comment = comment_line(pick(rng, kComments));
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng() % (lines.size() + 1)),
                   comment);
      return;
    }
    case Mutation::kTimestamp: {
      static const char* kStamps[] = {"0",   "-5",  "1700000000123",
                                      "12x", "1.5", "99999999999999999999"};
      line.ts = pick(rng, kStamps);
      return;
    }
    case Mutation::kDuplicateSeries: {
      ExpoLine copy = line;
      if (rng() % 2 == 0) copy.value = "7";
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng() % (lines.size() + 1)),
                   copy);
      return;
    }
    case Mutation::kInvalidName:
      if (brace != std::string::npos && quote != std::string::npos &&
          rng() % 2 == 0) {
        series.insert(brace + 1, "1bad=\"x\",");
      } else {
        series.insert(0, "9");
      }
      return;
  }
}

// The reference scrape path: the strict parser, then the target labels
// merged into every sample. nullopt when the body is rejected.
std::optional<std::vector<metrics::Sample>> reference_scrape(
    const std::string& body, const Labels& target_labels,
    common::TimestampMs now, bool honor_timestamps) {
  metrics::ParsedExposition parsed;
  try {
    parsed = metrics::parse_exposition(body);
  } catch (const metrics::ExpositionParseError&) {
    return std::nullopt;
  }
  for (auto& sample : parsed.samples) {
    for (const auto& [name, value] : target_labels.pairs()) {
      sample.labels = sample.labels.with(name, value);
    }
    if (!honor_timestamps || sample.timestamp_ms == 0) {
      sample.timestamp_ms = now;
    }
  }
  return std::move(parsed.samples);
}

std::size_t append_samples(TimeSeriesStore& store,
                           const std::vector<metrics::Sample>& samples) {
  std::vector<metrics::SampleRef> refs;
  for (const auto& sample : samples) {
    refs.push_back({&sample.labels, sample.timestamp_ms, sample.value});
  }
  return store.append_refs(refs.data(), refs.size());
}

// Every scraped (non-self) series with each sample's raw value bits.
std::string scraped_digest(const TimeSeriesStore& store) {
  std::string out;
  for (const auto& view : store.select(
           {{"__name__", metrics::LabelMatcher::Op::kRegexNoMatch,
             "up|scrape_duration_seconds|ceems_http_retries_total"}},
           std::numeric_limits<common::TimestampMs>::min(),
           std::numeric_limits<common::TimestampMs>::max())) {
    out += view.labels.to_labels().to_string() + "\n";
    for (const auto& sample : view.samples()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &sample.v, sizeof(bits));
      out += "  " + std::to_string(sample.t) + " " + std::to_string(bits) +
             "\n";
    }
  }
  return out;
}

TEST(ScrapeParseDifferential, ZeroCopyParserAgreesWithParseExposition) {
  const Labels target_labels{{"instance", "node-1:9010"},
                             {"hostname", "node-1"}};
  // Every rejected body logs a scrape warning; keep the output readable.
  struct QuietLogs {
    common::LogLevel saved = common::log_level();
    QuietLogs() { common::set_log_level(common::LogLevel::kError); }
    ~QuietLogs() { common::set_log_level(saved); }
  } quiet;
  std::size_t accepted = 0, rejected = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    const bool honor = seed % 2 == 0;
    for (int b = 0; b < 20; ++b) {
      const std::vector<ExpoLine> base = random_body(rng);
      const std::string valid = render_body(base, rng);
      for (Mutation mutation : kMutations) {
        std::vector<ExpoLine> lines = base;
        mutate(lines, mutation, rng);
        const std::string body = render_body(lines, rng);
        SCOPED_TRACE("seed " + std::to_string(seed) + " body " +
                     std::to_string(b) + " mutation " +
                     std::to_string(static_cast<int>(mutation)) + ":\n" +
                     body);

        auto clock = make_sim_clock(1'000'000);
        auto store = std::make_shared<TimeSeriesStore>();
        TimeSeriesStore reference;
        ScrapeConfig config;
        config.parallelism = 1;
        config.retries = 0;
        config.honor_timestamps = honor;
        ScrapeManager manager(store, clock, config);
        auto served = std::make_shared<std::string>(body);
        ScrapeTarget target;
        target.labels = target_labels;
        target.local_fetch = [served] { return *served; };
        manager.add_target(std::move(target));

        // Two sweeps of the same body: the first resolves every series
        // on a cache miss, the second through the series cache.
        for (int sweep = 0; sweep < 2; ++sweep) {
          clock->advance(30'000);
          auto expected =
              reference_scrape(body, target_labels, clock->now_ms(), honor);
          ScrapeStats stats = manager.scrape_all_once();
          ASSERT_EQ(stats.scrapes_failed, expected ? 0u : 1u)
              << "sweep " << sweep;
          if (expected) {
            EXPECT_EQ(stats.samples_ingested,
                      append_samples(reference, *expected))
                << "sweep " << sweep;
          }
        }
        EXPECT_EQ(scraped_digest(*store), scraped_digest(reference));
        (reference_scrape(body, target_labels, 0, honor) ? accepted
                                                         : rejected)++;

        // The same verdict when the cache was warmed by the unmutated
        // body, so a mutated line can hit a cached series key.
        *served = valid;
        clock->advance(30'000);
        manager.scrape_all_once();
        *served = body;
        clock->advance(30'000);
        bool expect_ok =
            reference_scrape(body, target_labels, clock->now_ms(), honor)
                .has_value();
        EXPECT_EQ(manager.scrape_all_once().scrapes_failed,
                  expect_ok ? 0u : 1u)
            << "warm cache";
      }
    }
  }
  // Both verdicts are well represented.
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 500u);
}

}  // namespace

// ---------- two-phase sweep vs per-target appends ----------
//
// A sweep buffers every target's writes (phase 1), then writes them one
// store shard at a time (phase 2). The oracle appends the same buffers
// the way each target once wrote them: append_refs(batch), then
// append_refs(tail), target by target, into a second store. Both stores
// must agree bit for bit after every sweep. The oracle reads the
// manager's own buffers, since scrape_duration_seconds is wall-clock time
// and two managers never measure the same values.

// Friend of ScrapeManager (declared in scrape.h).
struct ScrapeSweepPeer {
  struct Buffered {
    const std::vector<metrics::SampleRef>* batch;
    const std::vector<metrics::SampleRef>* tail;
  };
  static std::vector<Buffered> buffered(const ScrapeManager& manager) {
    std::lock_guard lock(manager.targets_mu_);
    std::vector<Buffered> out;
    for (const auto& state : manager.targets_) {
      out.push_back({&state->batch, &state->tail});
    }
    return out;
  }
  // Files other bytes under the FNV-1a hash of `raw_key` in target
  // `target`'s series cache, so the next sweep resolves that line through
  // the overflow path. The entry is dated to the last sweep, so the
  // eviction scan keeps it; call before every sweep.
  static void plant_collision(ScrapeManager& manager, std::size_t target,
                              std::string_view raw_key) {
    std::lock_guard lock(manager.targets_mu_);
    auto& state = *manager.targets_[target];
    auto& entry = state.series_cache[common::fnv1a(raw_key)];
    entry.raw_key = std::string(raw_key) + " (other bytes)";
    entry.last_seen = state.sweep_gen;
    entry.live = false;
  }
};

namespace {

constexpr int kFleetTargets = 10;
constexpr int kFleetSweeps = 60;
constexpr std::string_view kCollidingKey = "ceems_job_gpu_util{uuid=\"job-600\"}";

// Target n<t>'s exposition body at `sweep`.
std::string fleet_body(int t, int sweep) {
  static const char* kFamilies[] = {"ceems_job_power_watts",
                                    "node_cpu_seconds_total",
                                    "ceems_job_memory_bytes"};
  std::string body = "# TYPE ceems_job_power_watts gauge\n";
  for (int k = 0; k < 8; ++k) {
    // Series k comes and goes with a period of k + 2 sweeps.
    if ((sweep / (k + 2) + t + k) % 4 == 0) continue;
    body += kFamilies[k % 3];
    body += "{uuid=\"job-" + std::to_string(t * 100 + k) + "\"} ";
    body += std::to_string(0.25 * (sweep * 7 + k * 13 + t)) + "\n";
  }
  switch (t) {
    case 2:  // Lines labelled like two of the target's self-series.
      if (sweep % 3 != 0) body += "up 5\n";
      body += "scrape_duration_seconds 0.125\n";
      break;
    case 5:  // A malformed line fails the scrape.
      if (sweep % 7 == 5) body += "bad{uuid=\"x\" 1\n";
      break;
    case 6:  // Resolved through the overflow path (plant_collision).
      if (sweep % 4 != 1) body += std::string(kCollidingKey) + " 3\n";
      break;
    case 7:  // An empty body fails the scrape, after a retry.
      if (sweep % 9 == 4) return "";
      break;
    case 8:  // One series twice in a body: the later value wins.
      body += "dup 1\ndup 2\n";
      break;
  }
  return body;
}

// The sweep's failures and retries as the fleet plans them: n3 is down
// (every attempt) on every sixth sweep, n4 recovers on its retry on odd
// sweeps, n5's malformed line and n7's empty body fail their sweeps.
ScrapeStats planned_stats(int sweep) {
  ScrapeStats stats;
  stats.scrapes_total = kFleetTargets;
  bool n3_down = sweep % 6 == 3, n5_bad = sweep % 7 == 5,
       n7_empty = sweep % 9 == 4;
  stats.scrapes_failed = n3_down + n5_bad + n7_empty;
  stats.retries = n3_down + (sweep % 2 == 1) + n7_empty;
  return stats;
}

// snapshot_bytes() cut into its per-series records, sorted: equal for two
// stores holding the same series with the same sealed chunks and heads,
// in whatever order their slots were created.
std::vector<std::string> snapshot_records(const std::string& bytes) {
  common::codec::Reader in(bytes);
  std::string_view skipped;
  uint64_t num_series = 0;
  EXPECT_TRUE(in.get_bytes(std::string_view("CEEMSTSDB2").size(), &skipped));
  EXPECT_TRUE(in.get_u64(&num_series));
  auto skip_string = [&] {
    uint64_t size = 0;
    return in.get_u64(&size) && in.get_bytes(size, &skipped);
  };
  std::vector<std::string> records;
  for (uint64_t s = 0; s < num_series; ++s) {
    std::size_t start = bytes.size() - in.remaining();
    uint64_t num_labels = 0, num_sealed = 0, num_head = 0, field = 0;
    EXPECT_TRUE(in.get_u64(&num_labels));
    for (uint64_t l = 0; l < 2 * num_labels; ++l) EXPECT_TRUE(skip_string());
    EXPECT_TRUE(in.get_u64(&num_sealed));
    for (uint64_t c = 0; c < num_sealed; ++c) {
      for (int f = 0; f < 3; ++f) EXPECT_TRUE(in.get_u64(&field));
      EXPECT_TRUE(skip_string());
    }
    EXPECT_TRUE(in.get_u64(&num_head));
    EXPECT_TRUE(in.get_bytes(16 * num_head, &skipped));
    records.push_back(
        bytes.substr(start, bytes.size() - in.remaining() - start));
  }
  EXPECT_EQ(in.remaining(), 0u);
  std::sort(records.begin(), records.end());
  return records;
}

// Every series with each sample's raw value bits, in label order.
std::string store_digest(const TimeSeriesStore& store) {
  std::string out;
  for (const auto& view :
       store.select({}, std::numeric_limits<common::TimestampMs>::min(),
                    std::numeric_limits<common::TimestampMs>::max())) {
    out += view.labels.to_labels().to_string() + "\n";
    for (const auto& sample : view.samples()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &sample.v, sizeof(bits));
      out += "  " + std::to_string(sample.t) + " " + std::to_string(bits) +
             "\n";
    }
  }
  return out;
}

// Shards holding at least one of `refs`.
std::set<std::size_t> shards_of(const std::vector<metrics::SampleRef>& refs) {
  std::set<std::size_t> shards;
  for (const auto& ref : refs) {
    shards.insert(TimeSeriesStore::shard_of(ref.labels->fingerprint()));
  }
  return shards;
}

void run_sweep_differential(bool with_wal) {
  struct QuietLogs {
    common::LogLevel saved = common::log_level();
    QuietLogs() { common::set_log_level(common::LogLevel::kError); }
    ~QuietLogs() { common::set_log_level(saved); }
  } quiet;
  auto clock = make_sim_clock(1'000'000);
  auto store = std::make_shared<TimeSeriesStore>();
  auto dir = std::make_shared<simfs::SimDurableDir>();
  std::optional<DurableTsdb> durable;
  if (with_wal) {
    durable.emplace(store, dir);
    durable->open();
  }
  TimeSeriesStore oracle;

  // Fault hook: counts each target's attempts within the sweep.
  std::mutex attempts_mu;
  std::map<std::string, int, std::less<>> attempts;
  int sweep = 0;
  ScrapeConfig config;
  config.retries = 1;
  config.fault_hook = [&](std::string_view, std::string_view key) {
    std::lock_guard lock(attempts_mu);
    int attempt = attempts[std::string(key)]++;
    faults::FaultDecision fault;
    if ((key == "n3" && sweep % 6 == 3) ||
        (key == "n4" && sweep % 2 == 1 && attempt == 0)) {
      fault.kind = faults::FaultKind::kConnectTimeout;
    }
    return fault;
  };
  ScrapeManager manager(store, clock, config);
  for (int t = 0; t < kFleetTargets; ++t) {
    ScrapeTarget target;
    target.labels = Labels{{"instance", "n" + std::to_string(t)},
                           {"job", "node"}};
    target.local_fetch = [t, &sweep] { return fleet_body(t, sweep); };
    manager.add_target(std::move(target));
  }

  for (sweep = 0; sweep < kFleetSweeps; ++sweep) {
    SCOPED_TRACE("sweep " + std::to_string(sweep));
    attempts.clear();
    clock->advance(30'000);
    ScrapeSweepPeer::plant_collision(manager, 6, kCollidingKey);
    uint64_t records_before = with_wal ? durable->wal().stats().records : 0;
    ScrapeStats got = manager.scrape_all_once();

    ScrapeStats want = planned_stats(sweep);
    std::set<std::size_t> scraped_shards, tail_shards;
    for (const auto& target : ScrapeSweepPeer::buffered(manager)) {
      want.samples_ingested +=
          oracle.append_refs(target.batch->data(), target.batch->size());
      oracle.append_refs(target.tail->data(), target.tail->size());
      for (const auto& ref : *target.tail) {
        want.stale_markers += metrics::is_stale_marker(ref.value);
      }
      for (std::size_t s : shards_of(*target.batch)) scraped_shards.insert(s);
      for (std::size_t s : shards_of(*target.tail)) tail_shards.insert(s);
    }
    EXPECT_EQ(got.scrapes_total, want.scrapes_total);
    EXPECT_EQ(got.scrapes_failed, want.scrapes_failed);
    EXPECT_EQ(got.samples_ingested, want.samples_ingested);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.stale_markers, want.stale_markers);
    ASSERT_EQ(store_digest(*store), store_digest(oracle));
    ASSERT_EQ(snapshot_records(store->snapshot_bytes()),
              snapshot_records(oracle.snapshot_bytes()));

    if (!with_wal) continue;
    // One record per shard of scraped samples, one per shard of markers
    // and self-series.
    EXPECT_EQ(durable->wal().stats().records - records_before,
              scraped_shards.size() + tail_shards.size());
    if (sweep % 10 == 9) {
      // Replaying the log rebuilds the store byte for byte, slot order
      // included.
      auto copy = std::make_shared<simfs::SimDurableDir>();
      for (const auto& name : dir->list()) copy->replace(name, *dir->read(name));
      auto recovered = std::make_shared<TimeSeriesStore>();
      DurableTsdb(recovered, copy).open();
      EXPECT_EQ(recovered->snapshot_bytes(), store->snapshot_bytes());
    }
  }

  // The fleet did what it is for.
  auto count = [&](std::vector<metrics::LabelMatcher> matchers) {
    return store->select(matchers, 0, clock->now_ms()).size();
  };
  using Op = metrics::LabelMatcher::Op;
  EXPECT_EQ(count({{"__name__", Op::kEq, "up"}, {"instance", Op::kEq, "n2"}}),
            1u);
  EXPECT_EQ(count({{"__name__", Op::kEq, "ceems_job_gpu_util"}}), 1u);
  EXPECT_EQ(count({{"__name__", Op::kEq, "dup"}}), 1u);
  EXPECT_GT(manager.stats().stale_markers, 100u);
}

TEST(ScrapeSweepDifferential, ShardPhaseMatchesPerTargetAppends) {
  run_sweep_differential(false);
}

TEST(ScrapeSweepDifferential, ShardPhaseMatchesPerTargetAppendsWithWal) {
  run_sweep_differential(true);
}

}  // namespace
}  // namespace ceems::tsdb
