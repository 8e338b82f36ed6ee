#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string_view>

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
}  // namespace ceems::tsdb
