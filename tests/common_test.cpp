#include <gtest/gtest.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include <atomic>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/threadpool.h"
#include "common/yamlconf.h"

namespace ceems::common {
namespace {

// ---------- clock ----------

TEST(SimClock, StartsAtGivenTime) {
  SimClock clock(1000);
  EXPECT_EQ(clock.now_ms(), 1000);
}

TEST(SimClock, AdvanceMovesTime) {
  SimClock clock(0);
  clock.advance(250);
  clock.advance(750);
  EXPECT_EQ(clock.now_ms(), 1000);
}

// Scrape threads stamp samples with now_ms() while the driver steps time:
// every reader sees time move forward only, and once the driver is done,
// sees exactly the final time.
TEST(SimClock, ConcurrentReadersSeeTimeOnlyMoveForward) {
  constexpr int kReaders = 4;
  constexpr int kSteps = 20000;
  SimClock clock(1000);
  std::atomic<bool> done{false};
  std::vector<TimestampMs> last(kReaders, -1);
  std::vector<int> regressions(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      TimestampMs prev = clock.now_ms();
      while (!done.load()) {
        TimestampMs now = clock.now_ms();
        if (now < prev) ++regressions[r];
        prev = now;
      }
      TimestampMs now = clock.now_ms();
      if (now < prev) ++regressions[r];
      last[r] = now;
    });
  }
  TimestampMs expected = 1000;
  for (int i = 0; i < kSteps; ++i) {
    if (i % 2 == 0) {
      clock.advance(7);
      expected += 7;
    } else {
      expected += 30000;
      clock.set(expected);
    }
  }
  done.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(clock.now_ms(), expected);
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(regressions[r], 0) << "reader " << r;
    EXPECT_EQ(last[r], expected) << "reader " << r;
  }
}

TEST(RealClock, NowIsReasonable) {
  RealClock clock;
  // After 2020-01-01 and before 2100.
  EXPECT_GT(clock.now_ms(), 1577836800000LL);
  EXPECT_LT(clock.now_ms(), 4102444800000LL);
}

// ---------- strutil ----------

TEST(StrUtil, SplitBasic) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtil, SplitFieldsCollapsesWhitespace) {
  auto fields = split_fields("  cpu   123\t456  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "cpu");
  EXPECT_EQ(fields[2], "456");
}

TEST(StrUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(StrUtil, ParseInt64) {
  EXPECT_EQ(parse_int64("42"), 42);
  EXPECT_EQ(parse_int64("-7"), -7);
  EXPECT_EQ(parse_int64(" 13 "), 13);
  EXPECT_FALSE(parse_int64("12x").has_value());
  EXPECT_FALSE(parse_int64("").has_value());
}

TEST(StrUtil, ParseDoubleSpecials) {
  EXPECT_TRUE(std::isinf(*parse_double("+Inf")));
  EXPECT_TRUE(std::isnan(*parse_double("NaN")));
  EXPECT_DOUBLE_EQ(*parse_double("2.5e3"), 2500.0);
  EXPECT_FALSE(parse_double("abc").has_value());
}

TEST(StrUtil, FormatDoubleRoundTrips) {
  for (double value : {0.0, 1.0, -2.5, 3.14159265358979, 1e300, 1.0 / 3.0}) {
    EXPECT_DOUBLE_EQ(*parse_double(format_double(value)), value);
  }
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "+Inf");
}

// format_double as it was: try %.6g .. %.17g with snprintf and keep the
// first that sscanf parses back to the value. The to_chars search must
// produce the same bytes.
std::string format_double_by_precision_search(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) break;
  }
  return buf;
}

TEST(StrUtil, FormatDoubleMatchesPrecisionSearch) {
  std::size_t checked = 0;
  auto check = [&](double value) {
    ++checked;
    std::string expected = format_double_by_precision_search(value);
    ASSERT_EQ(format_double(value), expected) << std::hexfloat << value;
    std::string appended = "x";
    append_double(appended, value);
    ASSERT_EQ(appended, "x" + expected);
  };
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double value : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                       -std::numeric_limits<double>::denorm_min(),
                       std::numeric_limits<double>::min(), kMax, -kMax,
                       std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    check(value);
  }
  std::mt19937_64 rng(20241018);
  for (int i = 0; i < 100000; ++i) {
    uint64_t bits = rng();
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    check(value);
  }
  // Counter-like families: integers, microseconds to seconds, percentages,
  // kB to bytes.
  for (int i = 0; i < 20000; ++i) {
    double n = static_cast<double>(rng() % 100000000000ULL);
    check(n);
    check(n * 1e-6);
    check(n / 100);
    check(n * 1024);
  }
  auto around = [&](double value) {
    check(value);
    check(std::nextafter(value, 0.0));
    check(std::nextafter(value, kInf));
  };
  for (int e = -323; e <= 308; ++e) around(std::pow(10.0, e));
  for (int e = -1074; e <= 1023; ++e) around(std::ldexp(1.0, e));
  EXPECT_GT(checked, 180000u);
}

TEST(StrUtil, NextLineAndNextFieldWalkSplitPieces) {
  for (std::string_view text :
       {"", "a", "a\n", "a\n\nb", "\n", " x  y\t\tz \r\n w"}) {
    std::vector<std::string> lines;
    for (std::string_view rest = text; !rest.empty();)
      lines.emplace_back(next_line(rest));
    std::vector<std::string> expected = split(text, '\n');
    if (!expected.empty() && expected.back().empty()) expected.pop_back();
    EXPECT_EQ(lines, expected) << text;

    std::vector<std::string> fields;
    std::string_view rest = text;
    for (auto f = next_field(rest); !f.empty(); f = next_field(rest))
      fields.emplace_back(f);
    EXPECT_EQ(fields, split_fields(text)) << text;
  }
}

TEST(StrUtil, ParseDurations) {
  EXPECT_EQ(parse_duration_ms("30s"), 30000);
  EXPECT_EQ(parse_duration_ms("5m"), 300000);
  EXPECT_EQ(parse_duration_ms("1h30m"), 5400000);
  EXPECT_EQ(parse_duration_ms("250ms"), 250);
  EXPECT_EQ(parse_duration_ms("2d"), 2 * 86400000LL);
  EXPECT_FALSE(parse_duration_ms("abc").has_value());
  EXPECT_FALSE(parse_duration_ms("5x").has_value());
}

TEST(StrUtil, FormatDurationPicksLargestUnit) {
  EXPECT_EQ(format_duration_ms(30000), "30s");
  EXPECT_EQ(format_duration_ms(120000), "2m");
  EXPECT_EQ(format_duration_ms(3600000), "1h");
  EXPECT_EQ(format_duration_ms(86400000), "1d");
  EXPECT_EQ(format_duration_ms(1500), "1500ms");
}

// ---------- json ----------

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5").as_number(), -3.5);
  EXPECT_EQ(Json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, ParseNested) {
  Json value = Json::parse(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})");
  EXPECT_EQ(value.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(value.at("d").at("e").is_null());
}

TEST(Json, DumpRoundTrips) {
  Json object = Json::object();
  object["x"] = Json(1.5);
  object["y"] = Json("a \"quote\"");
  object["z"] = Json(JsonArray{Json(true), Json(nullptr)});
  Json reparsed = Json::parse(object.dump());
  EXPECT_TRUE(reparsed == object);
}

TEST(Json, IntegerFormattingHasNoDecimalPoint) {
  EXPECT_EQ(Json(static_cast<int64_t>(42)).dump(), "42");
  EXPECT_EQ(Json(1e15).dump().find('.'), std::string::npos);
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]2"), JsonParseError);
  EXPECT_THROW(Json::parse("tru"), JsonParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xC3\xA9");  // é
}

TEST(Json, TypedGettersWithFallback) {
  Json object = Json::parse(R"({"s":"x","n":3})");
  EXPECT_EQ(object.get_string("s"), "x");
  EXPECT_EQ(object.get_string("missing", "fb"), "fb");
  EXPECT_EQ(object.get_int("n"), 3);
  EXPECT_EQ(object.get_int("s", -1), -1);  // wrong type -> fallback
}

// ---------- yaml ----------

TEST(Yaml, NestedMapsAndScalars) {
  Json root = parse_yaml(
      "ceems:\n"
      "  scrape:\n"
      "    interval: 30s\n"
      "    count: 8\n"
      "  enabled: true\n");
  EXPECT_EQ(root.at("ceems").at("scrape").get_string("interval"), "30s");
  EXPECT_EQ(root.at("ceems").at("scrape").get_int("count"), 8);
  EXPECT_TRUE(root.at("ceems").get_bool("enabled"));
}

TEST(Yaml, BlockLists) {
  Json root = parse_yaml(
      "groups:\n"
      "  - name: g1\n"
      "    interval: 15s\n"
      "  - name: g2\n");
  const auto& groups = root.at("groups").as_array();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].get_string("name"), "g1");
  EXPECT_EQ(groups[0].get_string("interval"), "15s");
  EXPECT_EQ(groups[1].get_string("name"), "g2");
}

TEST(Yaml, InlineLists) {
  Json root = parse_yaml("admins: [alice, bob, \"c d\"]\n");
  const auto& admins = root.at("admins").as_array();
  ASSERT_EQ(admins.size(), 3u);
  EXPECT_EQ(admins[2].as_string(), "c d");
}

TEST(Yaml, CommentsIgnored) {
  Json root = parse_yaml(
      "# header comment\n"
      "key: value  # trailing\n"
      "other: 'has # inside'\n");
  EXPECT_EQ(root.get_string("key"), "value");
  EXPECT_EQ(root.get_string("other"), "has # inside");
}

TEST(Yaml, ScalarTypes) {
  Json root = parse_yaml(
      "a: 42\nb: 2.5\nc: yes\nd: ~\ne: \"42\"\n");
  EXPECT_TRUE(root.at("a").is_number());
  EXPECT_DOUBLE_EQ(root.at("b").as_number(), 2.5);
  EXPECT_TRUE(root.at("c").as_bool());
  EXPECT_TRUE(root.at("d").is_null());
  EXPECT_EQ(root.at("e").as_string(), "42");
}

TEST(Yaml, TabsRejected) {
  EXPECT_THROW(parse_yaml("a:\n\tb: 1\n"), YamlParseError);
}

// ---------- threadpool ----------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.submit([&] { ++count; }));
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ShutdownDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { ++count; });
  }
  pool.shutdown(/*drain=*/true);
  EXPECT_EQ(count.load(), 50);
  EXPECT_FALSE(pool.submit([&] { ++count; }));
}

// Workers start spread over the CPUs but keep their creator's CPU set, a
// restricted one too.
TEST(ThreadPool, WorkersKeepTheCreatorsCpuSet) {
  cpu_set_t all;
  ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
  cpu_set_t first;
  CPU_ZERO(&first);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &first);
      break;
    }
  }
  for (const cpu_set_t* creator : {&all, &first}) {
    ASSERT_EQ(sched_setaffinity(0, sizeof(*creator), creator), 0);
    {
      ThreadPool pool(4);
      std::atomic<int> mismatched{0};
      std::vector<std::function<void()>> tasks(32, [&] {
        cpu_set_t mask;
        if (sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
            !CPU_EQUAL(&mask, creator)) {
          ++mismatched;
        }
      });
      pool.run_all(std::move(tasks));
      EXPECT_EQ(mismatched.load(), 0);
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(all), &all), 0);
  }
}

// ---------- rng ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double value = rng.uniform(2.0, 5.0);
    EXPECT_GE(value, 2.0);
    EXPECT_LT(value, 5.0);
    int64_t integer = rng.uniform_int(-3, 3);
    EXPECT_GE(integer, -3);
    EXPECT_LE(integer, 3);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(99);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double value = rng.normal(10.0, 2.0);
    sum += value;
    sum_sq += value * value;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ForkGivesIndependentStream) {
  Rng parent(11);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

}  // namespace
}  // namespace ceems::common
