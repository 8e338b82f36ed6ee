#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "metrics/labels.h"
#include "metrics/registry.h"
#include "metrics/symbols.h"
#include "metrics/text_format.h"

namespace ceems::metrics {
namespace {

// ---------- labels ----------

TEST(Labels, SortedAndDeduplicated) {
  Labels labels{{"z", "1"}, {"a", "2"}, {"z", "3"}};
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels.pairs()[0].first, "a");
  EXPECT_EQ(*labels.get("z"), "3");  // later duplicate wins
}

TEST(Labels, WithReplacesOrAdds) {
  Labels labels{{"a", "1"}};
  Labels with_b = labels.with("b", "2");
  EXPECT_EQ(*with_b.get("b"), "2");
  Labels replaced = with_b.with("a", "9");
  EXPECT_EQ(*replaced.get("a"), "9");
  EXPECT_EQ(*labels.get("a"), "1");  // original untouched
}

TEST(Labels, KeepOnlyAndDrop) {
  Labels labels{{"a", "1"}, {"b", "2"}, {"c", "3"}};
  EXPECT_EQ(labels.keep_only({"a", "c"}).size(), 2u);
  EXPECT_EQ(labels.drop({"b"}).size(), 2u);
  EXPECT_FALSE(labels.drop({"b"}).has("b"));
}

TEST(Labels, FingerprintDistinguishesBoundaries) {
  // {"ab","c"} vs {"a","bc"} must not collide.
  Labels first{{"x", "ab"}, {"y", "c"}};
  Labels second{{"x", "a"}, {"y", "bc"}};
  EXPECT_NE(first.fingerprint(), second.fingerprint());
}

TEST(Labels, FingerprintStable) {
  Labels labels{{"host", "n1"}, {"uuid", "42"}};
  EXPECT_EQ(labels.fingerprint(),
            (Labels{{"uuid", "42"}, {"host", "n1"}}).fingerprint());
}

TEST(Labels, NameHelpers) {
  Labels labels = Labels{{"a", "1"}}.with_name("up");
  EXPECT_EQ(labels.name(), "up");
  EXPECT_FALSE(labels.without_name().has(kMetricNameLabel));
}

TEST(LabelMatcher, EqAndNe) {
  Labels labels{{"mode", "idle"}};
  LabelMatcher eq{"mode", LabelMatcher::Op::kEq, "idle"};
  LabelMatcher ne{"mode", LabelMatcher::Op::kNe, "idle"};
  EXPECT_TRUE(eq.matches(labels));
  EXPECT_FALSE(ne.matches(labels));
  // Missing label: eq with empty value matches, ne with value matches.
  LabelMatcher missing_eq{"zone", LabelMatcher::Op::kEq, ""};
  EXPECT_TRUE(missing_eq.matches(labels));
  LabelMatcher missing_ne{"zone", LabelMatcher::Op::kNe, "x"};
  EXPECT_TRUE(missing_ne.matches(labels));
}

TEST(LabelMatcher, RegexAnchored) {
  Labels labels{{"job", "node123"}};
  LabelMatcher re{"job", LabelMatcher::Op::kRegexMatch, "node\\d+"};
  EXPECT_TRUE(re.matches(labels));
  LabelMatcher partial{"job", LabelMatcher::Op::kRegexMatch, "node"};
  EXPECT_FALSE(partial.matches(labels));  // anchored, must match fully
  LabelMatcher no_match{"job", LabelMatcher::Op::kRegexNoMatch, "web.*"};
  EXPECT_TRUE(no_match.matches(labels));
}

// ---------- model ----------

TEST(Model, MetricNameValidation) {
  EXPECT_TRUE(is_valid_metric_name("node_cpu_seconds_total"));
  EXPECT_TRUE(is_valid_metric_name("instance:rate:sum"));
  EXPECT_TRUE(is_valid_metric_name("_private"));
  EXPECT_FALSE(is_valid_metric_name("9leading"));
  EXPECT_FALSE(is_valid_metric_name("has-dash"));
  EXPECT_FALSE(is_valid_metric_name(""));
}

TEST(Model, LabelNameValidation) {
  EXPECT_TRUE(is_valid_label_name("mode"));
  EXPECT_FALSE(is_valid_label_name("with:colon"));
  EXPECT_FALSE(is_valid_label_name("1x"));
}

// ---------- text format ----------

TEST(TextFormat, EncodeBasic) {
  MetricFamily family{"up", "Target is up.", MetricType::kGauge, {}};
  family.add(Labels{{"instance", "n1"}}, 1);
  std::string text = encode_families({family});
  EXPECT_NE(text.find("# HELP up Target is up."), std::string::npos);
  EXPECT_NE(text.find("# TYPE up gauge"), std::string::npos);
  EXPECT_NE(text.find("up{instance=\"n1\"} 1"), std::string::npos);
}

TEST(TextFormat, EscapesLabelValues) {
  MetricFamily family{"m", "", MetricType::kUntyped, {}};
  family.add(Labels{{"path", "a\\b\"c\nd"}}, 1);
  std::string text = encode_families({family});
  EXPECT_NE(text.find(R"(path="a\\b\"c\nd")"), std::string::npos);
}

TEST(TextFormat, HelpTextEscapesRoundTripThroughRegistry) {
  // Text format 0.0.4 escapes \ and newline in HELP text; unescaped, the
  // newline would start a line that parses as a malformed sample.
  const std::string help = "Requests served.\nSee C:\\docs\\n for \"more\".";
  Registry registry;
  registry.counter("ceems_requests_total", help)->inc(3);
  std::string text = encode_families(registry.collect());
  EXPECT_NE(text.find("# HELP ceems_requests_total Requests served.\\nSee "
                      "C:\\\\docs\\\\n for \"more\".\n"),
            std::string::npos)
      << text;
  ParsedExposition parsed = parse_exposition(text);
  ASSERT_EQ(parsed.samples.size(), 1u);
  EXPECT_EQ(parsed.samples[0].value, 3);
  ASSERT_EQ(parsed.families.size(), 1u);
  EXPECT_EQ(parsed.families[0].help, help);
}

TEST(TextFormat, RoundTrip) {
  MetricFamily family{"ceems_compute_unit_cpu_usage_seconds_total",
                      "CPU time.",
                      MetricType::kCounter,
                      {}};
  family.add(Labels{{"uuid", "1001"}, {"mode", "user"}}, 123.5);
  family.add(Labels{{"uuid", "1001"}, {"mode", "system"}}, 21.25);

  ParsedExposition parsed = parse_exposition(encode_families({family}));
  ASSERT_EQ(parsed.samples.size(), 2u);
  EXPECT_EQ(parsed.samples[0].labels.name(),
            "ceems_compute_unit_cpu_usage_seconds_total");
  ASSERT_EQ(parsed.families.size(), 1u);
  EXPECT_EQ(parsed.families[0].type, MetricType::kCounter);
  EXPECT_EQ(parsed.families[0].help, "CPU time.");
}

TEST(TextFormat, ParseWithTimestamp) {
  auto parsed = parse_exposition("m{a=\"b\"} 4.5 1700000000000\n");
  ASSERT_EQ(parsed.samples.size(), 1u);
  EXPECT_EQ(parsed.samples[0].timestamp_ms, 1700000000000LL);
  EXPECT_DOUBLE_EQ(parsed.samples[0].value, 4.5);
}

TEST(TextFormat, ParseBareMetricNoLabels) {
  auto parsed = parse_exposition("node_load1 0.5\n");
  ASSERT_EQ(parsed.samples.size(), 1u);
  EXPECT_EQ(parsed.samples[0].labels.size(), 1u);  // just __name__
}

TEST(TextFormat, ParseSpecialValues) {
  auto parsed = parse_exposition("m 1\nn +Inf\no NaN\n");
  EXPECT_TRUE(std::isinf(parsed.samples[1].value));
  EXPECT_TRUE(std::isnan(parsed.samples[2].value));
}

TEST(TextFormat, MalformedLinesThrow) {
  EXPECT_THROW(parse_exposition("metric{a=\"b\"\n"), ExpositionParseError);
  EXPECT_THROW(parse_exposition("metric{a=b} 1\n"), ExpositionParseError);
  EXPECT_THROW(parse_exposition("metric abc\n"), ExpositionParseError);
  EXPECT_THROW(parse_exposition("9bad 1\n"), ExpositionParseError);
  EXPECT_THROW(parse_exposition("m\n"), ExpositionParseError);
}

TEST(TextFormat, UnknownCommentsIgnored) {
  auto parsed = parse_exposition("# EOF\n# random comment\nm 1\n");
  EXPECT_EQ(parsed.samples.size(), 1u);
}

TEST(TextFormat, EscapedLabelValueRoundTrip) {
  auto parsed = parse_exposition("m{p=\"a\\\\b\\\"c\\nd\"} 1\n");
  ASSERT_EQ(parsed.samples.size(), 1u);
  EXPECT_EQ(*parsed.samples[0].labels.get("p"), "a\\b\"c\nd");
}

TEST(TextFormat, EscapeUnescapeAreInverses) {
  for (const std::string& raw :
       {std::string("plain"), std::string("back\\slash"),
        std::string("quo\"te"), std::string("new\nline"),
        std::string("\\\"\n mixed \\n not-an-escape"), std::string(""),
        std::string("trailing\\")}) {
    EXPECT_EQ(unescape_label_value(escape_label_value(raw)), raw) << raw;
  }
  EXPECT_EQ(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(unescape_label_value("a\\\\b\\\"c\\nd"), "a\\b\"c\nd");
}

TEST(TextFormat, EncodeParseRoundTripsEscapedValues) {
  MetricFamily family{"m", "help", MetricType::kGauge, {}};
  family.add(Labels{{"p", "a\\b\"c\nd"}}, 1.0);
  auto parsed = parse_exposition(encode_families({family}));
  ASSERT_EQ(parsed.samples.size(), 1u);
  EXPECT_EQ(*parsed.samples[0].labels.get("p"), "a\\b\"c\nd");
}

// ---------- symbol table / interned labels ----------

TEST(Symbols, InternIsIdempotentAndStable) {
  SymbolTable& table = SymbolTable::global();
  uint32_t a = table.intern("symbols_test_alpha");
  uint32_t b = table.intern("symbols_test_beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.intern("symbols_test_alpha"), a);
  EXPECT_EQ(table.text(a), "symbols_test_alpha");
  EXPECT_EQ(table.find("symbols_test_beta"), b);
  EXPECT_FALSE(table.find("symbols_test_never_interned").has_value());
}

TEST(Symbols, InternedLabelsMatchLabelsFingerprint) {
  Labels labels = Labels{{"hostname", "n1"}, {"uuid", "42"}}.with_name("m");
  InternedLabels interned(labels);
  EXPECT_EQ(interned.fingerprint(), labels.fingerprint());
  EXPECT_EQ(interned.size(), labels.size());
  EXPECT_EQ(interned.name(), "m");
  EXPECT_EQ(*interned.get("uuid"), "42");
  EXPECT_FALSE(interned.get("nope").has_value());
  // Round trip is lossless.
  EXPECT_EQ(interned.to_labels(), labels);
}

TEST(Symbols, WithKeepsCanonicalOrderAndFingerprint) {
  Labels base = Labels{{"b", "2"}};
  InternedLabels interned(base);
  InternedLabels extended = interned.with("a", "1").with("b", "3");
  Labels expected = Labels{{"a", "1"}, {"b", "3"}};
  EXPECT_EQ(extended.fingerprint(), expected.fingerprint());
  EXPECT_EQ(extended.to_labels(), expected);
}

TEST(Symbols, EqualityVerifiesSymbolsNotJustFingerprint) {
  Labels la = Labels{{"host", "a"}};
  Labels lb = Labels{{"host", "b"}};
  InternedLabels a(la, 0x1234);
  InternedLabels b(lb, 0x1234);  // forced fingerprint collision
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a, b);
  EXPECT_EQ(a, InternedLabels(la, 0x1234));
}

// Random label sets over a vocabulary whose symbols are interned in
// reverse string order (so id order and string order disagree), with
// values that are prefixes of one another and empty values.
class RandomLabelSets {
 public:
  RandomLabelSets() {
    names_ = {"cmp_a", "cmp_ab", "cmp_b", "cmp_ba", "cmp_c", "cmp_z"};
    values_ = {"",         "cmp_v",   "cmp_va",  "cmp_vaa",
               "cmp_vab",  "cmp_vabc", "cmp_vb", "cmp_vba", "cmp_vz"};
    SymbolTable& table = SymbolTable::global();
    for (auto it = names_.rbegin(); it != names_.rend(); ++it) {
      table.intern(*it);
    }
    for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
      table.intern(*it);
    }
  }

  // 0 to 5 labels with distinct names.
  Labels next(std::mt19937_64& rng) const {
    std::vector<Labels::Pair> pairs;
    std::size_t count = rng() % 6;
    for (const auto& name : names_) {
      if (pairs.size() == count) break;
      if (rng() % 2 == 0) continue;
      pairs.emplace_back(name, values_[rng() % values_.size()]);
    }
    return Labels(std::move(pairs));
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::string> values_;
};

TEST(Symbols, InternedOrderMatchesLabelsOrder) {
  SymbolTable& table = SymbolTable::global();
  RandomLabelSets sets;
  // The vocabulary really is interned against string order. Read the ids
  // one by one: the constructor above interned every string, and argument
  // evaluation order is unspecified.
  const uint32_t a = table.intern("cmp_a");
  const uint32_t z = table.intern("cmp_z");
  const uint32_t v = table.intern("cmp_v");
  const uint32_t vab = table.intern("cmp_vab");
  ASSERT_GT(a, z);
  ASSERT_GT(v, vab);
  std::mt19937_64 rng(7);
  std::vector<Labels> labels;
  for (int i = 0; i < 400; ++i) labels.push_back(sets.next(rng));
  // Hand-picked edges: a value that prefixes another, an empty value, a
  // label set that prefixes another.
  labels.push_back(Labels{{"cmp_a", "cmp_va"}});
  labels.push_back(Labels{{"cmp_a", "cmp_vab"}});
  labels.push_back(Labels{{"cmp_a", "cmp_v"}});
  labels.push_back(Labels{{"cmp_a", ""}});
  labels.push_back(Labels{{"cmp_a", "cmp_va"}, {"cmp_b", "cmp_v"}});
  labels.push_back(Labels{});
  for (const auto& a : labels) {
    InternedLabels ia(a);
    for (const auto& b : labels) {
      InternedLabels ib(b);
      ASSERT_EQ(ia < ib, a < b) << a.to_string() << " vs " << b.to_string();
    }
  }
  std::vector<InternedLabels> interned(labels.begin(), labels.end());
  std::sort(labels.begin(), labels.end());
  std::sort(interned.begin(), interned.end());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(interned[i].to_labels(), labels[i]) << i;
  }
}

TEST(Symbols, DerivedLabelSetsMatchLabels) {
  SymbolTable& table = SymbolTable::global();
  RandomLabelSets sets;
  std::mt19937_64 rng(11);
  const std::vector<std::string> names = {"cmp_ab", "cmp_c", "__name__"};
  std::vector<uint32_t> name_syms;
  for (const auto& name : names) name_syms.push_back(table.intern(name));
  for (int i = 0; i < 300; ++i) {
    Labels labels = sets.next(rng);
    if (i % 2) labels = labels.with_name("cmp_metric");
    InternedLabels interned(labels);
    auto expect_same = [&](const InternedLabels& got, const Labels& want) {
      EXPECT_EQ(got.to_labels(), want) << labels.to_string();
      EXPECT_EQ(got.fingerprint(), want.fingerprint()) << labels.to_string();
    };
    expect_same(interned.keep_only(name_syms), labels.keep_only(names));
    expect_same(interned.drop(name_syms), labels.drop(names));
    EXPECT_EQ(interned.keep_only_fingerprint(name_syms),
              labels.keep_only(names).fingerprint());
    EXPECT_EQ(interned.drop_fingerprint(name_syms),
              labels.drop(names).fingerprint());
    expect_same(interned.without_name(), labels.without_name());
    expect_same(InternedLabels(interned).without_name(),
                labels.without_name());
    expect_same(interned.with_symbols(table.intern("cmp_b"), table.intern("x")),
                labels.with("cmp_b", "x"));
    expect_same(
        InternedLabels(interned).with_symbols(
            {{table.intern("cmp_ba"), table.intern("1")},
             {table.intern("cmp_a"), table.intern("2")},
             {table.intern("cmp_ba"), table.intern("3")}}),
        labels.with("cmp_ba", "1").with("cmp_a", "2").with("cmp_ba", "3"));
  }
}

// ---------- registry ----------

TEST(Registry, CounterAccumulatesAndRejectsNegative) {
  Registry registry;
  auto counter = registry.counter("requests_total", "Total requests.");
  counter->inc();
  counter->inc(4.5);
  EXPECT_DOUBLE_EQ(counter->value(), 5.5);
  EXPECT_THROW(counter->inc(-1), std::invalid_argument);
}

TEST(Registry, SameNameAndLabelsSharesChild) {
  Registry registry;
  auto a = registry.counter("c", "h", Labels{{"x", "1"}});
  auto b = registry.counter("c", "h", Labels{{"x", "1"}});
  a->inc();
  EXPECT_DOUBLE_EQ(b->value(), 1.0);
  auto other = registry.counter("c", "h", Labels{{"x", "2"}});
  EXPECT_DOUBLE_EQ(other->value(), 0.0);
}

TEST(Registry, CollectIsSortedAndComplete) {
  Registry registry;
  registry.gauge("z_gauge", "z")->set(3);
  registry.counter("a_counter", "a")->inc();
  auto families = registry.collect();
  ASSERT_EQ(families.size(), 2u);
  EXPECT_EQ(families[0].name, "a_counter");
  EXPECT_EQ(families[0].type, MetricType::kCounter);
  EXPECT_EQ(families[1].name, "z_gauge");
  EXPECT_DOUBLE_EQ(families[1].metrics[0].value, 3.0);
}

TEST(Registry, InvalidNameThrows) {
  Registry registry;
  EXPECT_THROW(registry.counter("bad-name", "x"), std::invalid_argument);
}

}  // namespace
}  // namespace ceems::metrics
