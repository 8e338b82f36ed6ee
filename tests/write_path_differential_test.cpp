// Bitwise differentials for the interned-label write side, in the style of
// the streaming, ladder and WAL oracles: every fast path runs next to a
// test-local reference that states the old behaviour in the plainest
// terms, over random inputs, and the two must agree bit for bit.
//
//   * select() (posting-list walk, symbol-id checks) against a brute-force
//     LabelMatcher::matches(Labels) filter over the same series;
//   * the store's slot-vector postings against an index of std::set
//     posting lists, through creates, deletes, purges and clears that
//     free and reuse slots, with forced fingerprint collisions;
//   * the rule pass (one append_refs batch per rule), inline and as a
//     conflict graph on a thread pool, against per-sample Engine::eval +
//     append_one, on random fleets with alerts firing and resolving, with
//     and without a WAL;
//   * LongTermStore reading recent samples through the live hot store
//     against the copying store it replaced: a long-term store over a
//     private copy filled from select() + append_one at each sync,
//     through repeated syncs, late samples and compactions (which purge
//     both the hot store and the copy).
//
// Two goldens close the loop the differentials leave open: the rule pass's
// store digest and fixed queries' JSON bodies, pinned as recorded hashes,
// since both sides of a differential share the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>

#include "common/fnv1a.h"
#include "core/rules_library.h"
#include "metrics/model.h"
#include "simfs/durable_dir.h"
#include "tsdb/http_api.h"
#include "tsdb/longterm.h"
#include "tsdb/rules.h"
#include "tsdb/storage.h"
#include "tsdb/wal.h"
#include "append_one.h"

namespace ceems::tsdb {
namespace {

using common::TimestampMs;
using metrics::LabelMatcher;
using Op = metrics::LabelMatcher::Op;

constexpr TimestampMs kMinT = std::numeric_limits<TimestampMs>::min();
constexpr TimestampMs kMaxT = std::numeric_limits<TimestampMs>::max();

void append_points(std::string& out, const std::vector<SamplePoint>& points) {
  for (const auto& sample : points) {
    uint64_t bits = 0;
    std::memcpy(&bits, &sample.v, sizeof(bits));
    out += "  " + std::to_string(sample.t) + " " + std::to_string(bits) + "\n";
  }
}

// Label text plus every sample's timestamp and raw value bits, in the
// views' own order.
std::string digest(const std::vector<SeriesView>& views) {
  std::string out;
  for (const auto& view : views) {
    out += view.labels.to_labels().to_string() + "\n";
    append_points(out, view.samples());
  }
  return out;
}

std::string digest(const Queryable& source) {
  return digest(source.select({}, kMinT, kMaxT));
}

// ---------------------------------------------------------------------------
// select() vs brute-force matching

const std::vector<std::string> kNames = {"__name__", "job", "instance",
                                         "mode", "uuid"};
const std::vector<std::string> kValues = {"a", "b", "c", "n1", "n2",
                                          "n10", "idle", ""};

std::string pick(std::mt19937_64& rng, const std::vector<std::string>& pool) {
  return pool[rng() % pool.size()];
}

Labels random_labels(std::mt19937_64& rng) {
  std::vector<Labels::Pair> pairs;
  for (const auto& name : kNames) {
    if (rng() % 3 == 0) continue;
    // Mostly non-empty values; an empty value must still read as "".
    std::string value = pick(rng, kValues);
    if (value.empty() && rng() % 2 == 0) value = "x";
    pairs.emplace_back(name, value);
  }
  return Labels(std::move(pairs));
}

LabelMatcher random_matcher(std::mt19937_64& rng) {
  LabelMatcher matcher;
  // Names and values never interned anywhere in the process exercise the
  // "unknown symbol" paths.
  matcher.name = rng() % 8 == 0 ? "zz_never_interned_name" : pick(rng, kNames);
  matcher.op = static_cast<Op>(rng() % 4);
  if (matcher.op == Op::kRegexMatch || matcher.op == Op::kRegexNoMatch) {
    static const std::vector<std::string> kPatterns = {
        "n.*", "a|b", ".*", ".+", "", "n1|zz_never", "i.le", "c"};
    matcher.value = pick(rng, kPatterns);
  } else {
    matcher.value = rng() % 6 == 0 ? "zz_never_interned_value"
                                   : pick(rng, kValues);
  }
  return matcher;
}

std::vector<LabelMatcher> random_matchers(std::mt19937_64& rng) {
  std::vector<LabelMatcher> matchers;
  std::size_t count = rng() % 4;
  for (std::size_t i = 0; i < count; ++i) {
    matchers.push_back(random_matcher(rng));
    if (rng() % 5 == 0) {
      // A second matcher on the same name.
      LabelMatcher again = random_matcher(rng);
      again.name = matchers.back().name;
      matchers.push_back(again);
    }
  }
  return matchers;
}

bool matches_all(const std::vector<LabelMatcher>& matchers,
                 const Labels& labels) {
  for (const auto& matcher : matchers) {
    if (!matcher.matches(labels)) return false;
  }
  return true;
}

// The brute-force side: every series' samples, filtered series by series.
using Model = std::map<Labels, std::vector<SamplePoint>>;

std::string brute_force(const Model& model,
                        const std::vector<LabelMatcher>& matchers,
                        TimestampMs min_t, TimestampMs max_t) {
  std::string out;
  for (const auto& [labels, samples] : model) {
    if (!matches_all(matchers, labels)) continue;
    std::vector<SamplePoint> in_range;
    for (const auto& sample : samples) {
      if (sample.t >= min_t && sample.t <= max_t) in_range.push_back(sample);
    }
    if (in_range.empty()) continue;
    out += labels.to_string() + "\n";
    append_points(out, in_range);
  }
  return out;
}

TEST(StorageSelectDifferential, RandomMatchersMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    TimeSeriesStore store;
    Model model;
    std::vector<Labels> universe;
    for (int i = 0; i < 60; ++i) universe.push_back(random_labels(rng));
    for (TimestampMs t = 0; t < 40 * 1000; t += 1000) {
      for (const auto& labels : universe) {
        if (rng() % 3 == 0) continue;
        double v = static_cast<double>(rng() % 1000) / 7.0;
        if (append_one(store, labels, t, v)) {
          auto& samples = model[labels];
          if (!samples.empty() && samples.back().t == t) {
            samples.back().v = v;  // duplicate label set: last write wins
          } else {
            samples.push_back({t, v});
          }
        }
      }
    }
    for (int q = 0; q < 300; ++q) {
      auto matchers = random_matchers(rng);
      TimestampMs lo = static_cast<TimestampMs>(rng() % 45) * 1000 - 2000;
      TimestampMs hi = lo + static_cast<TimestampMs>(rng() % 30) * 1000;
      ASSERT_EQ(digest(store.select(matchers, lo, hi)),
                brute_force(model, matchers, lo, hi))
          << "seed " << seed << " query " << q;
    }
    // Deletions leave emptied posting lists behind; selects and further
    // deletes must still agree with the brute-force model.
    for (int d = 0; d < 6; ++d) {
      auto matchers = random_matchers(rng);
      if (matchers.empty()) continue;
      std::size_t expected = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (matches_all(matchers, it->first)) {
          it = model.erase(it);
          ++expected;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(store.delete_series(matchers), expected) << "seed " << seed;
      for (int q = 0; q < 40; ++q) {
        auto select_matchers = random_matchers(rng);
        ASSERT_EQ(digest(store.select(select_matchers, kMinT, kMaxT)),
                  brute_force(model, select_matchers, kMinT, kMaxT))
            << "seed " << seed << " after delete " << d;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Slot-vector postings vs a std::set index

// The index as it used to be kept: one ordered set of series per (name,
// value) pair, next to every series' samples. A select walks the smallest
// set among its equality terms and filters the rest by brute force.
class SetIndexOracle {
 public:
  void append(const Labels& labels, TimestampMs t, double v) {
    auto [it, created] = series_.try_emplace(labels);
    if (created) {
      for (const auto& pair : labels.pairs()) postings_[pair].insert(labels);
    }
    it->second.push_back({t, v});
  }

  std::size_t erase_matching(const std::vector<LabelMatcher>& matchers) {
    std::vector<Labels> doomed;
    for (const auto& [labels, samples] : series_) {
      if (matches_all(matchers, labels)) doomed.push_back(labels);
    }
    for (const auto& labels : doomed) erase(labels);
    return doomed.size();
  }

  std::size_t purge_before(TimestampMs cutoff) {
    std::size_t dropped = 0;
    std::vector<Labels> emptied;
    for (auto& [labels, samples] : series_) {
      auto keep = std::find_if(
          samples.begin(), samples.end(),
          [cutoff](const SamplePoint& p) { return p.t >= cutoff; });
      dropped += static_cast<std::size_t>(keep - samples.begin());
      samples.erase(samples.begin(), keep);
      if (samples.empty()) emptied.push_back(labels);
    }
    for (const auto& labels : emptied) erase(labels);
    return dropped;
  }

  void clear() {
    series_.clear();
    postings_.clear();
  }

  std::size_t num_series() const { return series_.size(); }
  std::size_t num_samples() const {
    std::size_t n = 0;
    for (const auto& [labels, samples] : series_) n += samples.size();
    return n;
  }

  std::string select(const std::vector<LabelMatcher>& matchers,
                     TimestampMs min_t, TimestampMs max_t) const {
    static const std::set<Labels> kNone;
    const std::set<Labels>* smallest = nullptr;
    for (const auto& matcher : matchers) {
      if (matcher.op != Op::kEq || matcher.value.empty()) continue;
      auto it = postings_.find({matcher.name, matcher.value});
      const std::set<Labels>& posting = it == postings_.end() ? kNone
                                                               : it->second;
      if (!smallest || posting.size() < smallest->size()) smallest = &posting;
    }
    std::set<Labels> all;
    if (!smallest) {
      for (const auto& [labels, samples] : series_) all.insert(labels);
      smallest = &all;
    }
    std::string out;
    for (const Labels& labels : *smallest) {
      if (!matches_all(matchers, labels)) continue;
      std::vector<SamplePoint> in_range;
      for (const auto& sample : series_.at(labels)) {
        if (sample.t >= min_t && sample.t <= max_t) in_range.push_back(sample);
      }
      if (in_range.empty()) continue;
      out += labels.to_string() + "\n";
      append_points(out, in_range);
    }
    return out;
  }

 private:
  void erase(const Labels& labels) {
    for (const auto& pair : labels.pairs()) {
      auto it = postings_.find(pair);
      it->second.erase(labels);
      if (it->second.empty()) postings_.erase(it);
    }
    series_.erase(labels);
  }

  std::map<Labels, std::vector<SamplePoint>> series_;
  std::map<Labels::Pair, std::set<Labels>> postings_;
};

TEST(StoragePostingsDifferential, SlotReuseAndCollisionsMatchSetIndex) {
  const std::vector<std::string> names = {"m0", "m1", "m2"};
  constexpr uint64_t kCollidingFp = 0x5eed5eed00000003ULL;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    // A universe of distinct label sets; every fourth is forced onto one
    // fingerprint, so those share a shard and a bucket chain.
    std::set<Labels> distinct;
    while (distinct.size() < 48) {
      std::vector<Labels::Pair> pairs = {
          {"__name__", names[rng() % names.size()]},
          {"host", "h" + std::to_string(rng() % 6)}};
      if (rng() % 3 != 0) {
        pairs.emplace_back("uuid", "u" + std::to_string(rng() % 12));
      }
      if (rng() % 4 == 0) {
        pairs.emplace_back("job", "j" + std::to_string(rng() % 2));
      }
      distinct.insert(Labels(std::move(pairs)));
    }
    std::vector<Labels> universe(distinct.begin(), distinct.end());
    std::shuffle(universe.begin(), universe.end(), rng);
    std::vector<metrics::InternedLabels> interned;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      interned.push_back(
          i % 4 == 0 ? metrics::InternedLabels(universe[i], kCollidingFp)
                     : metrics::InternedLabels(universe[i]));
    }

    auto random_eq = [&]() {
      switch (rng() % 4) {
        case 0:
          return LabelMatcher{"__name__", Op::kEq, names[rng() % names.size()]};
        case 1:
          return LabelMatcher{"host", Op::kEq, "h" + std::to_string(rng() % 7)};
        case 2:
          return LabelMatcher{"uuid", Op::kEq,
                              "u" + std::to_string(rng() % 13)};
        default:
          return LabelMatcher{"job", Op::kEq, "j" + std::to_string(rng() % 2)};
      }
    };
    auto random_query = [&]() {
      std::vector<LabelMatcher> matchers;
      std::size_t terms = rng() % 3;
      for (std::size_t i = 0; i < terms; ++i) matchers.push_back(random_eq());
      if (rng() % 4 == 0) {
        matchers.push_back({"host", Op::kNe, "h" + std::to_string(rng() % 6)});
      }
      return matchers;
    };

    TimeSeriesStore store;
    SetIndexOracle oracle;
    TimestampMs t = 0;
    for (int step = 0; step < 400; ++step) {
      t += 1000;
      const uint64_t op = rng() % 100;
      if (op < 65) {
        std::vector<metrics::SampleRef> batch;
        for (std::size_t i = 0; i < universe.size(); ++i) {
          if (rng() % 3 != 0) continue;
          double v = static_cast<double>(rng() % 1000) / 8.0;
          batch.push_back({&interned[i], t, v});
          oracle.append(universe[i], t, v);
        }
        ASSERT_EQ(store.append_refs(batch.data(), batch.size()), batch.size());
      } else if (op < 80) {
        std::vector<LabelMatcher> matchers = {random_eq()};
        if (rng() % 2 == 0) matchers.push_back(random_eq());
        ASSERT_EQ(store.delete_series(matchers),
                  oracle.erase_matching(matchers))
            << "seed " << seed << " step " << step;
      } else if (op < 98) {
        TimestampMs cutoff = t - static_cast<TimestampMs>(rng() % 12) * 1000;
        ASSERT_EQ(store.purge_before(cutoff), oracle.purge_before(cutoff))
            << "seed " << seed << " step " << step;
      } else {
        store.clear();
        oracle.clear();
        ASSERT_EQ(store.stats().approx_bytes, 0u) << "clear keeps memory";
      }
      StorageStats stats = store.stats();
      ASSERT_EQ(stats.num_series, oracle.num_series()) << "seed " << seed;
      ASSERT_EQ(stats.num_samples, oracle.num_samples()) << "seed " << seed;
      for (int q = 0; q < 4; ++q) {
        auto matchers = random_query();
        TimestampMs lo = t - static_cast<TimestampMs>(rng() % 20) * 1000;
        ASSERT_EQ(digest(store.select(matchers, lo, kMaxT)),
                  oracle.select(matchers, lo, kMaxT))
            << "seed " << seed << " step " << step << " query " << q;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule pass vs per-sample reference

// A random Jean-Zay-shaped fleet writing the raw families the rule
// library reads: four node groups, churning jobs (with staleness markers
// when they end), GPUs, eBPF traffic, and the self-series the shipped
// alerts watch. Outages, power spikes, slow scrapes and a missing
// emission factor come and go, so every alert both fires and resolves.
class RandomFleet {
 public:
  explicit RandomFleet(uint64_t seed) : rng_(seed) {
    static const std::vector<std::string> kGroups = {"intel-cpu", "amd-cpu",
                                                     "gpu-incl", "gpu-excl"};
    int nodes = 4 + static_cast<int>(rng_() % 9);
    for (int n = 0; n < nodes; ++n) {
      Node node;
      node.host = "jz" + std::to_string(seed) + "n" + std::to_string(n);
      node.group = kGroups[rng_() % kGroups.size()];
      nodes_.push_back(node);
    }
    emission_gap_start_ = 4 + static_cast<int>(rng_() % 6);
  }

  // One scrape of every node at `t`, appended identically to each store.
  void scrape(int pass, TimestampMs t, const std::vector<StorePtr>& stores) {
    batch_.clear();
    for (auto& node : nodes_) step_node(node, pass);
    if (pass < emission_gap_start_ || pass > emission_gap_start_ + 34) {
      put({{"provider", "rte"}}, "ceems_emissions_gCo2_kWh",
          40 + static_cast<double>(rng_() % 30));
    }
    for (const auto& store : stores) {
      for (const auto& [labels, value] : batch_) {
        append_one(*store, labels, t, value);
      }
    }
  }

 private:
  struct Job {
    std::string uuid;
    int gpu = 0;
  };
  struct Node {
    std::string host;
    std::string group;
    std::vector<Job> jobs;
    int down_for = 0;   // passes the exporter stays down
    int spike_for = 0;  // passes the BMC reads above the alert ceiling
  };

  void put(Labels labels, const std::string& name, double value) {
    batch_.emplace_back(labels.with_name(name), value);
  }

  double counter(const Labels& labels, double rate) {
    double& total = counters_[labels];
    total += rate * 30 * (0.5 + static_cast<double>(rng_() % 100) / 100.0);
    return total;
  }

  void step_node(Node& node, int pass) {
    Labels base{{"hostname", node.host},
                {"instance", node.host + ":9010"},
                {"nodegroup", node.group}};
    if (node.down_for == 0 && rng_() % 25 == 0) {
      node.down_for = 2 + static_cast<int>(rng_() % 8);
    }
    if (node.spike_for == 0 && rng_() % 20 == 0) {
      node.spike_for = 3 + static_cast<int>(rng_() % 14);
    }
    bool slow = rng_() % 15 == 0;
    put(base, "scrape_duration_seconds",
        slow ? 6.5 : 0.01 * static_cast<double>(1 + rng_() % 9));
    if (node.down_for > 0) {
      --node.down_for;
      put(base, "up", 0);
      if (pass % 2 == 0) return;  // sometimes no data at all while down
    } else {
      put(base, "up", 1);
    }

    // Job churn: ended jobs get staleness markers on their series.
    for (auto it = node.jobs.begin(); it != node.jobs.end();) {
      if (rng_() % 12 == 0) {
        for (const char* name : {"ceems_compute_unit_cpu_usage_seconds_total",
                                 "ceems_compute_unit_memory_current_bytes"}) {
          put(base.with("uuid", it->uuid), name, metrics::stale_marker());
        }
        it = node.jobs.erase(it);
      } else {
        ++it;
      }
    }
    if (node.jobs.size() < 3 && rng_() % 4 == 0) {
      Job job;
      job.uuid = node.host + "-j" + std::to_string(next_job_++);
      job.gpu = static_cast<int>(rng_() % 2);
      node.jobs.push_back(job);
    }

    bool gpu_node = node.group == "gpu-incl" || node.group == "gpu-excl";
    double watts = 300 + static_cast<double>(rng_() % 400);
    if (node.spike_for > 0) {
      --node.spike_for;
      watts = 6000;
    }
    put(base, "ceems_ipmi_dcmi_current_watts", watts);
    put(base.with("index", "0"), "ceems_rapl_package_joules_total",
        counter(base.with("k", "pkg"), 150));
    if (node.group == "intel-cpu" || node.group == "gpu-incl") {
      put(base.with("index", "0"), "ceems_rapl_dram_joules_total",
          counter(base.with("k", "dram"), 30));
    }
    for (const char* mode : {"user", "system", "idle", "iowait"}) {
      put(base.with("cpu", "0").with("mode", mode), "node_cpu_seconds_total",
          counter(base.with("mode", mode), 4));
    }
    put(base, "node_memory_MemTotal_bytes", 256e9);
    put(base, "node_memory_MemAvailable_bytes",
        100e9 + static_cast<double>(rng_() % 100) * 1e9);
    put(base, "ceems_compute_units", static_cast<double>(node.jobs.size()));
    for (int g = 0; gpu_node && g < 2; ++g) {
      std::string gpu_uuid = "GPU-" + node.host + "-" + std::to_string(g);
      if (node.group == "gpu-incl") {
        put(base.with("UUID", gpu_uuid).with("gpu", std::to_string(g)),
            "DCGM_FI_DEV_POWER_USAGE", 50 + static_cast<double>(rng_() % 250));
        put(base.with("UUID", gpu_uuid).with("gpu", std::to_string(g)),
            "DCGM_FI_DEV_GPU_UTIL", static_cast<double>(rng_() % 101));
      } else {
        put(base.with("gpu_id", std::to_string(g)), "amd_gpu_power",
            5e7 + static_cast<double>(rng_() % 200) * 1e6);
      }
    }
    for (const auto& job : node.jobs) {
      Labels unit = base.with("uuid", job.uuid);
      put(unit, "ceems_compute_unit_cpu_usage_seconds_total",
          counter(unit.with("k", "cpu"), 2));
      put(unit, "ceems_compute_unit_memory_current_bytes",
          static_cast<double>(1 + rng_() % 64) * 1e9);
      put(unit, "ceems_compute_unit_network_tx_bytes_total",
          counter(unit.with("k", "tx"), 1e6));
      put(unit, "ceems_compute_unit_network_rx_bytes_total",
          counter(unit.with("k", "rx"), 1e6));
      if (gpu_node) {
        std::string g = std::to_string(job.gpu);
        put(unit.with("gpu_uuid", "GPU-" + node.host + "-" + g).with("index", g),
            "ceems_compute_unit_gpu_index_flag", 1);
      }
    }
  }

  std::mt19937_64 rng_;
  std::vector<Node> nodes_;
  std::map<Labels, double> counters_;
  std::vector<std::pair<Labels, double>> batch_;
  int emission_gap_start_ = 0;
  int next_job_ = 0;
};

// The rule pass as it was written before batching: one Engine::eval per
// rule and one append_one per output sample, with RuleEngine's alert
// lifecycle re-stated sample by sample.
class PerSampleRules {
 public:
  PerSampleRules(StorePtr store, std::vector<RuleGroup> groups)
      : store_(std::move(store)), groups_(std::move(groups)) {
    for (auto& group : groups_) {
      for (auto& rule : group.rules) rule.parsed = promql::parse(rule.expr);
      for (auto& rule : group.alerts) rule.parsed = promql::parse(rule.expr);
    }
  }

  RuleEvalStats evaluate_all(TimestampMs t) {
    RuleEvalStats stats;
    for (const auto& group : groups_) {
      for (const auto& rule : group.alerts) evaluate_alert(rule, t, stats);
      for (const auto& rule : group.rules) {
        promql::Value value = engine_.eval(*store_, rule.parsed, t);
        for (const auto& sample : value.vector) {
          Labels labels = sample.labels.to_labels().with_name(rule.record);
          for (const auto& [name, label_value] : rule.static_labels) {
            labels = labels.with(name, label_value);
          }
          if (append_one(*store_, labels, t, sample.value)) {
            ++stats.samples_written;
          }
        }
      }
    }
    return stats;
  }

 private:
  struct Alert {
    std::string name;
    Labels series;  // the ALERTS series labels
    bool firing = false;
    TimestampMs since = 0;
  };

  void evaluate_alert(const AlertingRule& rule, TimestampMs t,
                      RuleEvalStats& stats) {
    promql::Value value = engine_.eval(*store_, rule.parsed, t);
    std::set<uint64_t> seen;
    for (const auto& sample : value.vector) {
      Labels labels =
          sample.labels.to_labels().without_name().with("alertname", rule.alert);
      for (const auto& [name, label_value] : rule.static_labels) {
        labels = labels.with(name, label_value);
      }
      uint64_t key = labels.fingerprint();
      seen.insert(key);
      auto [it, fresh] = active_.try_emplace(key);
      Alert& alert = it->second;
      if (fresh) {
        alert.name = rule.alert;
        alert.series = labels.with("alertstate", "firing").with_name("ALERTS");
        alert.since = t;
        alert.firing = rule.for_ms == 0;
      }
      if (!alert.firing && t - alert.since >= rule.for_ms) alert.firing = true;
      if (alert.firing) {
        append_one(*store_, alert.series, t, 1);
        ++stats.alerts_firing;
      }
    }
    for (auto it = active_.begin(); it != active_.end();) {
      if (it->second.name == rule.alert && !seen.count(it->first)) {
        if (it->second.firing) {
          append_one(*store_, it->second.series, t, metrics::stale_marker());
        }
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
  }

  StorePtr store_;
  std::vector<RuleGroup> groups_;
  promql::Engine engine_;
  std::map<uint64_t, Alert> active_;
};

std::vector<RuleGroup> full_rule_library() {
  std::vector<RuleGroup> groups = core::jean_zay_rule_groups();
  for (auto& group : core::ebpf_network_rules()) groups.push_back(group);
  for (auto& group : core::ceems_alert_rules()) groups.push_back(group);
  return groups;
}

void run_rule_pass_differential(bool with_wal, bool on_pool) {
  const std::vector<RuleGroup> library = full_rule_library();
  std::size_t rule_count = 0;
  for (const auto& group : library) {
    rule_count += group.rules.size() + group.alerts.size();
  }
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto batched_store = std::make_shared<TimeSeriesStore>();
    auto reference_store = std::make_shared<TimeSeriesStore>();
    auto dir = std::make_shared<simfs::SimDurableDir>();
    std::unique_ptr<DurableTsdb> durable;
    if (with_wal) {
      durable = std::make_unique<DurableTsdb>(batched_store, dir);
      durable->open();
    }
    promql::EngineOptions options;
    if (on_pool) {
      options.pool = std::make_shared<common::ThreadPool>(4, "rules-test");
    }
    RuleEngine batched(batched_store, options);
    for (const auto& group : library) batched.add_group(group);
    PerSampleRules reference(reference_store, library);
    RandomFleet fleet(seed);

    bool fired = false;
    bool resolved = false;
    std::size_t firing_before = 0;
    for (int pass = 0; pass < 60; ++pass) {
      TimestampMs t = 1'000'000 + pass * 30'000;
      fleet.scrape(pass, t, {batched_store, reference_store});
      uint64_t records_before = with_wal ? durable->wal().stats().records : 0;
      RuleEvalStats got = batched.evaluate_all(t);
      RuleEvalStats want = reference.evaluate_all(t);
      ASSERT_EQ(got.rule_failures, 0u) << "seed " << seed << " pass " << pass;
      EXPECT_EQ(got.samples_written, want.samples_written)
          << "seed " << seed << " pass " << pass;
      EXPECT_EQ(got.alerts_firing, want.alerts_firing)
          << "seed " << seed << " pass " << pass;
      if (with_wal) {
        EXPECT_LE(durable->wal().stats().records - records_before, rule_count)
            << "seed " << seed << " pass " << pass;
      }
      // Rules write only at t and the raw writes are shared, so comparing
      // the instant each pass (and everything at the end) covers it all.
      ASSERT_EQ(digest(batched_store->select({}, t, t)),
                digest(reference_store->select({}, t, t)))
          << "seed " << seed << " pass " << pass;
      fired = fired || got.alerts_firing > 0;
      resolved = resolved || got.alerts_firing < firing_before;
      firing_before = got.alerts_firing;
    }
    EXPECT_EQ(digest(*batched_store), digest(*reference_store))
        << "seed " << seed;
    EXPECT_TRUE(fired) << "seed " << seed;
    EXPECT_TRUE(resolved) << "seed " << seed;
    if (with_wal) {
      // Whatever the batches logged replays to the same store.
      auto recovered = std::make_shared<TimeSeriesStore>();
      DurableTsdb reopened(recovered, dir);
      reopened.open();
      EXPECT_EQ(digest(*recovered), digest(*reference_store))
          << "seed " << seed;
    }
  }
}

TEST(RulesWriteDifferential, RulePassMatchesPerSampleReference) {
  run_rule_pass_differential(/*with_wal=*/false, /*on_pool=*/false);
}

TEST(RulesWriteDifferential, RulePassMatchesPerSampleReferenceWithWal) {
  run_rule_pass_differential(/*with_wal=*/true, /*on_pool=*/false);
}

// The same pass as a conflict graph on a 4-thread pool: rules that share
// no metric name run concurrently, and the stores stay bit-identical.
TEST(RulesWriteDifferential, GraphPassOnPoolMatchesPerSampleReference) {
  run_rule_pass_differential(/*with_wal=*/false, /*on_pool=*/true);
}

TEST(RulesWriteDifferential, GraphPassOnPoolMatchesPerSampleReferenceWithWal) {
  run_rule_pass_differential(/*with_wal=*/true, /*on_pool=*/true);
}

// ---------------------------------------------------------------------------
// read-through sync vs a select() + append_one copy

// The old sync's semantics: every hot sample newer than the cursor,
// pulled through select() and appended with string labels to a private
// copy, with the cursor taken from the samples copied, and a long-term
// store reading through that copy. Its contents and cursor come from this
// reference, not from the read-through under test.
class SelectAppendReplica {
 public:
  explicit SelectAppendReplica(LongTermConfig config)
      : copy_(std::make_shared<TimeSeriesStore>()), store_(copy_, config) {}

  std::size_t sync_from(const TimeSeriesStore& hot) {
    std::size_t copied = 0;
    for (const auto& view : hot.select({}, cursor_ + 1, kMaxT)) {
      for (const auto& sample : view.samples()) {
        if (append_one(*copy_, view.labels, sample.t, sample.v)) ++copied;
        cursor_ = std::max(cursor_, sample.t);
      }
    }
    EXPECT_EQ(store_.sync_from(*copy_), copied);
    return copied;
  }

  TimestampMs cursor() const { return cursor_; }
  LongTermStore& store() { return store_; }

 private:
  StorePtr copy_;
  LongTermStore store_;
  TimestampMs cursor_ = -1;
};

// Matchers over the sync differential's own label space.
std::vector<LabelMatcher> random_series_matchers(std::mt19937_64& rng) {
  static const std::vector<std::string> kSeriesNames = {"__name__",
                                                        "hostname", "uuid"};
  static const std::vector<std::string> kSeriesValues = {
      "ceems_a", "ceems_b", "ceems_late", "n1", "n4", "late", "103", ""};
  static const std::vector<std::string> kSeriesPatterns = {
      "ceems_.*", "n[0-4]", ".*", ".+", "1.*", "late|n8"};
  std::vector<LabelMatcher> matchers;
  std::size_t count = rng() % 3;
  for (std::size_t i = 0; i < count; ++i) {
    LabelMatcher matcher;
    matcher.name = pick(rng, kSeriesNames);
    matcher.op = static_cast<Op>(rng() % 4);
    matcher.value =
        matcher.op == Op::kRegexMatch || matcher.op == Op::kRegexNoMatch
            ? pick(rng, kSeriesPatterns)
            : pick(rng, kSeriesValues);
    matchers.push_back(std::move(matcher));
  }
  return matchers;
}

std::string agg_digest(const std::optional<std::vector<AggSeriesView>>& views) {
  if (!views) return "refused\n";
  std::string out;
  for (const auto& view : *views) {
    out += view.labels.to_labels().to_string() + "\n";
    for (const auto& b : view.buckets) {
      double fields[] = {b.sum, b.min, b.max, b.first_v, b.last_v, b.inc};
      out += "  " + std::to_string(b.t) + " " + std::to_string(b.count) +
             " " + std::to_string(b.first_t) + " " + std::to_string(b.last_t) +
             " " + std::to_string(b.marker_t);
      for (double field : fields) {
        uint64_t bits = 0;
        std::memcpy(&bits, &field, sizeof(bits));
        out += " " + std::to_string(bits);
      }
      out += "\n";
    }
  }
  return out;
}

TEST(LongTermSyncDifferential, SyncMatchesSelectAppendReplica) {
  using common::kMillisPerHour;
  using common::kMillisPerMinute;
  LongTermConfig config;
  config.downsample_after_ms = 40 * kMillisPerMinute;
  config.levels = {{5 * kMillisPerMinute, 3 * kMillisPerHour},
                   {kMillisPerHour, 0}};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    auto hot_ptr = std::make_shared<TimeSeriesStore>();
    TimeSeriesStore& hot = *hot_ptr;
    LongTermStore synced(hot_ptr, config);
    SelectAppendReplica replica(config);
    std::vector<Labels> series;
    for (int i = 0; i < 40; ++i) {
      series.push_back(Labels{{"hostname", "n" + std::to_string(i % 9)},
                              {"uuid", std::to_string(seed * 100 + i)}}
                           .with_name(i % 2 ? "ceems_a" : "ceems_b"));
    }
    std::size_t late_rejects = 0;
    for (int step = 0; step < 400; ++step) {
      TimestampMs now = step * 30'000;
      for (std::size_t i = 0; i < series.size(); ++i) {
        if (rng() % 6 == 0) continue;  // missed scrape
        // Jitter within the interval: shards see slightly different
        // newest timestamps, so the cursor lands mid-step.
        TimestampMs t = now + static_cast<TimestampMs>(rng() % 2000);
        double v = rng() % 25 == 0 ? metrics::stale_marker()
                                   : static_cast<double>(rng() % 5000) / 3.0;
        append_one(hot, series[i], t, v);
        if (rng() % 15 == 0) {
          // Late sample: rejected by the hot series as out of order, or
          // (for a fresh series) at the watermark, behind the cursor.
          if (!append_one(hot, series[i], t - 45'000, 1.0)) ++late_rejects;
        }
      }
      if (rng() % 40 == 0) {
        series.push_back(Labels{{"hostname", "late"},
                                {"uuid", std::to_string(step)}}
                             .with_name("ceems_late"));
        append_one(hot, series.back(), now - 60'000, 2.0);
      }
      if (rng() % 3 != 0) {
        ASSERT_EQ(synced.sync_from(hot), replica.sync_from(hot))
            << "seed " << seed << " step " << step;
        ASSERT_EQ(synced.sync_cursor(), replica.cursor())
            << "seed " << seed << " step " << step;
      }
      if (rng() % 4 == 0) {
        synced.compact(now);
        replica.store().compact(now);
      }
      if (step % 25 == 24) {
        ASSERT_EQ(digest(synced), digest(replica.store()))
            << "seed " << seed << " step " << step;
        for (int q = 0; q < 20; ++q) {
          auto matchers = random_series_matchers(rng);
          TimestampMs lo =
              now - static_cast<TimestampMs>(rng() % 200) * 30'000;
          TimestampMs hi = lo + static_cast<TimestampMs>(rng() % 120) * 30'000;
          ASSERT_EQ(digest(synced.select(matchers, lo, hi)),
                    digest(replica.store().select(matchers, lo, hi)))
              << "seed " << seed << " step " << step << " query " << q;
        }
        for (int64_t res : synced.agg_resolutions()) {
          TimestampMs max_end = (now / res) * res;
          TimestampMs min_end = max_end - 6 * res;
          ASSERT_EQ(agg_digest(synced.select_agg(res, {}, min_end, max_end)),
                    agg_digest(replica.store().select_agg(res, {}, min_end,
                                                          max_end)))
              << "seed " << seed << " step " << step << " res " << res;
        }
      }
    }
    EXPECT_GT(late_rejects, 0u);
    EXPECT_GT(hot.stats().out_of_bounds, 0u);
    EXPECT_GT(synced.downsampled_stats().num_samples, 0u);
    // Compaction owns the hot store's retention: nothing older than the
    // horizon's aligned boundary is left in it.
    EXPECT_TRUE(hot.select({}, 0, 360 * 30'000 - config.downsample_after_ms -
                                      kMillisPerHour)
                    .empty());
  }
}


// ---------------------------------------------------------------------------
// Goldens: the engine's own output, pinned

// The differentials above evaluate both sides through promql::Engine, so a
// change inside the engine moves both and stays invisible to them. These
// goldens pin the engine's results as recorded bytes instead: a 64-bit
// FNV-1a of the store digest after the full rule library has run over a
// random fleet, and of the JSON bodies of fixed queries over such a fleet.
// An intended change of results re-records them; the failure message
// prints the new value.

uint64_t golden_hash(const std::string& bytes) { return common::fnv1a(bytes); }

std::string hex(uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

TEST(RulesWriteDifferential, FullLibraryMatchesGolden) {
  const uint64_t kGolden[] = {
      0x6e170de15e921742ULL, 0xb0ea172858fcd92aULL, 0x1f5a8bd55b169403ULL,
      0x0b1b7d9017753ccaULL, 0x7c5b6cd7670cb28dULL,
  };
  const std::vector<RuleGroup> library = full_rule_library();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto store = std::make_shared<TimeSeriesStore>();
    RuleEngine rules(store);
    for (const auto& group : library) rules.add_group(group);
    RandomFleet fleet(seed);
    for (int pass = 0; pass < 60; ++pass) {
      TimestampMs t = 1'000'000 + pass * 30'000;
      fleet.scrape(pass, t, {store});
      ASSERT_EQ(rules.evaluate_all(t).rule_failures, 0u)
          << "seed " << seed << " pass " << pass;
    }
    EXPECT_EQ(hex(golden_hash(digest(*store))), hex(kGolden[seed - 1]))
        << "seed " << seed;
  }
}

TEST(PromqlGolden, QueriesMatchGolden) {
  using common::kMillisPerMinute;
  // Seed 3's fleet with the rule library, read through a long-term store
  // with one 5-minute level, synced and compacted every pass: 60 passes
  // from t = 1000 s to 2770 s, so buckets up to 2700 s are folded.
  auto hot = std::make_shared<TimeSeriesStore>();
  LongTermStore longterm(hot);
  RuleEngine rules(hot);
  for (const auto& group : full_rule_library()) rules.add_group(group);
  RandomFleet fleet(3);
  for (int pass = 0; pass < 60; ++pass) {
    TimestampMs t = 1'000'000 + pass * 30'000;
    fleet.scrape(pass, t, {hot});
    ASSERT_EQ(rules.evaluate_all(t).rule_failures, 0u) << "pass " << pass;
    longterm.sync_from(*hot);
    longterm.compact(t);
  }

  struct Query {
    std::string expr;
    TimestampMs start;
    TimestampMs end;  // == start: instant query
    uint64_t golden;
  };
  const TimestampMs kNow = 2'760'000;
  const TimestampMs kBucket = 5 * kMillisPerMinute;
  const std::vector<Query> queries = {
      {"sum by (nodegroup) (ceems_ipmi_dcmi_current_watts)", kNow, kNow,
       0x037b9c5d99de245bULL},
      {"avg(node_memory_MemAvailable_bytes)", kNow, kNow,
       0x4a05aef726bc4375ULL},
      {"topk(3, ceems_ipmi_dcmi_current_watts)", kNow, kNow,
       0xf77743b8bf825721ULL},
      {"count by (hostname) (ceems_compute_unit_memory_current_bytes)", kNow,
       kNow, 0x05e2494aaf1ac2fbULL},
      {"node_memory_MemAvailable_bytes * on (hostname) group_left (host) "
       "label_replace(up, \"host\", \"$1\", \"instance\", \"(.*):9010\")",
       kNow, kNow, 0x8b7a994a9919804cULL},
      {"ceems_ipmi_dcmi_current_watts > 650 or up == 0", kNow, kNow,
       0xfa4b39f5388c22b3ULL},
      {"ceems_compute_unit_memory_current_bytes unless on (hostname) "
       "(up == 0)",
       kNow, kNow, 0x9df6b8609bffe39fULL},
      {"clamp(ceems_ipmi_dcmi_current_watts, 400, 600)", kNow, kNow,
       0x6cbfba8c493c1e29ULL},
      {"rate(node_cpu_seconds_total{mode=\"user\"}[2m])", kNow, kNow,
       0xd9fad9a36b3d16dcULL},
      {"max_over_time(ceems_ipmi_dcmi_current_watts[3m])", kNow, kNow,
       0x6c17d3d12a40a789ULL},
      {"absent(ceems_emissions_gCo2_kWh) or absent(not_a_metric)", kNow, kNow,
       0x72746fc91fe682ceULL},
      // Bucket-aligned windows: served by the ladder (select_agg).
      {"avg_over_time(ceems_ipmi_dcmi_current_watts[10m])", 9 * kBucket,
       9 * kBucket, 0xe7a321ae4b8a897eULL},
      {"sum by (nodegroup) (rate(ceems_rapl_package_joules_total[10m]))",
       6 * kBucket, 9 * kBucket, 0xda49a5a70005d1a6ULL},
      {"sum by (nodegroup, uuid) (ceems_job_power_watts)", 1'600'000, kNow,
       0x583de2836b595f08ULL},
  };
  promql::Engine engine;
  const uint64_t ladder_hits_before = longterm.select_stats().level_hits[0];
  for (const auto& query : queries) {
    std::string body =
        query.start == query.end
            ? value_to_json(engine.eval(longterm, query.expr, query.start))
                  .dump()
            : matrix_to_json(engine.eval_range(longterm, query.expr,
                                               query.start, query.end, kBucket))
                  .dump();
    EXPECT_GT(body.size(), 60u) << query.expr << ": " << body;
    EXPECT_EQ(hex(golden_hash(body)), hex(query.golden)) << query.expr;
  }
  EXPECT_GE(longterm.select_stats().level_hits[0], ladder_hits_before + 2);
}

}  // namespace
}  // namespace ceems::tsdb
