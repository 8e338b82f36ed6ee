#include "tsdb/rules.h"

#include <algorithm>
#include <condition_variable>
#include <set>

#include "common/logging.h"
#include "common/strutil.h"

namespace ceems::tsdb {

namespace {

constexpr std::string_view kAlertsMetric = "ALERTS";

// One rule's output, written as a single append_refs batch, so a
// WAL-backed store logs one record per rule. Refs are built at commit,
// once every label set is in place and the vector no longer moves.
class OutputBatch {
 public:
  void add(metrics::InternedLabels labels, double value) {
    labels_.push_back(std::move(labels));
    values_.push_back(value);
  }

  // True when two samples share a label set: one append_refs batch would
  // keep only the later one.
  bool has_duplicate_labels() const {
    std::vector<const metrics::InternedLabels*> sorted;
    sorted.reserve(labels_.size());
    for (const auto& labels : labels_) sorted.push_back(&labels);
    std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
      return a->fingerprint() != b->fingerprint()
                 ? a->fingerprint() < b->fingerprint()
                 : a->pairs() < b->pairs();
    });
    return std::adjacent_find(sorted.begin(), sorted.end(),
                              [](const auto* a, const auto* b) {
                                return *a == *b;
                              }) != sorted.end();
  }

  // Returns the samples the store accepted.
  std::size_t commit(TimeSeriesStore& store, common::TimestampMs t) const {
    std::vector<metrics::SampleRef> refs;
    refs.reserve(labels_.size());
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      refs.push_back({&labels_[i], t, values_[i]});
    }
    return store.append_refs(refs.data(), refs.size());
  }

 private:
  std::vector<metrics::InternedLabels> labels_;
  std::vector<double> values_;
};

// Appends the metric names `expr`'s selectors read to `reads`. Returns
// false if some selector has no fixed name (a regex or absent __name__).
bool collect_reads(const promql::ExprPtr& expr,
                   std::vector<std::string>& reads) {
  if (!expr) return true;
  bool fixed = true;
  if (expr->kind == promql::Expr::Kind::kVectorSelector ||
      expr->kind == promql::Expr::Kind::kMatrixSelector) {
    std::string name = expr->metric_name;
    for (const auto& matcher : expr->matchers) {
      if (name.empty() && matcher.name == metrics::kMetricNameLabel &&
          matcher.op == metrics::LabelMatcher::Op::kEq) {
        name = matcher.value;
      }
    }
    if (name.empty()) {
      fixed = false;
    } else {
      reads.push_back(std::move(name));
    }
  }
  fixed = collect_reads(expr->lhs, reads) && fixed;
  fixed = collect_reads(expr->rhs, reads) && fixed;
  fixed = collect_reads(expr->agg_expr, reads) && fixed;
  fixed = collect_reads(expr->agg_param, reads) && fixed;
  for (const auto& arg : expr->args) fixed = collect_reads(arg, reads) && fixed;
  return fixed;
}

}  // namespace

RuleEngine::RuleEngine(StorePtr store, promql::EngineOptions options)
    : store_(std::move(store)), engine_(options), pool_(options.pool) {}

void RuleEngine::add_group(RuleGroup group) {
  // Declaration order within a group: alerts, then recording rules.
  std::vector<RuleNode> added;
  metrics::SymbolTable& table = metrics::SymbolTable::global();
  auto add = [&](auto& rule, std::string writes, std::string_view label,
                 std::string_view value) {
    rule.parsed = promql::parse(rule.expr);
    RuleNode node;
    node.reads_any = !collect_reads(rule.parsed, node.reads);
    node.writes = std::move(writes);
    node.labels.emplace_back(table.intern(label), table.intern(value));
    for (const auto& [name, label_value] : rule.static_labels) {
      node.labels.emplace_back(table.intern(name), table.intern(label_value));
    }
    node.rule = std::move(rule);
    added.push_back(std::move(node));
  };
  for (auto& rule : group.alerts) {
    if (rule.alert.empty())
      throw promql::ParseError("alerting rule without a name");
    add(rule, std::string(kAlertsMetric), "alertname", rule.alert);
  }
  for (auto& rule : group.rules) {
    if (!metrics::is_valid_metric_name(rule.record))
      throw promql::ParseError("invalid record name: " + rule.record);
    add(rule, rule.record, metrics::kMetricNameLabel, rule.record);
  }

  auto reads = [](const RuleNode& node, const std::string& name) {
    return node.reads_any || std::find(node.reads.begin(), node.reads.end(),
                                       name) != node.reads.end();
  };
  std::lock_guard lock(eval_mu_);
  for (auto& node : added) {
    node.group = groups_.size();
    const std::size_t index = nodes_.size();
    for (auto& earlier : nodes_) {
      // Read-after-write, write-after-read, write-after-write.
      if (reads(node, earlier.writes) || reads(earlier, node.writes) ||
          earlier.writes == node.writes) {
        earlier.successors.push_back(index);
      }
    }
    nodes_.push_back(std::move(node));
  }
  groups_.push_back({group.interval_ms});
}

void RuleEngine::evaluate_alert(const AlertingRule& rule, RuleNode& node,
                                common::TimestampMs t, RuleEvalStats& stats) {
  // The ALERTS series of an instance: its labels, alertstate, the name.
  static const std::vector<InternedLabels::SymbolPair> kFiringSeries = [] {
    metrics::SymbolTable& table = metrics::SymbolTable::global();
    return std::vector<InternedLabels::SymbolPair>{
        {table.intern("alertstate"), table.intern("firing")},
        {metrics::metric_name_symbol(), table.intern(kAlertsMetric)}};
  }();
  promql::Value value;
  try {
    value = engine_.eval(*store_, rule.parsed, t);
  } catch (const std::exception& e) {
    ++stats.rule_failures;
    CEEMS_LOG_WARN("rules") << "alert " << rule.alert << ": " << e.what();
    return;
  }
  if (value.kind != promql::Value::Kind::kVector) {
    ++stats.rule_failures;
    CEEMS_LOG_WARN("rules") << "alert " << rule.alert
                            << " did not yield a vector";
    return;
  }

  // Mark the alert instances present in this evaluation.
  std::map<uint64_t, AlertInstance>& active = node.active;
  OutputBatch alerts;
  std::set<uint64_t> seen;
  for (auto& sample : value.vector) {
    InternedLabels labels =
        std::move(sample.labels).without_name().with_symbols(node.labels);
    uint64_t key = labels.fingerprint();
    seen.insert(key);
    auto it = active.find(key);
    if (it == active.end()) {
      AlertInstance instance;
      ActiveAlert& alert = instance.alert;
      alert.name = rule.alert;
      alert.labels = labels.to_labels();
      alert.active_since_ms = t;
      alert.value = sample.value;
      alert.state = rule.for_ms == 0 ? AlertState::kFiring
                                     : AlertState::kPending;
      instance.series = std::move(labels).with_symbols(kFiringSeries);
      it = active.emplace(key, std::move(instance)).first;
    }
    ActiveAlert& alert = it->second.alert;
    alert.value = sample.value;
    if (alert.state == AlertState::kPending &&
        t - alert.active_since_ms >= rule.for_ms) {
      alert.state = AlertState::kFiring;
    }
    if (alert.state == AlertState::kFiring) {
      alerts.add(it->second.series, 1);
      ++stats.alerts_firing;
    } else {
      ++stats.alerts_pending;
    }
  }
  // Resolve instances that stopped matching. An instance that was firing
  // wrote ALERTS samples; end that series with a staleness marker so
  // instant queries drop it immediately instead of it lingering for a
  // full lookback window after resolution.
  for (auto it = active.begin(); it != active.end();) {
    if (!seen.count(it->first)) {
      if (it->second.alert.state == AlertState::kFiring) {
        alerts.add(it->second.series, metrics::stale_marker());
      }
      it = active.erase(it);
    } else {
      ++it;
    }
  }
  alerts.commit(*store_, t);
}

void RuleEngine::evaluate_record(const RecordingRule& rule,
                                 const RuleNode& node, common::TimestampMs t,
                                 RuleEvalStats& stats) {
  try {
    promql::Value value = engine_.eval(*store_, rule.parsed, t);
    if (value.kind != promql::Value::Kind::kVector) {
      CEEMS_LOG_WARN("rules")
          << "rule " << rule.record << " did not yield a vector";
      ++stats.rule_failures;
      return;
    }
    OutputBatch output;
    for (auto& sample : value.vector) {
      output.add(std::move(sample.labels).with_symbols(node.labels),
                 sample.value);
    }
    if (output.has_duplicate_labels()) {
      CEEMS_LOG_WARN("rules") << "rule " << rule.record
                              << ": vector contains metrics with the same "
                                 "labelset after applying rule labels";
      ++stats.rule_failures;
      return;
    }
    stats.samples_written += output.commit(*store_, t);
  } catch (const std::exception& e) {
    ++stats.rule_failures;
    CEEMS_LOG_WARN("rules") << "rule " << rule.record << ": " << e.what();
  }
}

RuleEvalStats RuleEngine::evaluate_node(RuleNode& node,
                                        common::TimestampMs t) {
  RuleEvalStats stats;
  ++stats.rules_evaluated;
  if (auto* alert = std::get_if<AlertingRule>(&node.rule)) {
    evaluate_alert(*alert, node, t, stats);
  } else {
    evaluate_record(std::get<RecordingRule>(node.rule), node, t, stats);
  }
  return stats;
}

RuleEvalStats RuleEngine::run_pass(common::TimestampMs t, bool only_due) {
  std::lock_guard lock(eval_mu_);
  std::vector<char> due(nodes_.size(), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    GroupSchedule& group = groups_[g];
    if (only_due && group.last_eval >= 0 &&
        t - group.last_eval < group.interval_ms) {
      continue;
    }
    group.last_eval = t;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].group == g) due[i] = 1;
    }
  }

  std::vector<RuleEvalStats> node_stats(nodes_.size());
  if (!pool_) {
    // Every edge points forward, so declaration order is a topological
    // order of the graph.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (due[i]) node_stats[i] = evaluate_node(nodes_[i], t);
    }
  } else {
    // This thread dispatches: a node is submitted once all its due
    // predecessors have finished. Workers only evaluate and report back,
    // so the pool may be shared and never blocks on its own tasks.
    struct Finished {
      std::mutex mu;
      std::condition_variable cv;
      std::vector<std::size_t> nodes;
    };
    auto finished = std::make_shared<Finished>();
    auto start = [&](std::size_t i) {
      auto task = [this, finished, i, t, out = &node_stats[i]] {
        *out = evaluate_node(nodes_[i], t);
        std::lock_guard done(finished->mu);
        finished->nodes.push_back(i);
        finished->cv.notify_one();
      };
      if (!pool_->submit(task)) task();  // pool shutting down
    };
    std::vector<std::size_t> waiting(nodes_.size(), 0);
    std::size_t pending = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!due[i]) continue;
      ++pending;
      for (std::size_t s : nodes_[i].successors) waiting[s] += due[s];
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (due[i] && waiting[i] == 0) start(i);
    }
    std::vector<std::size_t> done;
    while (pending > 0) {
      {
        std::unique_lock wait(finished->mu);
        finished->cv.wait(wait, [&] { return !finished->nodes.empty(); });
        done.swap(finished->nodes);
      }
      for (std::size_t i : done) {
        --pending;
        for (std::size_t s : nodes_[i].successors) {
          if (due[s] && --waiting[s] == 0) start(s);
        }
      }
      done.clear();
    }
  }

  RuleEvalStats total;
  for (const auto& stats : node_stats) total += stats;
  return total;
}

RuleEvalStats RuleEngine::evaluate_due(common::TimestampMs t) {
  return run_pass(t, /*only_due=*/true);
}

RuleEvalStats RuleEngine::evaluate_all(common::TimestampMs t) {
  return run_pass(t, /*only_due=*/false);
}

std::vector<ActiveAlert> RuleEngine::active_alerts() const {
  std::lock_guard lock(eval_mu_);
  std::vector<ActiveAlert> out;
  for (const auto& node : nodes_) {
    for (const auto& [key, instance] : node.active) {
      out.push_back(instance.alert);
    }
  }
  return out;
}

std::vector<RuleGroup> parse_rule_groups(const common::Json& root) {
  std::vector<RuleGroup> groups;
  auto groups_node = root.get("groups");
  if (!groups_node || !groups_node->is_array()) return groups;
  for (const auto& group_node : groups_node->as_array()) {
    RuleGroup group;
    group.name = group_node.get_string("name", "unnamed");
    std::string interval = group_node.get_string("interval", "30s");
    group.interval_ms =
        common::parse_duration_ms(interval).value_or(30 * 1000);
    auto rules_node = group_node.get("rules");
    if (rules_node && rules_node->is_array()) {
      for (const auto& rule_node : rules_node->as_array()) {
        std::vector<std::pair<std::string, std::string>> static_labels;
        if (auto labels_node = rule_node.get("labels");
            labels_node && labels_node->is_object()) {
          for (const auto& [name, value] : labels_node->as_object()) {
            static_labels.emplace_back(
                name, value.is_string() ? value.as_string() : value.dump());
          }
        }
        if (rule_node.get("alert")) {
          AlertingRule rule;
          rule.alert = rule_node.get_string("alert");
          rule.expr = rule_node.get_string("expr");
          rule.for_ms = common::parse_duration_ms(
                            rule_node.get_string("for", "0s"))
                            .value_or(0);
          rule.static_labels = std::move(static_labels);
          group.alerts.push_back(std::move(rule));
        } else {
          RecordingRule rule;
          rule.record = rule_node.get_string("record");
          rule.expr = rule_node.get_string("expr");
          rule.static_labels = std::move(static_labels);
          group.rules.push_back(std::move(rule));
        }
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace ceems::tsdb
