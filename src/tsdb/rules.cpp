#include "tsdb/rules.h"

#include <set>

#include "common/logging.h"
#include "common/strutil.h"

namespace ceems::tsdb {

namespace {

// One rule's output, written as a single append_refs batch, so a
// WAL-backed store logs one record per rule. Refs are built at commit,
// once every label set is in place and the vector no longer moves.
class OutputBatch {
 public:
  void add(const Labels& labels, double value) {
    labels_.emplace_back(labels);
    values_.push_back(value);
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

}  // namespace

RuleEngine::RuleEngine(StorePtr store, promql::EngineOptions options)
    : store_(std::move(store)), engine_(options) {}

void RuleEngine::add_group(RuleGroup group) {
  for (auto& rule : group.rules) {
    if (!metrics::is_valid_metric_name(rule.record))
      throw promql::ParseError("invalid record name: " + rule.record);
    rule.parsed = promql::parse(rule.expr);
  }
  for (auto& rule : group.alerts) {
    if (rule.alert.empty())
      throw promql::ParseError("alerting rule without a name");
    rule.parsed = promql::parse(rule.expr);
  }
  std::lock_guard lock(eval_mu_);
  groups_.push_back(std::move(group));
  last_eval_.push_back(-1);
}

void RuleEngine::evaluate_alert(const AlertingRule& rule,
                                common::TimestampMs t, RuleEvalStats& stats) {
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
  OutputBatch alerts;
  std::set<uint64_t> seen;
  for (const auto& sample : value.vector) {
    Labels labels = sample.labels.without_name().with("alertname", rule.alert);
    for (const auto& [name, label_value] : rule.static_labels) {
      labels = labels.with(name, label_value);
    }
    uint64_t key = labels.fingerprint();
    seen.insert(key);
    auto it = active_.find(key);
    if (it == active_.end()) {
      ActiveAlert alert;
      alert.name = rule.alert;
      alert.labels = labels;
      alert.active_since_ms = t;
      alert.value = sample.value;
      alert.state = rule.for_ms == 0 ? AlertState::kFiring
                                     : AlertState::kPending;
      it = active_.emplace(key, std::move(alert)).first;
    }
    ActiveAlert& alert = it->second;
    alert.value = sample.value;
    if (alert.state == AlertState::kPending &&
        t - alert.active_since_ms >= rule.for_ms) {
      alert.state = AlertState::kFiring;
    }
    if (alert.state == AlertState::kFiring) {
      alerts.add(alert.labels.with("alertstate", "firing").with_name("ALERTS"),
                 1);
      ++stats.alerts_firing;
    } else {
      ++stats.alerts_pending;
    }
  }
  // Resolve instances of this alert that stopped matching. An instance
  // that was firing wrote ALERTS samples; end that series with a staleness
  // marker so instant queries drop it immediately instead of it lingering
  // for a full lookback window after resolution.
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.name == rule.alert && !seen.count(it->first)) {
      if (it->second.state == AlertState::kFiring) {
        alerts.add(it->second.labels.with("alertstate", "firing")
                       .with_name("ALERTS"),
                   metrics::stale_marker());
      }
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  alerts.commit(*store_, t);
}

RuleEvalStats RuleEngine::evaluate_group(RuleGroup& group,
                                         common::TimestampMs t) {
  RuleEvalStats stats;
  for (const auto& alert_rule : group.alerts) {
    ++stats.rules_evaluated;
    evaluate_alert(alert_rule, t, stats);
  }
  for (const auto& rule : group.rules) {
    ++stats.rules_evaluated;
    try {
      promql::Value value = engine_.eval(*store_, rule.parsed, t);
      if (value.kind != promql::Value::Kind::kVector) {
        CEEMS_LOG_WARN("rules")
            << "rule " << rule.record << " did not yield a vector";
        ++stats.rule_failures;
        continue;
      }
      OutputBatch output;
      for (const auto& sample : value.vector) {
        Labels labels = sample.labels.with_name(rule.record);
        for (const auto& [name, label_value] : rule.static_labels) {
          labels = labels.with(name, label_value);
        }
        output.add(labels, sample.value);
      }
      stats.samples_written += output.commit(*store_, t);
    } catch (const std::exception& e) {
      ++stats.rule_failures;
      CEEMS_LOG_WARN("rules") << "rule " << rule.record << ": " << e.what();
    }
  }
  return stats;
}

RuleEvalStats RuleEngine::evaluate_due(common::TimestampMs t) {
  RuleEvalStats total;
  std::lock_guard lock(eval_mu_);
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (last_eval_[i] >= 0 && t - last_eval_[i] < groups_[i].interval_ms)
      continue;
    last_eval_[i] = t;
    RuleEvalStats stats = evaluate_group(groups_[i], t);
    total.rules_evaluated += stats.rules_evaluated;
    total.samples_written += stats.samples_written;
    total.rule_failures += stats.rule_failures;
    total.alerts_firing += stats.alerts_firing;
    total.alerts_pending += stats.alerts_pending;
  }
  return total;
}

RuleEvalStats RuleEngine::evaluate_all(common::TimestampMs t) {
  RuleEvalStats total;
  std::lock_guard lock(eval_mu_);
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    last_eval_[i] = t;
    RuleEvalStats stats = evaluate_group(groups_[i], t);
    total.rules_evaluated += stats.rules_evaluated;
    total.samples_written += stats.samples_written;
    total.rule_failures += stats.rule_failures;
    total.alerts_firing += stats.alerts_firing;
    total.alerts_pending += stats.alerts_pending;
  }
  return total;
}

std::vector<ActiveAlert> RuleEngine::active_alerts() const {
  std::lock_guard lock(eval_mu_);
  std::vector<ActiveAlert> out;
  out.reserve(active_.size());
  for (const auto& [key, alert] : active_) out.push_back(alert);
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
