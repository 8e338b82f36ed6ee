// Recording rules — the extensibility mechanism the paper builds its whole
// energy-estimation story on (§I, §III-A): operators express per-node-group
// power estimation (Eq. 1 among them) as PromQL recording rules rather
// than code. The engine evaluates rule groups against the store and writes
// the results back as new series named by `record`.
//
// Every pass is equal, bit for bit, to evaluating the due groups one
// after another, each group's alerts then its rules in order, with every
// rule seeing the results of earlier rules at the same instant
// (Prometheus semantics, which lets Eq. 1 be decomposed into named
// sub-expressions). add_group() builds a conflict graph over all rules:
// an edge joins two rules when one reads a metric name the other writes,
// or both write the same name, and a selector without a fixed name
// conflicts with every rule. A pass runs the due rules on
// EngineOptions::pool in graph order, so only rules that share no name
// run at the same time; without a pool it runs them inline in
// declaration order. See DESIGN.md "Rule evaluation as a conflict graph".
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/json.h"
#include "tsdb/promql_eval.h"
#include "tsdb/storage.h"

namespace ceems::tsdb {

struct RecordingRule {
  std::string record;            // output metric name
  std::string expr;              // PromQL text
  std::vector<std::pair<std::string, std::string>> static_labels;
  promql::ExprPtr parsed;        // filled by RuleEngine
};

// Alerting rule: fires while `expr` returns a non-empty vector (after a
// comparison filter, as in Prometheus). A `for` duration keeps the alert
// pending until the condition has held continuously that long.
struct AlertingRule {
  std::string alert;  // alert name
  std::string expr;
  int64_t for_ms = 0;
  std::vector<std::pair<std::string, std::string>> static_labels;
  promql::ExprPtr parsed;
};

enum class AlertState { kPending, kFiring };

struct ActiveAlert {
  std::string name;
  Labels labels;        // series labels + alertname + static labels
  AlertState state = AlertState::kPending;
  common::TimestampMs active_since_ms = 0;
  double value = 0;     // last value of the triggering sample
};

struct RuleGroup {
  std::string name;
  // Read by evaluate_due() only. core::CeemsStack runs evaluate_all() at
  // every scrape, so in the stack a group's interval changes nothing.
  int64_t interval_ms = 30 * common::kMillisPerSecond;
  std::vector<RecordingRule> rules;
  std::vector<AlertingRule> alerts;
};

struct RuleEvalStats {
  uint64_t rules_evaluated = 0;
  uint64_t samples_written = 0;
  uint64_t rule_failures = 0;
  uint64_t alerts_firing = 0;
  uint64_t alerts_pending = 0;

  RuleEvalStats& operator+=(const RuleEvalStats& other) {
    rules_evaluated += other.rules_evaluated;
    samples_written += other.samples_written;
    rule_failures += other.rule_failures;
    alerts_firing += other.alerts_firing;
    alerts_pending += other.alerts_pending;
    return *this;
  }
};

class RuleEngine {
 public:
  // `options.pool`, when set, runs the rules of a pass concurrently in
  // conflict-graph order; results equal the inline pass bit for bit.
  explicit RuleEngine(StorePtr store, promql::EngineOptions options = {});

  // Parses every rule expression up front; throws promql::ParseError on
  // invalid rules (fail fast at config load, like promtool check rules).
  void add_group(RuleGroup group);
  std::size_t group_count() const {
    std::lock_guard lock(eval_mu_);
    return groups_.size();
  }

  // Evaluates every group due at `t` (interval grid) and writes results.
  RuleEvalStats evaluate_due(common::TimestampMs t);
  // Evaluates everything regardless of interval (deterministic pipelines).
  RuleEvalStats evaluate_all(common::TimestampMs t);

  // Alerts currently pending or firing. Firing alerts are also written to
  // the store as ALERTS{alertname=...,alertstate=...} 1 series.
  std::vector<ActiveAlert> active_alerts() const;

 private:
  // One pending or firing alert and the labels of its ALERTS series.
  struct AlertInstance {
    ActiveAlert alert;
    InternedLabels series;
  };

  // Interval bookkeeping of one registered group.
  struct GroupSchedule {
    int64_t interval_ms = 0;
    common::TimestampMs last_eval = -1;
  };

  // One recording or alerting rule: a node of the conflict graph.
  struct RuleNode {
    std::size_t group = 0;
    std::variant<RecordingRule, AlertingRule> rule;
    // Metric names its selectors read (reads_any: some selector has no
    // fixed name) and the name it writes.
    std::vector<std::string> reads;
    bool reads_any = false;
    std::string writes;
    // Later nodes it conflicts with; every edge points forward in
    // declaration order.
    std::vector<std::size_t> successors;
    // Labels set on every result sample, in order, interned once by
    // add_group(): the record name then the static labels, or for an
    // alert alertname then the static labels.
    std::vector<InternedLabels::SymbolPair> labels;
    // Alerting rules only: this rule's instances, keyed by the
    // fingerprint of their labels.
    std::map<uint64_t, AlertInstance> active;
  };

  RuleEvalStats run_pass(common::TimestampMs t, bool only_due);
  RuleEvalStats evaluate_node(RuleNode& node, common::TimestampMs t);
  void evaluate_record(const RecordingRule& rule, const RuleNode& node,
                       common::TimestampMs t, RuleEvalStats& stats);
  void evaluate_alert(const AlertingRule& rule, RuleNode& node,
                      common::TimestampMs t, RuleEvalStats& stats);

  StorePtr store_;
  promql::Engine engine_;
  std::shared_ptr<common::ThreadPool> pool_;
  // Serialises rule evaluation against group registration and alert
  // snapshots, so active_alerts() and group_count() may be called from
  // another thread while the stack's driver evaluates.
  mutable std::mutex eval_mu_;
  std::vector<GroupSchedule> groups_;
  std::vector<RuleNode> nodes_;  // declaration order
};

// Parses rule groups from the `groups:` section of a Prometheus-style rule
// file already loaded as a Json/YAML tree:
//   groups:
//     - name: energy
//       interval: 30s
//       rules:
//         - record: ceems_job_power_watts
//           expr: ...
//           labels: { group: intel }
std::vector<RuleGroup> parse_rule_groups(const common::Json& root);

}  // namespace ceems::tsdb
