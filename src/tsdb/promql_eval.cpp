#include "tsdb/promql_eval.h"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <map>
#include <regex>
#include <unordered_map>
#include <unordered_set>

#include "metrics/regex_cache.h"

namespace ceems::tsdb::promql {

double counter_increase(const SamplePoint* samples, std::size_t count) {
  // Sum of positive deltas; a drop is a counter reset (new epoch adds from
  // zero), matching Prometheus' reset handling.
  double total = 0;
  for (std::size_t i = 1; i < count; ++i) {
    double delta = samples[i].v - samples[i - 1].v;
    total += delta >= 0 ? delta : samples[i].v;
  }
  return total;
}

namespace {

using metrics::kMetricNameLabel;
using metrics::QuerySymbols;
using metrics::SymbolTable;

// ---------- selector evaluation ----------

std::vector<metrics::LabelMatcher> full_matchers(const Expr& expr) {
  std::vector<metrics::LabelMatcher> matchers = expr.matchers;
  if (!expr.metric_name.empty()) {
    matchers.push_back({std::string(kMetricNameLabel),
                        metrics::LabelMatcher::Op::kEq, expr.metric_name});
  }
  return matchers;
}

InstantVector eval_vector_selector(const Queryable& source, const Expr& expr,
                                   TimestampMs t) {
  TimestampMs at = t - expr.offset_ms;
  auto views = source.select(full_matchers(expr), at - kLookbackMs, at);
  InstantVector out;
  out.reserve(views.size());
  for (auto& view : views) {
    // last() decodes at most one chunk; an instant selector never pays for
    // materialising the whole lookback window. A staleness marker as the
    // newest sample means the series ended: it drops out of the vector
    // now, not when the lookback window drains.
    if (auto last = view.last()) {
      if (metrics::is_stale_marker(last->v)) continue;
      out.push_back({std::move(view.labels), last->v});
    }
  }
  return out;
}

std::vector<MatrixSeries> eval_matrix_selector(const Queryable& source,
                                               const Expr& expr,
                                               TimestampMs t) {
  TimestampMs at = t - expr.offset_ms;
  // Range selectors are left-open: (t-range, t]. Range functions walk the
  // full window, so views decode here. Staleness markers are boundaries,
  // not observations: they are filtered out so rate()/avg_over_time()
  // never fold a marker NaN into a window.
  auto views = source.select(full_matchers(expr), at - expr.range_ms + 1, at);
  std::vector<MatrixSeries> out;
  out.reserve(views.size());
  for (auto& view : views) {
    MatrixSeries series{std::move(view.labels), view.samples()};
    series.samples.erase(
        std::remove_if(series.samples.begin(), series.samples.end(),
                       [](const SamplePoint& sample) {
                         return metrics::is_stale_marker(sample.v);
                       }),
        series.samples.end());
    if (!series.samples.empty()) out.push_back(std::move(series));
  }
  return out;
}

// ---------- range-vector functions ----------

// func: name of the *_over_time / rate family function. Takes a pointer
// range so the streaming evaluator can fold a window of a prepared series
// in place, without copying it out first.
bool eval_range_function(const std::string& func, const SamplePoint* samples,
                         std::size_t count, double& result) {
  if (count == 0) return false;
  if (func == "last_over_time") {
    result = samples[count - 1].v;
    return true;
  }
  if (func == "count_over_time") {
    result = static_cast<double>(count);
    return true;
  }
  if (func == "sum_over_time" || func == "avg_over_time") {
    double sum = 0;
    for (std::size_t i = 0; i < count; ++i) sum += samples[i].v;
    result = func[0] == 's' ? sum : sum / static_cast<double>(count);
    return true;
  }
  if (func == "min_over_time" || func == "max_over_time") {
    double best = samples[0].v;
    for (std::size_t i = 0; i < count; ++i) {
      best = func[1] == 'i' ? std::min(best, samples[i].v)
                            : std::max(best, samples[i].v);
    }
    result = best;
    return true;
  }
  if (func == "stddev_over_time") {
    double mean = 0;
    for (std::size_t i = 0; i < count; ++i) mean += samples[i].v;
    mean /= static_cast<double>(count);
    double var = 0;
    for (std::size_t i = 0; i < count; ++i) {
      var += (samples[i].v - mean) * (samples[i].v - mean);
    }
    result = std::sqrt(var / static_cast<double>(count));
    return true;
  }
  // Functions below need at least two samples.
  if (count < 2) return false;
  double span_sec =
      static_cast<double>(samples[count - 1].t - samples[0].t) / 1000.0;
  if (func == "rate") {
    if (span_sec <= 0) return false;
    result = counter_increase(samples, count) / span_sec;
    return true;
  }
  if (func == "increase") {
    result = counter_increase(samples, count);
    return true;
  }
  if (func == "delta") {
    result = samples[count - 1].v - samples[0].v;
    return true;
  }
  if (func == "deriv") {
    if (span_sec <= 0) return false;
    // Least-squares slope/intercept over the window, like Prometheus.
    double n = static_cast<double>(count);
    double sum_t = 0, sum_v = 0, sum_tv = 0, sum_tt = 0;
    double t0 = static_cast<double>(samples[0].t) / 1000.0;
    for (std::size_t i = 0; i < count; ++i) {
      double t = static_cast<double>(samples[i].t) / 1000.0 - t0;
      sum_t += t;
      sum_v += samples[i].v;
      sum_tv += t * samples[i].v;
      sum_tt += t * t;
    }
    double denom = n * sum_tt - sum_t * sum_t;
    if (denom == 0) return false;
    result = (n * sum_tv - sum_t * sum_v) / denom;  // slope for deriv
    return true;
  }
  if (func == "irate" || func == "idelta") {
    const SamplePoint& a = samples[count - 2];
    const SamplePoint& b = samples[count - 1];
    double dt_sec = static_cast<double>(b.t - a.t) / 1000.0;
    if (func == "idelta") {
      result = b.v - a.v;
      return true;
    }
    if (dt_sec <= 0) return false;
    double delta = b.v - a.v;
    if (delta < 0) delta = b.v;  // reset
    result = delta / dt_sec;
    return true;
  }
  if (func == "resets") {
    int resets = 0;
    for (std::size_t i = 1; i < count; ++i) {
      if (samples[i].v < samples[i - 1].v) ++resets;
    }
    result = resets;
    return true;
  }
  if (func == "changes") {
    int changes = 0;
    for (std::size_t i = 1; i < count; ++i) {
      if (samples[i].v != samples[i - 1].v) ++changes;
    }
    result = changes;
    return true;
  }
  return false;
}

bool is_range_function(const std::string& func) {
  static const std::vector<std::string> kFuncs = {
      "rate",          "irate",          "increase",       "delta",
      "idelta",        "deriv",          "resets",         "changes",
      "avg_over_time", "sum_over_time",  "min_over_time",  "max_over_time",
      "count_over_time", "last_over_time", "stddev_over_time"};
  return std::find(kFuncs.begin(), kFuncs.end(), func) != kFuncs.end();
}

// ---------- resolution-aware planning ----------
//
// The window functions the aggregate-bucket columns can answer *exactly*
// when the window tiles whole buckets: count/min/max reproduce the raw
// fold bit for bit unconditionally, sum/avg/rate/increase reproduce it
// under exact arithmetic (partial sums regroup the same terms — see
// DESIGN.md §10 for the per-function argument). Everything else falls
// back to raw samples.
bool is_agg_plannable_function(const std::string& func) {
  return func == "sum_over_time" || func == "avg_over_time" ||
         func == "min_over_time" || func == "max_over_time" ||
         func == "count_over_time" || func == "rate" || func == "increase";
}

// Folds one window's worth of aggregate buckets — the bucket analogue of
// eval_range_function over raw samples. `buckets` are the (time-ordered)
// buckets whose end lies inside the window; count-0 rows (marker-only
// buckets) contribute nothing, exactly like the raw path where markers
// are filtered before the window fold.
bool eval_agg_window(const std::string& func, const AggBucket* buckets,
                     std::size_t n, double& result) {
  uint64_t total = 0;
  const AggBucket* first = nullptr;
  const AggBucket* last = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    if (buckets[i].count == 0) continue;
    total += buckets[i].count;
    if (!first) first = &buckets[i];
    last = &buckets[i];
  }
  if (total == 0) return false;
  if (func == "count_over_time") {
    result = static_cast<double>(total);
    return true;
  }
  if (func == "sum_over_time" || func == "avg_over_time") {
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (buckets[i].count > 0) acc += buckets[i].sum;
    }
    result = func[0] == 's' ? acc : acc / static_cast<double>(total);
    return true;
  }
  if (func == "min_over_time" || func == "max_over_time") {
    // The raw fold sticks on a NaN first sample; the window's first sample
    // is the first nonempty bucket's first sample.
    if (std::isnan(first->first_v)) {
      result = first->first_v;
      return true;
    }
    bool is_min = func[1] == 'i';
    double best = 0;
    bool seen = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (buckets[i].count == 0) continue;
      double candidate = is_min ? buckets[i].min : buckets[i].max;
      if (std::isnan(candidate)) continue;  // bucket had no non-NaN sample
      if (!seen) {
        best = candidate;
        seen = true;
      } else if (is_min ? candidate < best : best < candidate) {
        best = candidate;
      }
    }
    // `first->first_v` is non-NaN, so its bucket min/max is too.
    result = best;
    return true;
  }
  if (func == "rate" || func == "increase") {
    if (total < 2) return false;
    // Within-bucket increases plus the reset-aware delta across each pair
    // of adjacent nonempty buckets — the same positive-delta terms the
    // raw counter_increase fold adds, regrouped.
    double acc = 0;
    const AggBucket* prev = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
      if (buckets[i].count == 0) continue;
      if (prev) {
        double delta = buckets[i].first_v - prev->last_v;
        acc += delta >= 0 ? delta : buckets[i].first_v;
      }
      acc += buckets[i].inc;
      prev = &buckets[i];
    }
    if (func == "increase") {
      result = acc;
      return true;
    }
    double span_sec = static_cast<double>(last->last_t - first->first_t) / 1000.0;
    if (span_sec <= 0) return false;
    result = acc / span_sec;
    return true;
  }
  return false;
}

// ---------- binary operators ----------

bool is_comparison(const std::string& op) {
  return op == "==" || op == "!=" || op == "<" || op == ">" || op == "<=" ||
         op == ">=";
}

bool is_set_op(const std::string& op) {
  return op == "and" || op == "or" || op == "unless";
}

double scalar_binop(const std::string& op, double lhs, double rhs) {
  if (op == "+") return lhs + rhs;
  if (op == "-") return lhs - rhs;
  if (op == "*") return lhs * rhs;
  if (op == "/") return rhs == 0 ? (lhs == 0 ? std::nan("") : (lhs > 0 ? INFINITY : -INFINITY)) : lhs / rhs;
  if (op == "%") return std::fmod(lhs, rhs);
  if (op == "^") return std::pow(lhs, rhs);
  if (op == "==") return lhs == rhs ? 1 : 0;
  if (op == "!=") return lhs != rhs ? 1 : 0;
  if (op == "<") return lhs < rhs ? 1 : 0;
  if (op == ">") return lhs > rhs ? 1 : 0;
  if (op == "<=") return lhs <= rhs ? 1 : 0;
  if (op == ">=") return lhs >= rhs ? 1 : 0;
  throw EvalError("unknown operator " + op);
}

// Label names resolved to symbols once per evaluation. Names never
// interned cannot occur in any label set, so they are left out.
std::vector<uint32_t> find_symbols(const std::vector<std::string>& names) {
  std::vector<uint32_t> out;
  out.reserve(names.size() + 1);
  for (const auto& name : names) {
    if (auto symbol = QuerySymbols::find(name)) {
      out.push_back(*symbol);
    }
  }
  return out;
}

// A by/without or on/ignoring list as symbols: keep only the listed names,
// or drop them. fingerprint() is what groups and matches key on; apply()
// builds the label set, only where one is emitted.
struct LabelFilter {
  std::vector<uint32_t> names;
  bool keep = false;

  uint64_t fingerprint(const InternedLabels& labels) const {
    return keep ? labels.keep_only_fingerprint(names)
                : labels.drop_fingerprint(names);
  }
  InternedLabels apply(const InternedLabels& labels) const {
    return keep ? labels.keep_only(names) : labels.drop(names);
  }
};

// Signature used to pair series across a binary op: on() keeps the listed
// labels, ignoring() drops them and the metric name.
LabelFilter match_filter(const VectorMatching& matching) {
  LabelFilter filter{find_symbols(matching.labels), matching.is_on};
  if (!matching.is_on) filter.names.push_back(metrics::metric_name_symbol());
  return filter;
}

// An instant-vector function's result, built in place: `fn` of each
// value, with the metric name dropped.
template <typename Fn>
InstantVector map_values(InstantVector vector, Fn fn) {
  for (auto& sample : vector) {
    sample.value = fn(sample.value);
    sample.labels = std::move(sample.labels).without_name();
  }
  return vector;
}

InstantVector vector_scalar_op(const std::string& op, bool bool_modifier,
                               InstantVector vector, double scalar,
                               bool scalar_on_left) {
  auto apply = [&](double value) {
    return scalar_on_left ? scalar_binop(op, scalar, value)
                          : scalar_binop(op, value, scalar);
  };
  if (is_comparison(op) && !bool_modifier) {
    // Filter semantics: keep the samples the comparison holds for.
    std::erase_if(vector, [&](const VectorSample& sample) {
      return apply(sample.value) == 0;
    });
    return vector;
  }
  return map_values(std::move(vector), apply);
}

// Signature fingerprints of `vector`, sorted, for binary search.
std::vector<uint64_t> sorted_signatures(const InstantVector& vector,
                                        const LabelFilter& signature) {
  std::vector<uint64_t> sigs;
  sigs.reserve(vector.size());
  for (const auto& sample : vector) {
    sigs.push_back(signature.fingerprint(sample.labels));
  }
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

bool contains(const std::vector<uint64_t>& sorted, uint64_t sig) {
  return std::binary_search(sorted.begin(), sorted.end(), sig);
}

InstantVector vector_vector_op(const Expr& expr, InstantVector lhs,
                               InstantVector rhs) {
  const VectorMatching& matching = expr.matching;
  const LabelFilter signature = match_filter(matching);

  if (is_set_op(expr.op)) {
    if (expr.op == "or") {
      const std::vector<uint64_t> lhs_sigs = sorted_signatures(lhs, signature);
      for (auto& sample : rhs) {
        if (!contains(lhs_sigs, signature.fingerprint(sample.labels)))
          lhs.push_back(std::move(sample));
      }
      return lhs;
    }
    const std::vector<uint64_t> rhs_sigs = sorted_signatures(rhs, signature);
    const bool keep_matched = expr.op == "and";
    std::erase_if(lhs, [&](const VectorSample& sample) {
      return contains(rhs_sigs, signature.fingerprint(sample.labels)) !=
             keep_matched;
    });
    return lhs;
  }

  // Arithmetic/comparison. group_right swaps roles so we only implement
  // many-to-one with "many" on the left.
  bool swapped = matching.group == VectorMatching::Group::kRight;
  InstantVector& many = swapped ? rhs : lhs;
  const InstantVector& one = swapped ? lhs : rhs;
  bool grouped = matching.group != VectorMatching::Group::kNone;
  const std::vector<uint32_t> include = find_symbols(matching.include);

  // The "one" side by signature, sorted; a repeated signature is a
  // many-to-many match.
  std::vector<std::pair<uint64_t, const VectorSample*>> one_by_sig;
  one_by_sig.reserve(one.size());
  for (const auto& sample : one) {
    one_by_sig.emplace_back(signature.fingerprint(sample.labels), &sample);
  }
  std::sort(one_by_sig.begin(), one_by_sig.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (std::adjacent_find(one_by_sig.begin(), one_by_sig.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }) != one_by_sig.end()) {
    throw EvalError("many-to-many matching in binary expression: " +
                    expr.to_string());
  }

  InstantVector out;
  out.reserve(many.size());
  std::vector<uint64_t> result_sigs;
  std::vector<InternedLabels::SymbolPair> included;
  for (auto& sample : many) {
    uint64_t sig = signature.fingerprint(sample.labels);
    auto it = std::lower_bound(
        one_by_sig.begin(), one_by_sig.end(), sig,
        [](const auto& entry, uint64_t key) { return entry.first < key; });
    if (it == one_by_sig.end() || it->first != sig) continue;
    const VectorSample& match = *it->second;
    double lhs_value = swapped ? match.value : sample.value;
    double rhs_value = swapped ? sample.value : match.value;
    double value = scalar_binop(expr.op, lhs_value, rhs_value);

    InternedLabels result_labels;
    if (is_comparison(expr.op) && !expr.bool_modifier) {
      if (value == 0) continue;
      result_labels = std::move(sample.labels);  // filter keeps labels
      value = sample.value;
    } else if (grouped) {
      included.clear();
      for (uint32_t name : include) {
        if (auto v = match.labels.value_symbol(name))
          included.emplace_back(name, *v);
      }
      result_labels = std::move(sample.labels).without_name();
      if (!included.empty()) {
        result_labels = std::move(result_labels).with_symbols(included);
      }
    } else {
      result_labels = signature.apply(sample.labels);
    }
    if (!grouped) result_sigs.push_back(sig);
    out.push_back({std::move(result_labels), value});
  }
  // One-to-one: each signature may only be produced once.
  std::sort(result_sigs.begin(), result_sigs.end());
  if (std::adjacent_find(result_sigs.begin(), result_sigs.end()) !=
      result_sigs.end()) {
    throw EvalError("multiple matches for one-to-one vector match: " +
                    expr.to_string());
  }
  return out;
}

// ---------- aggregations ----------

InstantVector eval_aggregate(const Expr& expr, InstantVector input,
                             double param) {
  // by keeps the listed labels, without drops them and the metric name;
  // no grouping keeps nothing, so everything lands in one empty group.
  LabelFilter grouping;
  grouping.keep = !expr.agg_grouped || expr.agg_by;
  if (expr.agg_grouped) grouping.names = find_symbols(expr.grouping);
  if (!grouping.keep) grouping.names.push_back(metrics::metric_name_symbol());
  // Groups in ascending key order, each group's samples in input order.
  std::vector<std::pair<uint64_t, std::size_t>> keyed;
  keyed.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    keyed.emplace_back(grouping.fingerprint(input[i].labels), i);
  }
  std::sort(keyed.begin(), keyed.end());

  InstantVector out;
  const std::string& op = expr.agg_op;
  std::vector<double> values;
  for (std::size_t begin = 0, end = 0; begin < keyed.size(); begin = end) {
    end = begin;
    values.clear();
    while (end < keyed.size() && keyed[end].first == keyed[begin].first) {
      values.push_back(input[keyed[end].second].value);
      ++end;
    }
    if (op == "topk" || op == "bottomk") {
      int k = std::max(0, static_cast<int>(param));
      std::vector<std::size_t> order(values.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return op == "topk" ? values[a] > values[b] : values[a] < values[b];
      });
      for (int i = 0; i < k && i < static_cast<int>(order.size()); ++i) {
        out.push_back(std::move(
            input[keyed[begin + order[static_cast<std::size_t>(i)]].second]));
      }
      continue;
    }
    double result = 0;
    if (op == "sum") {
      for (double v : values) result += v;
    } else if (op == "avg") {
      for (double v : values) result += v;
      result /= static_cast<double>(values.size());
    } else if (op == "min") {
      result = *std::min_element(values.begin(), values.end());
    } else if (op == "max") {
      result = *std::max_element(values.begin(), values.end());
    } else if (op == "count") {
      result = static_cast<double>(values.size());
    } else if (op == "group") {
      result = 1;
    } else if (op == "stddev") {
      double mean = 0;
      for (double v : values) mean += v;
      mean /= static_cast<double>(values.size());
      double var = 0;
      for (double v : values) var += (v - mean) * (v - mean);
      result = std::sqrt(var / static_cast<double>(values.size()));
    } else if (op == "quantile") {
      std::sort(values.begin(), values.end());
      double q = std::clamp(param, 0.0, 1.0);
      double rank = q * static_cast<double>(values.size() - 1);
      std::size_t lo = static_cast<std::size_t>(std::floor(rank));
      std::size_t hi = std::min(values.size() - 1, lo + 1);
      result = values[lo] + (rank - std::floor(rank)) * (values[hi] - values[lo]);
    } else {
      throw EvalError("unknown aggregator " + op);
    }
    // The group's labels, from its first sample.
    out.push_back(
        {grouping.apply(input[keyed[begin].second].labels), result});
  }
  return out;
}

// ---------- evaluator core ----------

// Per-instant recursive evaluator. The selector entry points are virtual:
// RangeEvaluator overrides them to read from pre-selected, pre-decoded
// per-series arrays instead of hitting the Queryable per step, leaving
// every other semantic (binops, aggregations, functions) shared — which is
// what makes the two paths bit-identical by construction.
class Evaluator {
 public:
  // resolution_aware enables the aggregate-ladder fast path for covered
  // range-function calls (instant queries). The per-step range oracle
  // constructs its evaluators with it off, so oracle results always come
  // from raw samples.
  Evaluator(const Queryable& source, TimestampMs t,
            bool resolution_aware = false)
      : source_(source), t_(t), resolution_aware_(resolution_aware) {}
  virtual ~Evaluator() = default;

  // Moves the evaluation instant; streaming cursors require calls with
  // non-decreasing t on any one evaluator instance.
  void set_time(TimestampMs t) { t_ = t; }

  Value eval(const ExprPtr& expr) {
    switch (expr->kind) {
      case Expr::Kind::kNumber: {
        Value value;
        value.kind = Value::Kind::kScalar;
        value.scalar = expr->number;
        return value;
      }
      case Expr::Kind::kString: {
        Value value;
        value.kind = Value::Kind::kString;
        value.string_value = expr->string_value;
        return value;
      }
      case Expr::Kind::kVectorSelector: {
        Value value;
        value.kind = Value::Kind::kVector;
        value.vector = vector_selector(*expr);
        return value;
      }
      case Expr::Kind::kMatrixSelector: {
        Value value;
        value.kind = Value::Kind::kMatrix;
        value.matrix = matrix_selector(*expr);
        return value;
      }
      case Expr::Kind::kUnary: {
        Value inner = eval(expr->lhs);
        double sign = expr->op == "-" ? -1.0 : 1.0;
        if (inner.kind == Value::Kind::kScalar) {
          inner.scalar *= sign;
        } else if (inner.kind == Value::Kind::kVector) {
          for (auto& sample : inner.vector) {
            sample.value *= sign;
            sample.labels = std::move(sample.labels).without_name();
          }
        } else {
          throw EvalError("unary operator on non-numeric operand");
        }
        return inner;
      }
      case Expr::Kind::kBinary:
        return eval_binary(expr);
      case Expr::Kind::kAggregate:
        return eval_aggregate_expr(expr);
      case Expr::Kind::kCall:
        return eval_call(expr);
    }
    throw EvalError("unreachable expression kind");
  }

 protected:
  // Selector hooks, overridden by the streaming RangeEvaluator.
  virtual InstantVector vector_selector(const Expr& expr) {
    return eval_vector_selector(source_, expr, t_);
  }
  virtual std::vector<MatrixSeries> matrix_selector(const Expr& expr) {
    return eval_matrix_selector(source_, expr, t_);
  }
  // Incremental fast path for a range function applied directly to a
  // matrix selector. Returns false to fall through to the generic
  // materialise-and-fold path. The base implementation serves covered,
  // bucket-aligned windows from the source's aggregate ladder (the
  // instant-query analogue of the streaming planner); RangeEvaluator
  // overrides it with prepared raw arrays and per-query aggregate plans.
  virtual bool range_call(const std::string& func, const Expr& call,
                          InstantVector& out) {
    if (!resolution_aware_ || !is_agg_plannable_function(func)) return false;
    const Expr& matrix = *call.args[0];
    if (matrix.range_ms <= 0) return false;
    std::vector<int64_t> resolutions = source_.agg_resolutions();
    TimestampMs at = t_ - matrix.offset_ms;
    for (auto it = resolutions.rbegin(); it != resolutions.rend(); ++it) {
      const int64_t res = *it;
      if (res <= 0 || matrix.range_ms % res != 0 || floor_mod(at, res) != 0) {
        continue;
      }
      // Window (at-range, at] tiles buckets ending in [at-range+res, at].
      auto views = source_.select_agg(res, full_matchers(matrix),
                                      at - matrix.range_ms + res, at);
      if (!views) continue;  // incomplete coverage: try a finer level
      out.reserve(views->size());
      for (auto& view : *views) {
        double result = 0;
        if (eval_agg_window(func, view.buckets.data(), view.buckets.size(),
                            result)) {
          out.push_back({std::move(view.labels).without_name(), result});
        }
      }
      return true;
    }
    return false;
  }

  TimestampMs time() const { return t_; }

 private:
  Value eval_binary(const ExprPtr& expr) {
    Value lhs = eval(expr->lhs);
    Value rhs = eval(expr->rhs);
    Value out;
    if (lhs.kind == Value::Kind::kScalar && rhs.kind == Value::Kind::kScalar) {
      out.kind = Value::Kind::kScalar;
      out.scalar = scalar_binop(expr->op, lhs.scalar, rhs.scalar);
      return out;
    }
    out.kind = Value::Kind::kVector;
    if (lhs.kind == Value::Kind::kVector && rhs.kind == Value::Kind::kScalar) {
      out.vector = vector_scalar_op(expr->op, expr->bool_modifier,
                                    std::move(lhs.vector), rhs.scalar,
                                    /*scalar_on_left=*/false);
    } else if (lhs.kind == Value::Kind::kScalar &&
               rhs.kind == Value::Kind::kVector) {
      out.vector = vector_scalar_op(expr->op, expr->bool_modifier,
                                    std::move(rhs.vector), lhs.scalar,
                                    /*scalar_on_left=*/true);
    } else if (lhs.kind == Value::Kind::kVector &&
               rhs.kind == Value::Kind::kVector) {
      out.vector =
          vector_vector_op(*expr, std::move(lhs.vector), std::move(rhs.vector));
    } else {
      throw EvalError("unsupported operand types for " + expr->op);
    }
    return out;
  }

  Value eval_aggregate_expr(const ExprPtr& expr) {
    Value input = eval(expr->agg_expr);
    if (input.kind != Value::Kind::kVector)
      throw EvalError("aggregation over non-vector");
    double param = 0;
    if (expr->agg_param) {
      Value p = eval(expr->agg_param);
      if (p.kind != Value::Kind::kScalar)
        throw EvalError("aggregation parameter must be scalar");
      param = p.scalar;
    }
    Value out;
    out.kind = Value::Kind::kVector;
    out.vector = eval_aggregate(*expr, std::move(input.vector), param);
    return out;
  }

  Value eval_call(const ExprPtr& expr) {
    const std::string& func = expr->func;
    Value out;

    if (is_range_function(func)) {
      if (expr->args.size() != 1)
        throw EvalError(func + " expects one range-vector argument");
      if (expr->args[0]->kind == Expr::Kind::kMatrixSelector) {
        InstantVector streamed;
        if (range_call(func, *expr, streamed)) {
          out.kind = Value::Kind::kVector;
          out.vector = std::move(streamed);
          return out;
        }
      }
      Value arg = eval(expr->args[0]);
      if (arg.kind != Value::Kind::kMatrix)
        throw EvalError(func + " expects a range vector (selector[duration])");
      out.kind = Value::Kind::kVector;
      for (auto& series : arg.matrix) {
        double result = 0;
        if (eval_range_function(func, series.samples.data(),
                                series.samples.size(), result)) {
          out.vector.push_back(
              {std::move(series.labels).without_name(), result});
        }
      }
      return out;
    }

    if (func == "time") {
      out.kind = Value::Kind::kScalar;
      out.scalar = static_cast<double>(t_) / 1000.0;
      return out;
    }
    if (func == "predict_linear") {
      // predict_linear(range_vector, t_seconds): least-squares projection
      // t_seconds past the evaluation time.
      if (expr->args.size() != 2)
        throw EvalError("predict_linear expects (range vector, scalar)");
      Value matrix = eval(expr->args[0]);
      if (matrix.kind != Value::Kind::kMatrix)
        throw EvalError("predict_linear expects a range vector");
      double ahead_sec = eval_arg_scalar(expr, 1).scalar;
      out.kind = Value::Kind::kVector;
      for (auto& series : matrix.matrix) {
        if (series.samples.size() < 2) continue;
        double n = static_cast<double>(series.samples.size());
        double sum_t = 0, sum_v = 0, sum_tv = 0, sum_tt = 0;
        // Origin at the evaluation time so the intercept is "value now".
        for (const auto& sample : series.samples) {
          double t = static_cast<double>(sample.t - t_) / 1000.0;
          sum_t += t;
          sum_v += sample.v;
          sum_tv += t * sample.v;
          sum_tt += t * t;
        }
        double denom = n * sum_tt - sum_t * sum_t;
        if (denom == 0) continue;
        double slope = (n * sum_tv - sum_t * sum_v) / denom;
        double intercept = (sum_v - slope * sum_t) / n;
        out.vector.push_back({std::move(series.labels).without_name(),
                              intercept + slope * ahead_sec});
      }
      return out;
    }
    if (func == "sort" || func == "sort_desc") {
      Value arg = eval_arg_vector(expr, 0);
      out.kind = Value::Kind::kVector;
      out.vector = std::move(arg.vector);
      bool descending = func == "sort_desc";
      std::stable_sort(out.vector.begin(), out.vector.end(),
                       [descending](const VectorSample& a,
                                    const VectorSample& b) {
                         return descending ? a.value > b.value
                                           : a.value < b.value;
                       });
      return out;
    }
    if (func == "hour" || func == "day_of_week" || func == "day_of_month" ||
        func == "month") {
      // Calendar functions over UTC timestamps. With no argument they use
      // the evaluation time (as vector(time())).
      Value arg;
      if (expr->args.empty()) {
        arg.kind = Value::Kind::kVector;
        arg.vector.push_back(
            {InternedLabels{}, static_cast<double>(t_) / 1000.0});
      } else {
        arg = eval_arg_vector(expr, 0);
      }
      arg.vector =
          map_values(std::move(arg.vector), [&func](double v) -> double {
            std::time_t seconds = static_cast<std::time_t>(v);
            std::tm utc{};
            gmtime_r(&seconds, &utc);
            if (func == "hour") return utc.tm_hour;
            if (func == "day_of_week") return utc.tm_wday;
            if (func == "day_of_month") return utc.tm_mday;
            return utc.tm_mon + 1;
          });
      return arg;
    }
    if (func == "vector") {
      Value arg = eval_arg_scalar(expr, 0);
      out.kind = Value::Kind::kVector;
      out.vector.push_back({InternedLabels{}, arg.scalar});
      return out;
    }
    if (func == "scalar") {
      Value arg = eval_arg_vector(expr, 0);
      out.kind = Value::Kind::kScalar;
      out.scalar = arg.vector.size() == 1 ? arg.vector[0].value
                                          : std::nan("");
      return out;
    }
    if (func == "absent") {
      Value arg = eval_arg_vector(expr, 0);
      out.kind = Value::Kind::kVector;
      if (arg.vector.empty()) out.vector.push_back({InternedLabels{}, 1});
      return out;
    }
    if (func == "label_replace") {
      if (expr->args.size() != 5)
        throw EvalError("label_replace expects 5 arguments");
      Value arg = eval_arg_vector(expr, 0);
      std::string dst = eval_string(expr, 1);
      std::string replacement = eval_string(expr, 2);
      std::string src = eval_string(expr, 3);
      std::string pattern = eval_string(expr, 4);
      // Cached compile: label_replace re-evaluates at every range step.
      auto re = metrics::compiled_anchored_regex(pattern);
      SymbolTable& table = SymbolTable::global();
      const std::optional<uint32_t> src_sym = QuerySymbols::find(src);
      // The written pair. Its strings are interned through QuerySymbols:
      // a query keeps the new ones to itself, a rule interns them.
      std::vector<InternedLabels::SymbolPair> written;
      out.kind = Value::Kind::kVector;
      out.vector = std::move(arg.vector);
      for (auto& sample : out.vector) {
        std::optional<uint32_t> value_sym =
            src_sym ? sample.labels.value_symbol(*src_sym) : std::nullopt;
        std::string_view source_value =
            value_sym ? table.text(*value_sym) : std::string_view{};
        std::cmatch match;
        if (std::regex_match(source_value.data(),
                             source_value.data() + source_value.size(), match,
                             *re)) {
          if (written.empty()) {
            written.emplace_back(QuerySymbols::intern(dst), 0);
          }
          written[0].second =
              QuerySymbols::intern(match.format(replacement));
          sample.labels = std::move(sample.labels).with_symbols(written);
        }
      }
      return out;
    }
    if (func == "label_join") {
      if (expr->args.size() < 4)
        throw EvalError("label_join expects >= 4 arguments");
      Value arg = eval_arg_vector(expr, 0);
      std::string dst = eval_string(expr, 1);
      std::string sep = eval_string(expr, 2);
      SymbolTable& table = SymbolTable::global();
      // Source names as symbols; an unknown name joins as "".
      std::vector<std::optional<uint32_t>> src_syms;
      for (std::size_t i = 3; i < expr->args.size(); ++i) {
        src_syms.push_back(QuerySymbols::find(eval_string(expr, i)));
      }
      std::vector<InternedLabels::SymbolPair> written = {
          {QuerySymbols::intern(dst), 0}};
      out.kind = Value::Kind::kVector;
      out.vector = std::move(arg.vector);
      for (auto& sample : out.vector) {
        std::string joined;
        for (std::size_t i = 0; i < src_syms.size(); ++i) {
          if (i > 0) joined += sep;
          std::optional<uint32_t> value_sym =
              src_syms[i] ? sample.labels.value_symbol(*src_syms[i])
                          : std::nullopt;
          if (value_sym) joined += table.text(*value_sym);
        }
        written[0].second = QuerySymbols::intern(joined);
        sample.labels = std::move(sample.labels).with_symbols(written);
      }
      return out;
    }

    // Simple math on instant vectors.
    auto unary_math = [&](double (*fn)(double)) {
      Value arg = eval_arg_vector(expr, 0);
      arg.vector = map_values(std::move(arg.vector), fn);
      return arg;
    };
    if (func == "round") {
      // round(v) or round(v, to_nearest).
      Value arg = eval_arg_vector(expr, 0);
      double nearest =
          expr->args.size() > 1 ? eval_arg_scalar(expr, 1).scalar : 1.0;
      if (nearest == 0) throw EvalError("round: to_nearest must be nonzero");
      arg.vector = map_values(std::move(arg.vector), [nearest](double v) {
        return std::round(v / nearest) * nearest;
      });
      return arg;
    }
    if (func == "abs") return unary_math(+[](double v) { return std::fabs(v); });
    if (func == "ceil") return unary_math(+[](double v) { return std::ceil(v); });
    if (func == "floor") return unary_math(+[](double v) { return std::floor(v); });
    if (func == "sqrt") return unary_math(+[](double v) { return std::sqrt(v); });
    if (func == "exp") return unary_math(+[](double v) { return std::exp(v); });
    if (func == "ln") return unary_math(+[](double v) { return std::log(v); });

    if (func == "clamp_min" || func == "clamp_max" || func == "clamp") {
      Value arg = eval_arg_vector(expr, 0);
      double lo = func == "clamp_max" ? -INFINITY
                                      : eval_arg_scalar(expr, 1).scalar;
      double hi = func == "clamp_min"
                      ? INFINITY
                      : eval_arg_scalar(expr, func == "clamp" ? 2 : 1).scalar;
      arg.vector = map_values(std::move(arg.vector), [lo, hi](double v) {
        return std::clamp(v, lo, hi);
      });
      return arg;
    }
    throw EvalError("unknown function " + func);
  }

  Value eval_arg_scalar(const ExprPtr& expr, std::size_t index) {
    if (index >= expr->args.size())
      throw EvalError(expr->func + ": missing argument");
    Value value = eval(expr->args[index]);
    if (value.kind != Value::Kind::kScalar)
      throw EvalError(expr->func + ": argument must be scalar");
    return value;
  }

  Value eval_arg_vector(const ExprPtr& expr, std::size_t index) {
    if (index >= expr->args.size())
      throw EvalError(expr->func + ": missing argument");
    Value value = eval(expr->args[index]);
    if (value.kind != Value::Kind::kVector)
      throw EvalError(expr->func + ": argument must be an instant vector");
    return value;
  }

  std::string eval_string(const ExprPtr& expr, std::size_t index) {
    if (index >= expr->args.size())
      throw EvalError(expr->func + ": missing argument");
    Value value = eval(expr->args[index]);
    if (value.kind != Value::Kind::kString)
      throw EvalError(expr->func + ": argument must be a string");
    return value.string_value;
  }

  const Queryable& source_;
  TimestampMs t_;
  bool resolution_aware_;
};

// ---------- streaming range evaluation ----------
//
// A range query evaluates the same expression at every step; the per-step
// path re-runs each selector's select() and re-decodes the same sealed
// chunks at every one of them — O(steps × window) decode work. The
// streaming path instead prepares each selector ONCE for the whole query:
// one full-span select(), every distinct chunk decoded at most once (via a
// per-query DecodedChunkCache shared across selectors), flattened into one
// time-ordered array per series. Evaluation then slides monotonic cursors
// over those arrays and computes window functions incrementally. Every
// arithmetic fold either extends a left-fold (bit-identical to folding
// from scratch) or refolds from the window start, so results match the
// per-step oracle bit for bit.

void collect_selectors(const ExprPtr& expr, std::vector<const Expr*>& out) {
  if (!expr) return;
  if (expr->kind == Expr::Kind::kVectorSelector ||
      expr->kind == Expr::Kind::kMatrixSelector) {
    out.push_back(expr.get());
  }
  collect_selectors(expr->lhs, out);
  collect_selectors(expr->rhs, out);
  collect_selectors(expr->agg_expr, out);
  collect_selectors(expr->agg_param, out);
  for (const auto& arg : expr->args) collect_selectors(arg, out);
}

// Calls of a plannable window function applied directly to a matrix
// selector — the only shape the aggregate ladder can serve. A matrix
// selector consumed any other way (bare, predict_linear, an uncovered
// function) always reads raw samples.
void collect_plannable_calls(const ExprPtr& expr,
                             std::vector<const Expr*>& out) {
  if (!expr) return;
  if (expr->kind == Expr::Kind::kCall && expr->args.size() == 1 &&
      expr->args[0]->kind == Expr::Kind::kMatrixSelector &&
      is_agg_plannable_function(expr->func)) {
    out.push_back(expr.get());
  }
  collect_plannable_calls(expr->lhs, out);
  collect_plannable_calls(expr->rhs, out);
  collect_plannable_calls(expr->agg_expr, out);
  collect_plannable_calls(expr->agg_param, out);
  for (const auto& arg : expr->args) collect_plannable_calls(arg, out);
}

struct PreparedSeries {
  InternedLabels labels;
  // Full-span, time-ordered. Matrix selectors store the series with
  // staleness markers already filtered out (mirroring
  // eval_matrix_selector); vector selectors keep markers, because a marker
  // as the newest in-window sample is what drops the series at a step.
  std::vector<SamplePoint> samples;
};

struct PreparedSelector {
  const Expr* node = nullptr;
  // In select() order, i.e. sorted by labels — the order the per-step
  // selector emits series in.
  std::vector<PreparedSeries> series;
};

// A matrix selector the planner bound to an aggregate level for the whole
// query: every step's window folds bucket rows from these views instead
// of raw samples.
struct PreparedAggPlan {
  int64_t resolution_ms = 0;
  std::vector<AggSeriesView> series;  // sorted by labels, like select()
};

class RangeEvalContext {
 public:
  RangeEvalContext(const Queryable& source, const ExprPtr& root,
                   TimestampMs start, TimestampMs end, int64_t step_ms,
                   common::ThreadPool* pool, bool resolution_aware) {
    std::vector<const Expr*> nodes;
    collect_selectors(root, nodes);

    // Phase 0: resolution planning. For each covered call whose window
    // grid aligns to a level's bucket boundaries — (start-offset) on a
    // boundary, step and range whole multiples of the bucket width, so
    // every step's window tiles whole buckets — bind the coarsest level
    // that covers the query's full bucket span exactly. Anything
    // unaligned or uncovered keeps the raw path, bit-identical to the
    // planner-off evaluation.
    if (resolution_aware && step_ms > 0 && end >= start) {
      std::vector<const Expr*> calls;
      collect_plannable_calls(root, calls);
      std::vector<int64_t> resolutions =
          calls.empty() ? std::vector<int64_t>{} : source.agg_resolutions();
      TimestampMs last_step = start + ((end - start) / step_ms) * step_ms;
      for (const Expr* call : calls) {
        const Expr* matrix = call->args[0].get();
        if (matrix->range_ms <= 0 || agg_plans_.count(matrix)) continue;
        TimestampMs first_at = start - matrix->offset_ms;
        for (auto it = resolutions.rbegin(); it != resolutions.rend(); ++it) {
          const int64_t res = *it;
          if (res <= 0 || matrix->range_ms % res != 0 ||
              step_ms % res != 0 || floor_mod(first_at, res) != 0) {
            continue;
          }
          auto agg_views = source.select_agg(
              res, full_matchers(*matrix), first_at - matrix->range_ms + res,
              last_step - matrix->offset_ms);
          if (!agg_views) continue;  // incomplete coverage: try finer
          agg_plans_.emplace(matrix,
                             PreparedAggPlan{res, std::move(*agg_views)});
          break;
        }
      }
    }

    // Phase 1: one full-span select per selector node (skipped for nodes
    // the planner bound to a level — that is the points-scanned win). The
    // span is the union of every step's window, so each step's view of
    // the data is a sub-range of what we hold.
    std::vector<std::vector<SeriesView>> views(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Expr* node = nodes[i];
      if (agg_plans_.count(node)) continue;
      TimestampMs hi = end - node->offset_ms;
      TimestampMs lo = node->kind == Expr::Kind::kMatrixSelector
                           ? start - node->offset_ms - node->range_ms + 1
                           : start - node->offset_ms - kLookbackMs;
      views[i] = source.select(full_matchers(*node), lo, hi);
    }

    // Phase 2: decode each distinct chunk exactly once. With a pool the
    // decodes fan out across it (chunk order is fixed first, so the result
    // is deterministic either way).
    std::vector<ChunkPtr> unique;
    std::unordered_set<const GorillaChunk*> seen;
    for (const auto& selector_views : views) {
      for (const auto& view : selector_views) {
        for (const auto& slice : view.slices) {
          if (slice.chunk && seen.insert(slice.chunk.get()).second) {
            unique.push_back(slice.chunk);
          }
        }
      }
    }
    if (pool && pool->size() >= 2 && unique.size() > 1) {
      std::vector<std::vector<SamplePoint>> decoded(unique.size());
      std::vector<std::function<void()>> tasks;
      tasks.reserve(unique.size());
      for (std::size_t i = 0; i < unique.size(); ++i) {
        tasks.push_back([&unique, &decoded, i] {
          if (auto samples = unique[i]->decode())
            decoded[i] = std::move(*samples);
        });
      }
      pool->run_all(std::move(tasks));
      for (std::size_t i = 0; i < unique.size(); ++i) {
        cache_.adopt(unique[i], std::move(decoded[i]));
      }
    }

    // Phase 3: flatten each series into one contiguous array (serial;
    // chunks not pre-decoded above decode here, still once each).
    selectors_.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      PreparedSelector selector;
      selector.node = nodes[i];
      bool is_matrix = nodes[i]->kind == Expr::Kind::kMatrixSelector;
      selector.series.reserve(views[i].size());
      for (auto& view : views[i]) {
        PreparedSeries prepared{std::move(view.labels), view.samples(cache_)};
        if (is_matrix) {
          prepared.samples.erase(
              std::remove_if(prepared.samples.begin(), prepared.samples.end(),
                             [](const SamplePoint& sample) {
                               return metrics::is_stale_marker(sample.v);
                             }),
              prepared.samples.end());
        }
        selector.series.push_back(std::move(prepared));
      }
      index_.emplace(nodes[i], selectors_.size());
      selectors_.push_back(std::move(selector));
    }
    cache_.clear();  // arrays hold the data now; drop the duplicate copy
  }

  const PreparedSelector& selector(const Expr* node) const {
    return selectors_[index_.at(node)];
  }

  // The aggregate plan bound to a matrix-selector node, or nullptr when
  // the node evaluates from raw samples.
  const PreparedAggPlan* agg_plan(const Expr* node) const {
    auto it = agg_plans_.find(node);
    return it == agg_plans_.end() ? nullptr : &it->second;
  }

 private:
  std::vector<PreparedSelector> selectors_;
  std::unordered_map<const Expr*, std::size_t> index_;
  std::unordered_map<const Expr*, PreparedAggPlan> agg_plans_;
  DecodedChunkCache cache_;
};

// Evaluates steps against a shared RangeEvalContext. Each instance keeps
// its own cursor state, so parallel step-chunks each run their own
// evaluator over the same immutable prepared arrays. Cursors only ever
// advance; every window is a pure function of (lo, hi) indices, so a
// cursor joining mid-range computes the same windows the serial sweep
// does.
class RangeEvaluator final : public Evaluator {
 public:
  RangeEvaluator(const Queryable& source, const RangeEvalContext& ctx,
                 TimestampMs t)
      : Evaluator(source, t), ctx_(ctx) {}

 protected:
  InstantVector vector_selector(const Expr& expr) override {
    const PreparedSelector& selector = ctx_.selector(&expr);
    auto& cursor = instant_cursors_[&expr];
    cursor.resize(selector.series.size(), 0);
    TimestampMs at = time() - expr.offset_ms;
    InstantVector out;
    out.reserve(selector.series.size());
    for (std::size_t i = 0; i < selector.series.size(); ++i) {
      const auto& samples = selector.series[i].samples;
      std::size_t& idx = cursor[i];  // count of samples with t <= at
      while (idx < samples.size() && samples[idx].t <= at) ++idx;
      if (idx == 0) continue;
      const SamplePoint& newest = samples[idx - 1];
      if (newest.t < at - kLookbackMs) continue;  // outside lookback
      if (metrics::is_stale_marker(newest.v)) continue;  // series ended
      out.push_back({selector.series[i].labels, newest.v});
    }
    return out;
  }

  std::vector<MatrixSeries> matrix_selector(const Expr& expr) override {
    // Generic consumers of a range vector (predict_linear, or a range
    // function we have no incremental form for) get a materialised copy of
    // the current window — sliced from the prepared array, never from a
    // fresh decode.
    const PreparedSelector& selector = ctx_.selector(&expr);
    auto& cursor = window_cursors_[&expr];
    cursor.resize(selector.series.size());
    TimestampMs at = time() - expr.offset_ms;
    std::vector<MatrixSeries> out;
    out.reserve(selector.series.size());
    for (std::size_t i = 0; i < selector.series.size(); ++i) {
      const auto& samples = selector.series[i].samples;
      WindowCursor& window = cursor[i];
      window.advance(samples, at, expr.range_ms);
      if (window.lo == window.hi) continue;
      out.push_back({selector.series[i].labels,
                     {samples.begin() + static_cast<std::ptrdiff_t>(window.lo),
                      samples.begin() + static_cast<std::ptrdiff_t>(window.hi)}});
    }
    return out;
  }

  bool range_call(const std::string& func, const Expr& call,
                  InstantVector& out) override {
    const Expr& matrix = *call.args[0];
    if (const PreparedAggPlan* plan = ctx_.agg_plan(&matrix)) {
      // Planned call: fold bucket rows. The plan is only ever bound when
      // every step window tiles whole buckets, so the bucket cursor is
      // the raw WindowCursor one level up.
      auto& cursors = agg_cursors_[&call];
      cursors.resize(plan->series.size());
      TimestampMs at = time() - matrix.offset_ms;
      out.reserve(plan->series.size());
      for (std::size_t i = 0; i < plan->series.size(); ++i) {
        const auto& buckets = plan->series[i].buckets;
        AggCursor& cursor = cursors[i];
        while (cursor.hi < buckets.size() && buckets[cursor.hi].t <= at) {
          ++cursor.hi;
        }
        while (cursor.lo < cursor.hi &&
               buckets[cursor.lo].t <= at - matrix.range_ms) {
          ++cursor.lo;
        }
        double result = 0;
        if (cursor.lo < cursor.hi &&
            eval_agg_window(func, buckets.data() + cursor.lo,
                            cursor.hi - cursor.lo, result)) {
          out.push_back({plan->series[i].labels.without_name(), result});
        }
      }
      return true;
    }
    const PreparedSelector& selector = ctx_.selector(&matrix);
    auto& states = call_states_[&call];
    states.resize(selector.series.size());
    TimestampMs at = time() - matrix.offset_ms;
    out.reserve(selector.series.size());
    for (std::size_t i = 0; i < selector.series.size(); ++i) {
      const auto& samples = selector.series[i].samples;
      SeriesWindowState& st = states[i];
      st.window.advance(samples, at, matrix.range_ms);
      double result = 0;
      if (eval_windowed(func, samples, st, result)) {
        out.push_back({selector.series[i].labels.without_name(), result});
      }
    }
    return true;
  }

 private:
  // Half-open window [lo, hi) of samples with at-range < t <= at. Both
  // bounds only move forward (steps are evaluated in increasing t).
  struct WindowCursor {
    std::size_t lo = 0, hi = 0;
    void advance(const std::vector<SamplePoint>& samples, TimestampMs at,
                 int64_t range_ms) {
      while (hi < samples.size() && samples[hi].t <= at) ++hi;
      while (lo < hi && samples[lo].t <= at - range_ms) ++lo;
    }
  };

  // Incremental aggregation state for one series under one range-function
  // call. `acc` holds a left-fold over [anchor, folded): extending the
  // fold at the end reproduces the from-scratch fold bit for bit; when the
  // window start moves past the anchor, the fold restarts (float folds are
  // not invertible without changing bit patterns). The deque holds indices
  // of non-NaN window samples, best-at-front, for min/max.
  struct SeriesWindowState {
    WindowCursor window;
    std::size_t anchor = static_cast<std::size_t>(-1);
    std::size_t folded = 0;
    double acc = 0;
    std::vector<std::size_t> deque;  // monotonic; front at deque_begin
    std::size_t deque_begin = 0;
    std::size_t pushed = 0;  // samples [0, pushed) offered to the deque
  };

  bool eval_windowed(const std::string& func,
                     const std::vector<SamplePoint>& samples,
                     SeriesWindowState& st, double& result) {
    const std::size_t lo = st.window.lo, hi = st.window.hi;
    const std::size_t n = hi - lo;
    if (n == 0) return false;
    if (func == "count_over_time") {
      result = static_cast<double>(n);
      return true;
    }
    if (func == "last_over_time") {
      result = samples[hi - 1].v;
      return true;
    }
    if (func == "sum_over_time" || func == "avg_over_time") {
      if (st.anchor != lo) {
        st.anchor = lo;
        st.folded = lo;
        st.acc = 0;
      }
      for (; st.folded < hi; ++st.folded) st.acc += samples[st.folded].v;
      result = func[0] == 's' ? st.acc : st.acc / static_cast<double>(n);
      return true;
    }
    if (func == "min_over_time" || func == "max_over_time") {
      bool is_min = func[1] == 'i';
      // The fold `best = min(best, v)` ignores NaN except when the first
      // window sample is NaN (then NaN sticks); the deque reproduces both
      // rules, including earliest-index tie-breaking via strict pops.
      if (st.pushed < lo) st.pushed = lo;
      for (; st.pushed < hi; ++st.pushed) {
        double v = samples[st.pushed].v;
        if (std::isnan(v)) continue;
        while (st.deque.size() > st.deque_begin) {
          double back = samples[st.deque.back()].v;
          if (is_min ? v < back : back < v) {
            st.deque.pop_back();
          } else {
            break;
          }
        }
        st.deque.push_back(st.pushed);
      }
      while (st.deque_begin < st.deque.size() &&
             st.deque[st.deque_begin] < lo) {
        ++st.deque_begin;
      }
      // Compact occasionally so the vector-backed deque stays O(window).
      if (st.deque_begin > 64 && st.deque_begin * 2 > st.deque.size()) {
        st.deque.erase(st.deque.begin(),
                       st.deque.begin() +
                           static_cast<std::ptrdiff_t>(st.deque_begin));
        st.deque_begin = 0;
      }
      if (std::isnan(samples[lo].v)) {
        result = samples[lo].v;  // fold would have stuck on this NaN
      } else {
        result = samples[st.deque[st.deque_begin]].v;
      }
      return true;
    }
    if (func == "rate" || func == "increase") {
      if (n < 2) return false;
      if (st.anchor != lo) {
        st.anchor = lo;
        st.folded = lo + 1;  // next pair index: pairs are (k-1, k)
        st.acc = 0;
      }
      for (; st.folded < hi; ++st.folded) {
        double delta = samples[st.folded].v - samples[st.folded - 1].v;
        st.acc += delta >= 0 ? delta : samples[st.folded].v;
      }
      if (func == "increase") {
        result = st.acc;
        return true;
      }
      double span_sec =
          static_cast<double>(samples[hi - 1].t - samples[lo].t) / 1000.0;
      if (span_sec <= 0) return false;
      result = st.acc / span_sec;
      return true;
    }
    if (func == "delta") {
      if (n < 2) return false;
      result = samples[hi - 1].v - samples[lo].v;
      return true;
    }
    // irate/idelta are O(1) on the window tail; stddev/deriv/resets/
    // changes refold the window in place — already decoded, no copies.
    return eval_range_function(func, samples.data() + lo, n, result);
  }

  // Per-series cursor over a planned call's bucket-end timestamps; same
  // monotone two-pointer sweep as WindowCursor, but over bucket rows.
  struct AggCursor {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  const RangeEvalContext& ctx_;
  std::unordered_map<const Expr*, std::vector<std::size_t>> instant_cursors_;
  std::unordered_map<const Expr*, std::vector<WindowCursor>> window_cursors_;
  std::unordered_map<const Expr*, std::vector<SeriesWindowState>> call_states_;
  std::unordered_map<const Expr*, std::vector<AggCursor>> agg_cursors_;
};

using StepAccumulator = std::map<uint64_t, MatrixSeries>;

// Folds one step's Value into the fingerprint-keyed accumulator shared by
// the serial and streaming range paths.
void accumulate_step(StepAccumulator& by_labels, Value&& value,
                     TimestampMs t) {
  if (value.kind == Value::Kind::kScalar) {
    MatrixSeries& series = by_labels[InternedLabels{}.fingerprint()];
    series.samples.push_back({t, value.scalar});
    return;
  }
  if (value.kind != Value::Kind::kVector)
    throw EvalError("range query must evaluate to vector or scalar");
  for (auto& sample : value.vector) {
    MatrixSeries& series = by_labels[sample.labels.fingerprint()];
    series.labels = std::move(sample.labels);
    series.samples.push_back({t, sample.value});
  }
}

// Runs eval_steps over [start, end], chunking the step grid across the
// pool when it pays off; chunk results merge in step order, so the output
// is bit-identical to the serial sweep.
StepAccumulator run_steps_chunked(
    common::ThreadPool* pool, int64_t min_parallel_steps, TimestampMs start,
    TimestampMs end, int64_t step_ms,
    const std::function<StepAccumulator(TimestampMs, TimestampMs)>&
        eval_steps) {
  const int64_t num_steps = end < start ? 0 : (end - start) / step_ms + 1;
  if (!pool || pool->size() < 2 || num_steps < min_parallel_steps) {
    return eval_steps(start, end);
  }
  const int64_t num_chunks =
      std::min<int64_t>(num_steps, static_cast<int64_t>(pool->size()) * 4);
  const int64_t steps_per_chunk = (num_steps + num_chunks - 1) / num_chunks;
  std::vector<StepAccumulator> partials(
      static_cast<std::size_t>(num_chunks));
  // The workers read and intern label_replace()/label_join() strings in
  // the caller's query table.
  QuerySymbols* query_symbols = QuerySymbols::active();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    int64_t first_step = c * steps_per_chunk;
    if (first_step >= num_steps) break;
    int64_t last_step =
        std::min(num_steps - 1, first_step + steps_per_chunk - 1);
    TimestampMs chunk_start = start + first_step * step_ms;
    TimestampMs chunk_end = start + last_step * step_ms;
    tasks.push_back(
        [&eval_steps, &partials, query_symbols, c, chunk_start, chunk_end] {
          QuerySymbols::Scope scope(query_symbols);
          partials[static_cast<std::size_t>(c)] =
              eval_steps(chunk_start, chunk_end);
        });
  }
  pool->run_all(std::move(tasks));
  StepAccumulator by_labels;
  for (auto& partial : partials) {
    for (auto& [key, series] : partial) {
      MatrixSeries& dst = by_labels[key];
      if (dst.samples.empty()) {
        dst = std::move(series);
      } else {
        dst.samples.insert(dst.samples.end(), series.samples.begin(),
                           series.samples.end());
      }
    }
  }
  return by_labels;
}

}  // namespace

Value Engine::eval(const Queryable& source, const ExprPtr& expr,
                   TimestampMs t) const {
  return Evaluator(source, t, options_.resolution_aware).eval(expr);
}

Value Engine::eval(const Queryable& source, const std::string& expr,
                   TimestampMs t) const {
  return eval(source, parse(expr), t);
}

std::map<uint64_t, MatrixSeries> Engine::eval_range_steps(
    const Queryable& source, const ExprPtr& expr, TimestampMs start,
    TimestampMs end, int64_t step_ms) const {
  StepAccumulator by_labels;
  // Oracle purity: the per-step path always evaluates raw, independent of
  // resolution_aware, so it stays the differential reference for both the
  // streaming and the planned paths.
  Evaluator evaluator(source, start);
  for (TimestampMs t = start; t <= end; t += step_ms) {
    evaluator.set_time(t);
    accumulate_step(by_labels, evaluator.eval(expr), t);
  }
  return by_labels;
}

std::vector<Series> Engine::eval_range(const Queryable& source,
                                       const ExprPtr& expr, TimestampMs start,
                                       TimestampMs end, int64_t step_ms) const {
  if (step_ms <= 0) throw EvalError("step must be positive");
  common::ThreadPool* pool = options_.pool.get();
  // The result leaves as strings, so strings the query builds live only
  // as long as this call.
  QuerySymbols query_symbols;
  QuerySymbols::Scope scope(&query_symbols);

  StepAccumulator by_labels;
  if (options_.streaming_range) {
    // Streaming path: prepare every selector once (one select, one decode
    // per chunk), then sweep step cursors — serial or chunked across the
    // pool; either way each chunk's evaluator slides over the same shared
    // immutable arrays.
    RangeEvalContext ctx(source, expr, start, end, step_ms, pool,
                         options_.resolution_aware);
    auto eval_steps = [&](TimestampMs from, TimestampMs to) {
      StepAccumulator partial;
      RangeEvaluator evaluator(source, ctx, from);
      for (TimestampMs t = from; t <= to; t += step_ms) {
        evaluator.set_time(t);
        accumulate_step(partial, evaluator.eval(expr), t);
      }
      return partial;
    };
    by_labels = run_steps_chunked(pool, options_.min_parallel_steps, start,
                                  end, step_ms, eval_steps);
  } else {
    // Per-step oracle path: full selector evaluation at every step.
    auto eval_steps = [&](TimestampMs from, TimestampMs to) {
      return eval_range_steps(source, expr, from, to, step_ms);
    };
    by_labels = run_steps_chunked(pool, options_.min_parallel_steps, start,
                                  end, step_ms, eval_steps);
  }

  // Label order, sorted on symbols; string labels are built here, once per
  // result series.
  std::vector<MatrixSeries*> sorted;
  sorted.reserve(by_labels.size());
  for (auto& [key, series] : by_labels) sorted.push_back(&series);
  std::sort(sorted.begin(), sorted.end(),
            [](const MatrixSeries* a, const MatrixSeries* b) {
              return a->labels < b->labels;
            });
  std::vector<Series> out;
  out.reserve(sorted.size());
  for (MatrixSeries* series : sorted) {
    out.push_back({series->labels.to_labels(), std::move(series->samples)});
  }
  return out;
}

std::vector<Series> Engine::eval_range(const Queryable& source,
                                       const std::string& expr,
                                       TimestampMs start, TimestampMs end,
                                       int64_t step_ms) const {
  return eval_range(source, parse(expr), start, end, step_ms);
}

}  // namespace ceems::tsdb::promql
