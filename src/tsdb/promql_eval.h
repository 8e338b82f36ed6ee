// PromQL evaluator over any Queryable. Instant queries produce a scalar or
// an instant vector; range queries evaluate the instant expression at each
// step (exactly Prometheus' model).
//
// Labels stay interned from select() to the result: instant vectors and
// range vectors carry InternedLabels, by/without and on/ignoring resolve
// their names to symbols once per evaluation, and grouping and vector
// matching key on fingerprints computed from symbols, building a label
// set only for each group or match they emit. The only strings built are
// eval_range()'s Series labels, once per result series, and the values
// label_replace()/label_join() write. Those are interned through
// metrics::QuerySymbols: eval_range() keeps new ones in a table of its
// own, as does any caller of eval() that activates one (the HTTP API);
// without one (rules, whose output is stored) they go to the global
// table. See DESIGN.md "Interned vectors".
//
// Known deviations from upstream Prometheus, chosen deliberately:
//   * rate()/increase() compute the slope over the observed sample span
//     without boundary extrapolation — sums of increase() then equal the
//     raw counter deltas, which the energy-accounting tests rely on;
//   * regex matchers use std::regex ECMAScript syntax (anchored like
//     PromQL);
//   * staleness markers (metrics::stale_marker(), written by the scrape
//     manager on failed scrapes and disappearing series) end a series
//     immediately: an instant selector whose newest in-window sample is a
//     marker drops the series, and range windows filter markers out
//     before rate()/*_over_time() fold them. Without a marker, the
//     lookback window (kLookbackMs, 5 min) alone decides sample
//     visibility.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/threadpool.h"
#include "tsdb/promql_ast.h"
#include "tsdb/storage.h"

namespace ceems::tsdb::promql {

struct EvalError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// One element of an instant vector. Labels stay interned through the
// whole evaluation; callers that need strings (JSON, alerts) build them.
struct VectorSample {
  InternedLabels labels;
  double value = 0;
};
using InstantVector = std::vector<VectorSample>;

// One series of a range vector, or of a range query's accumulator.
// eval_range() turns these into string-labelled Series on return.
struct MatrixSeries {
  InternedLabels labels;
  std::vector<SamplePoint> samples;  // time-ordered
};

struct Value {
  enum class Kind { kScalar, kVector, kString, kMatrix };
  Kind kind = Kind::kScalar;
  double scalar = 0;
  InstantVector vector;
  std::string string_value;
  std::vector<MatrixSeries> matrix;  // only produced by matrix selectors
};

// How far back an instant selector looks for a series' newest sample.
constexpr int64_t kLookbackMs = 5 * common::kMillisPerMinute;

// increase() over `count` time-ordered samples: the sum of positive
// deltas, where a drop is a counter reset that adds the new value. No
// extrapolation, so increases over runs that share their end samples sum
// to the increase over the whole run.
double counter_increase(const SamplePoint* samples, std::size_t count);

struct EngineOptions {
  // Worker pool for range queries: evaluation steps are chunked across the
  // pool and merged in step order, so results are bit-identical to the
  // serial evaluator. nullptr (the default) keeps evaluation serial.
  std::shared_ptr<common::ThreadPool> pool;
  // Range queries with fewer steps than this stay serial even with a pool
  // (chunking overhead would dominate).
  int64_t min_parallel_steps = 8;
  // Ignored: range queries are not cached. Kept only so existing callers
  // still compile; to be deleted with the benchmark's next change.
  std::size_t query_cache_capacity = 0;
  // Streaming range evaluation: select() each selector's full
  // [start - max(range, lookback), end] span once, decode every chunk at
  // most once per query, and slide per-series window cursors across the
  // steps with incremental window aggregation. Bit-identical to the
  // per-step path (which remains as the differential oracle when this is
  // false) — see DESIGN.md "Streaming range queries".
  bool streaming_range = true;
  // Resolution-aware planning: when the source maintains pre-aggregated
  // resolution levels (Queryable::agg_resolutions), window functions whose
  // windows align to bucket boundaries (sum/avg/min/max/count_over_time,
  // rate, increase — see DESIGN.md §10 for the exactness conditions) are
  // answered from the coarsest level that covers the span, folding a
  // handful of bucket rows instead of every raw sample. Everything else —
  // unaligned windows, other functions, vector selectors, spans the
  // ladder does not cover — falls back to the raw path unchanged. Applies
  // to streaming range queries and top-level instant queries; the
  // per-step oracle (streaming_range = false) always evaluates raw.
  bool resolution_aware = true;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {})
      : options_(std::move(options)) {}

  // Evaluates `expr` at instant `t`. With a metrics::QuerySymbols active
  // on the calling thread, result labels may carry its ids: read them
  // while it is still active.
  Value eval(const Queryable& source, const ExprPtr& expr,
             TimestampMs t) const;
  Value eval(const Queryable& source, const std::string& expr,
             TimestampMs t) const;

  // Evaluates at every step in [start, end]; returns one series per result
  // label set.
  std::vector<Series> eval_range(const Queryable& source, const ExprPtr& expr,
                                 TimestampMs start, TimestampMs end,
                                 int64_t step_ms) const;
  std::vector<Series> eval_range(const Queryable& source,
                                 const std::string& expr, TimestampMs start,
                                 TimestampMs end, int64_t step_ms) const;

 private:
  // Evaluates the steps start, start+step, ... <= end into a
  // fingerprint-keyed accumulator (samples in step order).
  std::map<uint64_t, MatrixSeries> eval_range_steps(const Queryable& source,
                                              const ExprPtr& expr,
                                              TimestampMs start,
                                              TimestampMs end,
                                              int64_t step_ms) const;

  EngineOptions options_;
};

}  // namespace ceems::tsdb::promql
