// Prometheus text exposition format: the wire format between the CEEMS
// exporter and the TSDB scrape manager.
//
//   # HELP node_cpu_seconds_total Seconds the CPUs spent in each mode.
//   # TYPE node_cpu_seconds_total counter
//   node_cpu_seconds_total{cpu="0",mode="user"} 12345.6
//
// encode_families produces that text; parse_exposition reads it back into
// samples (with the family name folded into __name__). The parser is
// tolerant the same way Prometheus is: unknown comment lines are skipped,
// but malformed sample lines raise ExpositionParseError so scrape failures
// become visible (up == 0) rather than silently dropped data.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/model.h"

namespace ceems::metrics {

class ExpositionParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::string encode_families(const std::vector<MetricFamily>& families);

struct ParsedExposition {
  std::vector<Sample> samples;  // labels include __name__
  // HELP/TYPE metadata keyed by family name, preserved for re-export.
  std::vector<MetricFamily> families;
};

ParsedExposition parse_exposition(std::string_view text);

// The pieces of one sample line, name[{labels}] value [timestamp], shared
// by parse_exposition and the scrape manager's zero-copy parser so both
// accept and reject exactly the same lines, with the same messages.
//
// Parses the {a="b",c="d"} label block; `pos` points at '{' on entry and
// one past '}' on exit.
Labels parse_label_block(std::string_view line, std::size_t& pos);

struct SampleTail {
  double value = 0;
  TimestampMs timestamp_ms = 0;  // 0 when the line carries none
};
// Parses the value and optional timestamp from `pos` on: any isspace
// separates, and fields after the timestamp are ignored.
SampleTail parse_sample_tail(std::string_view line, std::size_t pos);

// Escapes a label value for the exposition format (\, ", \n).
std::string escape_label_value(std::string_view value);
// Inverse of escape_label_value: resolves \\, \", \n escape sequences (an
// unknown escape yields the escaped character verbatim, matching the
// Prometheus parser's tolerance). The scrape-side parser uses this, so
// encode → parse round-trips every label value byte-for-byte.
std::string unescape_label_value(std::string_view value);

}  // namespace ceems::metrics
