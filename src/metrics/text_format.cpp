#include "metrics/text_format.h"

#include <cctype>
#include <charconv>
#include <map>

#include "common/strutil.h"

namespace ceems::metrics {

using common::append_double;
using common::parse_double;
using common::parse_int64;
using common::split_fields;
using common::starts_with;
using common::trim;

namespace {

// Appends `text` with \ and newline escaped, and " too when `quote`: the
// escapes text format 0.0.4 requires in label values (quote) and in HELP
// text (no quote).
void append_escaped(std::string& out, std::string_view text, bool quote) {
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char* escape = nullptr;
    switch (text[i]) {
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '"': escape = quote ? "\\\"" : nullptr; break;
      default: break;
    }
    if (escape == nullptr) continue;
    out.append(text.data() + run, i - run);
    out.append(escape, 2);
    run = i + 1;
  }
  out.append(text.data() + run, text.size() - run);
}

// Inverse of HELP escaping: \\ and \n resolve; any other backslash is
// kept as written.
std::string unescape_help_text(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size() &&
        (text[i + 1] == '\\' || text[i + 1] == 'n')) {
      out += text[++i] == 'n' ? '\n' : '\\';
    } else {
      out += text[i];
    }
  }
  return out;
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  append_escaped(out, value, /*quote=*/true);
  return out;
}

std::string unescape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i] == '\\' && i + 1 < value.size()) {
      char e = value[++i];
      if (e == 'n') out += '\n';
      else out += e;  // covers \\ and \" plus unknown escapes verbatim
    } else {
      out += value[i];
    }
  }
  return out;
}

std::string encode_families(const std::vector<MetricFamily>& families) {
  std::string out;
  for (const auto& family : families) {
    if (!family.help.empty()) {
      out += "# HELP ";
      out += family.name;
      out += ' ';
      append_escaped(out, family.help, /*quote=*/false);
      out += '\n';
    }
    out += "# TYPE ";
    out += family.name;
    out += ' ';
    out += metric_type_name(family.type);
    out += '\n';
    for (const auto& metric : family.metrics) {
      out += family.name;
      if (!metric.labels.empty()) {
        out += '{';
        bool first = true;
        for (const auto& [name, value] : metric.labels.pairs()) {
          if (!first) out += ',';
          first = false;
          out += name;
          out += "=\"";
          append_escaped(out, value, /*quote=*/true);
          out += '"';
        }
        out += '}';
      }
      out += ' ';
      append_double(out, metric.value);
      if (metric.timestamp_ms != 0) {
        char buf[24];
        out += ' ';
        out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                      metric.timestamp_ms).ptr);
      }
      out += '\n';
    }
  }
  return out;
}

Labels parse_label_block(std::string_view line, std::size_t& pos) {
  std::vector<Labels::Pair> pairs;
  ++pos;  // consume '{'
  for (;;) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == ',')) ++pos;
    if (pos < line.size() && line[pos] == '}') {
      ++pos;
      return Labels(std::move(pairs));
    }
    std::size_t name_start = pos;
    while (pos < line.size() && line[pos] != '=') ++pos;
    if (pos >= line.size())
      throw ExpositionParseError("unterminated label block: " +
                                 std::string(line));
    std::string name(trim(line.substr(name_start, pos - name_start)));
    ++pos;  // '='
    if (pos >= line.size() || line[pos] != '"')
      throw ExpositionParseError("label value must be quoted: " +
                                 std::string(line));
    ++pos;  // '"'
    std::size_t value_start = pos;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\' && pos + 1 < line.size()) pos += 2;
      else ++pos;
    }
    if (pos >= line.size())
      throw ExpositionParseError("unterminated label value: " +
                                 std::string(line));
    std::string value =
        unescape_label_value(line.substr(value_start, pos - value_start));
    ++pos;  // closing '"'
    if (!is_valid_label_name(name))
      throw ExpositionParseError("invalid label name '" + name + "'");
    pairs.emplace_back(std::move(name), std::move(value));
  }
}

SampleTail parse_sample_tail(std::string_view line, std::size_t pos) {
  auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  auto next_field = [&] {
    while (pos < line.size() && is_space(line[pos])) ++pos;
    std::size_t start = pos;
    while (pos < line.size() && !is_space(line[pos])) ++pos;
    return line.substr(start, pos - start);
  };
  SampleTail tail;
  std::string_view value_text = next_field();
  if (value_text.empty())
    throw ExpositionParseError("missing value in line: " + std::string(line));
  auto value = parse_double(value_text);
  if (!value)
    throw ExpositionParseError("bad sample value '" + std::string(value_text) +
                               "'");
  tail.value = *value;
  std::string_view ts_text = next_field();
  if (!ts_text.empty()) {
    auto ts = parse_int64(ts_text);
    if (!ts)
      throw ExpositionParseError("bad timestamp '" + std::string(ts_text) +
                                 "'");
    tail.timestamp_ms = *ts;
  }
  return tail;
}

ParsedExposition parse_exposition(std::string_view text) {
  ParsedExposition result;
  std::map<std::string, std::size_t> family_index;

  auto family_for = [&](const std::string& name) -> MetricFamily& {
    auto it = family_index.find(name);
    if (it == family_index.end()) {
      it = family_index.emplace(name, result.families.size()).first;
      result.families.push_back(MetricFamily{name, "", MetricType::kUntyped, {}});
    }
    return result.families[it->second];
  };

  for (std::string_view raw : common::split(text, '\n')) {
    std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type"; other comments skipped.
      std::string_view rest = trim(line.substr(1));
      if (starts_with(rest, "HELP ")) {
        rest = trim(rest.substr(5));
        std::size_t space = rest.find(' ');
        std::string name(space == std::string_view::npos ? rest
                                                         : rest.substr(0, space));
        family_for(name).help = unescape_help_text(
            space == std::string_view::npos ? std::string_view{}
                                            : trim(rest.substr(space + 1)));
      } else if (starts_with(rest, "TYPE ")) {
        auto fields = split_fields(rest.substr(5));
        if (fields.size() >= 2) {
          MetricType type = MetricType::kUntyped;
          if (fields[1] == "counter") type = MetricType::kCounter;
          else if (fields[1] == "gauge") type = MetricType::kGauge;
          family_for(fields[0]).type = type;
        }
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ' &&
           line[pos] != '\t')
      ++pos;
    std::string name(line.substr(0, pos));
    if (!is_valid_metric_name(name))
      throw ExpositionParseError("invalid metric name in line: " +
                                 std::string(line));
    Labels labels;
    if (pos < line.size() && line[pos] == '{')
      labels = parse_label_block(line, pos);
    SampleTail tail = parse_sample_tail(line, pos);

    MetricFamily& family = family_for(name);
    // Intern the label set once per line; after the first scrape of a
    // target every (name, value) string resolves to an existing symbol, so
    // steady-state parsing allocates no per-sample label strings.
    result.samples.push_back(
        Sample{InternedLabels(labels).with(kMetricNameLabel, name),
               tail.timestamp_ms, tail.value});
    family.metrics.push_back(
        {std::move(labels), tail.value, tail.timestamp_ms});
  }
  return result;
}

}  // namespace ceems::metrics
