#include "common/strutil.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

namespace ceems::common {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_fields(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view next_line(std::string_view& text) {
  std::size_t nl = text.find('\n');
  std::string_view line = text.substr(0, nl);
  text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  return line;
}

std::string_view next_field(std::string_view& text) {
  auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::size_t i = 0;
  while (i < text.size() && space(text[i])) ++i;
  std::size_t start = i;
  while (i < text.size() && !space(text[i])) ++i;
  std::string_view field = text.substr(start, i - start);
  text.remove_prefix(i);
  return field;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::optional<int64_t> parse_int64(std::string_view text) {
  text = trim(text);
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  if (text == "+Inf" || text == "Inf" || text == "inf")
    return std::numeric_limits<double>::infinity();
  if (text == "-Inf" || text == "-inf")
    return -std::numeric_limits<double>::infinity();
  if (text == "NaN" || text == "nan")
    return std::numeric_limits<double>::quiet_NaN();
  // std::from_chars for double is available in libstdc++ 11+.
  double value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

void append_double(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  // The output is that of trying %.6g, %.7g, ... %.17g and keeping the
  // first that parses back to `value` (%.17g always does). No %.Pg with
  // fewer digits than the shortest round-trip form can round-trip, so the
  // search starts at that digit count and usually ends there.
  char buf[32];  // "-2.2250738585072014e-308" is the longest: 24 chars
  char* const end = buf + sizeof(buf);
  auto shortest = std::to_chars(buf, end, value, std::chars_format::scientific);
  int digits = 0;
  for (const char* p = buf; p != shortest.ptr && *p != 'e'; ++p) {
    digits += std::isdigit(static_cast<unsigned char>(*p)) ? 1 : 0;
  }
  std::to_chars_result printed{buf, std::errc()};
  for (int precision = std::max(6, digits); precision <= 17; ++precision) {
    printed = std::to_chars(buf, end, value, std::chars_format::general,
                            precision);
    double parsed = 0;
    std::from_chars(buf, printed.ptr, parsed);
    if (parsed == value) break;
  }
  out.append(buf, printed.ptr);
}

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<int64_t> parse_duration_ms(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  // Accept a sequence like "1h30m"; each component is <number><unit>.
  int64_t total = 0;
  std::size_t i = 0;
  bool saw_component = false;
  while (i < text.size()) {
    std::size_t num_start = i;
    while (i < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[i])) ||
            text[i] == '.'))
      ++i;
    if (i == num_start) return std::nullopt;
    auto value = parse_double(text.substr(num_start, i - num_start));
    if (!value) return std::nullopt;
    std::size_t unit_start = i;
    while (i < text.size() &&
           std::isalpha(static_cast<unsigned char>(text[i])))
      ++i;
    std::string_view unit = text.substr(unit_start, i - unit_start);
    double scale = 0;
    if (unit == "ms") scale = 1;
    else if (unit == "s") scale = 1000;
    else if (unit == "m") scale = 60 * 1000;
    else if (unit == "h") scale = 3600 * 1000;
    else if (unit == "d") scale = 24 * 3600 * 1000;
    else if (unit == "w") scale = 7 * 24 * 3600 * 1000;
    else if (unit == "y") scale = 365.0 * 24 * 3600 * 1000;
    else return std::nullopt;
    total += static_cast<int64_t>(*value * scale);
    saw_component = true;
  }
  if (!saw_component) return std::nullopt;
  return total;
}

std::string format_duration_ms(int64_t millis) {
  if (millis % (24 * 3600 * 1000) == 0 && millis != 0)
    return std::to_string(millis / (24 * 3600 * 1000)) + "d";
  if (millis % (3600 * 1000) == 0 && millis != 0)
    return std::to_string(millis / (3600 * 1000)) + "h";
  if (millis % (60 * 1000) == 0 && millis != 0)
    return std::to_string(millis / (60 * 1000)) + "m";
  if (millis % 1000 == 0) return std::to_string(millis / 1000) + "s";
  return std::to_string(millis) + "ms";
}

}  // namespace ceems::common
