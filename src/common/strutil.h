// Small string helpers shared across modules: splitting, trimming, numeric
// parsing with explicit failure, and printf-style formatting.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ceems::common {

std::vector<std::string> split(std::string_view text, char sep);
// Like split, but drops empty fields (useful for whitespace-separated
// pseudo-file content).
std::vector<std::string> split_fields(std::string_view text);
// Allocation-free walkers over the same pieces. next_line cuts the text up
// to the next '\n' off the front of `text` (so `while (!text.empty())`
// sees split(text, '\n') less a trailing empty piece); next_field cuts the
// next whitespace-separated field (empty once none is left), so repeated
// calls see split_fields(text) one at a time.
std::string_view next_line(std::string_view& text);
std::string_view next_field(std::string_view& text);
std::string_view trim(std::string_view text);
std::string to_lower(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

std::optional<int64_t> parse_int64(std::string_view text);
std::optional<double> parse_double(std::string_view text);

// Formats a double the way the Prometheus text format expects: shortest
// round-trippable representation, "+Inf"/"-Inf"/"NaN" specials.
std::string format_double(double value);
// Appends format_double(value) to `out` without a temporary string.
void append_double(std::string& out, double value);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

// Parses a duration string such as "30s", "5m", "1h", "7d", "250ms" into
// milliseconds. Returns nullopt on bad syntax.
std::optional<int64_t> parse_duration_ms(std::string_view text);
std::string format_duration_ms(int64_t millis);

}  // namespace ceems::common
