#include "dashboard/panels.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ceems::dashboard {

namespace {
// Appends one cell, " <text> |", with `text` cut or space-padded to
// `width` columns.
void append_cell(std::string& out, const std::string& text,
                 std::size_t width) {
  out += ' ';
  out.append(text, 0, width);
  if (text.size() < width) out.append(width - text.size(), ' ');
  out += " |";
}

std::string title_bar(const std::string& title, std::size_t width) {
  std::string out = "== " + title + " ";
  if (out.size() < width) out += std::string(width - out.size(), '=');
  return out + "\n";
}
}  // namespace

std::string render_table(const std::string& title,
                         const std::vector<std::string>& columns,
                         const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    widths[c] = columns[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < columns.size() && c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::size_t total = 1;
  for (std::size_t w : widths) total += w + 3;

  std::string out = title_bar(title, total);
  out += "|";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    append_cell(out, columns[c], widths[c]);
  }
  out += "\n|";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    out.append(widths[c] + 2, '-');
    out += '|';
  }
  out += "\n";
  for (const auto& row : rows) {
    out += "|";
    for (std::size_t c = 0; c < columns.size(); ++c) {
      append_cell(out, c < row.size() ? row[c] : std::string(), widths[c]);
    }
    out += "\n";
  }
  return out;
}

std::string render_stats(const std::string& title,
                         const std::vector<Stat>& stats) {
  std::size_t tile = 0;
  for (const auto& stat : stats) {
    tile = std::max({tile, stat.label.size(), stat.value.size()});
  }
  tile += 2;
  std::string out = title_bar(title, (tile + 3) * stats.size());
  std::string values = "|", labels = "|";
  for (const auto& stat : stats) {
    append_cell(values, stat.value, tile);
    append_cell(labels, stat.label, tile);
  }
  out += values + "\n" + labels + "\n";
  return out;
}

std::string render_chart(const std::string& title,
                         const std::vector<ChartSeries>& series, int width,
                         int height) {
  std::string out = title_bar(title, static_cast<std::size_t>(width) + 10);
  if (series.empty() || height < 2 || width < 8) return out + "(no data)\n";

  common::TimestampMs t_min = INT64_MAX, t_max = INT64_MIN;
  double v_min = INFINITY, v_max = -INFINITY;
  for (const auto& s : series) {
    for (const auto& point : s.points) {
      t_min = std::min(t_min, point.t);
      t_max = std::max(t_max, point.t);
      v_min = std::min(v_min, point.v);
      v_max = std::max(v_max, point.v);
    }
  }
  if (t_min > t_max) return out + "(no data)\n";
  if (v_max <= v_min) v_max = v_min + 1;

  // One glyph per series, plotted into a character grid.
  static const char kGlyphs[] = "*o+x#@%&";
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width),
                                            ' '));
  for (std::size_t s = 0; s < series.size(); ++s) {
    char glyph = kGlyphs[s % (sizeof(kGlyphs) - 1)];
    for (const auto& point : series[s].points) {
      int x = t_max == t_min
                  ? 0
                  : static_cast<int>(
                        static_cast<double>(point.t - t_min) /
                        static_cast<double>(t_max - t_min) * (width - 1));
      int y = static_cast<int>((point.v - v_min) / (v_max - v_min) *
                               (height - 1));
      int row = height - 1 - y;
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(x)] = glyph;
    }
  }
  char label[64];
  std::snprintf(label, sizeof(label), "%8.4g ", v_max);
  out += std::string(label) + "+" + grid[0] + "\n";
  for (int r = 1; r < height - 1; ++r) {
    out += "         |" + grid[static_cast<std::size_t>(r)] + "\n";
  }
  std::snprintf(label, sizeof(label), "%8.4g ", v_min);
  out += std::string(label) + "+" + grid[static_cast<std::size_t>(height - 1)] +
         "\n";
  out += "          " + std::string(static_cast<std::size_t>(width), '-') +
         "\n";
  for (std::size_t s = 0; s < series.size(); ++s) {
    out += "          ";
    out += kGlyphs[s % (sizeof(kGlyphs) - 1)];
    out += " " + series[s].name + "\n";
  }
  return out;
}

std::string format_bytes(double bytes) {
  char buf[32];
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  int unit = 0;
  while (std::fabs(bytes) >= 1024.0 && unit < 5) {
    bytes /= 1024.0;
    ++unit;
  }
  std::snprintf(buf, sizeof(buf), "%.1f %s", bytes, units[unit]);
  return buf;
}

std::string format_joules(double joules) {
  char buf[32];
  if (joules >= 3.6e6) {
    std::snprintf(buf, sizeof(buf), "%.2f kWh", joules / 3.6e6);
  } else if (joules >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f MJ", joules / 1e6);
  } else if (joules >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1f kJ", joules / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f J", joules);
  }
  return buf;
}

std::string format_co2(double grams) {
  char buf[32];
  if (grams >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2f kgCO2e", grams / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f gCO2e", grams);
  }
  return buf;
}

std::string format_duration(int64_t millis) {
  char buf[48];
  int64_t seconds = millis / 1000;
  if (seconds >= 86400) {
    std::snprintf(buf, sizeof(buf), "%lldd %lldh",
                  static_cast<long long>(seconds / 86400),
                  static_cast<long long>(seconds % 86400 / 3600));
  } else if (seconds >= 3600) {
    std::snprintf(buf, sizeof(buf), "%lldh %lldm",
                  static_cast<long long>(seconds / 3600),
                  static_cast<long long>(seconds % 3600 / 60));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldm %llds",
                  static_cast<long long>(seconds / 60),
                  static_cast<long long>(seconds % 60));
  }
  return buf;
}

}  // namespace ceems::dashboard
