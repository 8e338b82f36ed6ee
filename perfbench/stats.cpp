#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  double rank = std::clamp(q, 0.0, 100.0) / 100.0 *
                static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(rank));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || std::isinf(values[hi])) return values[lo + (frac > 0)];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double windowed_peak(const std::vector<GenerationSample>& generations,
                     int64_t window_ms, int64_t interval_ms) {
  if (generations.empty()) return std::numeric_limits<double>::quiet_NaN();
  int64_t first = generations.front().sim_ms;
  std::map<int64_t, std::pair<double, int64_t>> windows;  // max, count
  for (const auto& g : generations) {
    auto& [peak, count] = windows[(g.sim_ms - first) / window_ms];
    peak = count == 0 ? g.wall_s : std::max(peak, g.wall_s);
    ++count;
  }
  const int64_t full = window_ms / interval_ms;
  std::vector<double> complete, partial;
  for (const auto& [index, w] : windows) {
    (w.second >= full ? complete : partial).push_back(w.first);
  }
  return median(complete.empty() ? partial : complete);
}

LoopClock steady_loop_clock() {
  using Clock = std::chrono::steady_clock;
  const auto origin = Clock::now();
  LoopClock clock;
  clock.now_s = [origin] {
    return std::chrono::duration<double>(Clock::now() - origin).count();
  };
  clock.sleep_until_s = [origin](double t) {
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t)));
  };
  return clock;
}

std::vector<RequestTiming> run_open_loop(
    const std::vector<double>& due,
    const std::function<bool(std::size_t)>& send, const LoopClock& clock) {
  std::vector<RequestTiming> timings(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    clock.sleep_until_s(due[i]);
    RequestTiming& t = timings[i];
    t.due_s = due[i];
    t.start_s = clock.now_s();
    t.ok = send(i);
    t.end_s = clock.now_s();
  }
  return timings;
}

double latency_percentile_ms(const std::vector<RequestTiming>& timings,
                             double q) {
  std::vector<double> values;
  values.reserve(timings.size());
  for (const auto& t : timings) {
    values.push_back(t.ok ? t.latency_ms()
                          : std::numeric_limits<double>::infinity());
  }
  return percentile(std::move(values), q);
}

double lateness_percentile_ms(const std::vector<RequestTiming>& timings,
                              double q) {
  std::vector<double> values;
  values.reserve(timings.size());
  for (const auto& t : timings) values.push_back(t.late_ms());
  return percentile(std::move(values), q);
}

}  // namespace perfbench
