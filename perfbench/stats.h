// Summary statistics and open-loop accounting for the benchmark driver.
// Everything here is pure (no stack types) so perfbench_test can check it
// on synthetic data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

// Percentile `q` in [0, 100] with linear interpolation between closest
// ranks (numpy's default). Empty input gives NaN.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

// One monitoring generation: the simulated time it ran at and its wall time.
struct GenerationSample {
  int64_t sim_ms = 0;
  double wall_s = 0;
};

// generation_peak_s: splits generations into windows of `window_ms` of
// simulated time, anchored at the first generation, takes the slowest
// generation of each window and returns the median of those maxima. Only
// complete windows (window_ms / interval_ms generations) count; when there
// is none, the partial windows are used. Empty input gives NaN.
double windowed_peak(const std::vector<GenerationSample>& generations,
                     int64_t window_ms, int64_t interval_ms);

// Open-loop request timing, in seconds on the loop clock.
// A request is timed from when it was due, so a stall in the sender is
// charged to every request queued behind it.
struct RequestTiming {
  double due_s = 0;
  double start_s = 0;  // when the sender actually began it
  double end_s = 0;
  bool ok = false;
  double latency_ms() const { return (end_s - due_s) * 1e3; }
  double late_ms() const { return (start_s - due_s) * 1e3; }
};

// Time source for run_open_loop; the real one is steady_clock, tests use a
// fake whose sleep_until() and request bodies move time forward.
struct LoopClock {
  std::function<double()> now_s;
  std::function<void(double)> sleep_until_s;
};
LoopClock steady_loop_clock();

// Sends `due.size()` requests (due times ascending, on `clock`) from the
// calling thread: waits until each is due, runs `send(i)` (which returns
// whether the request succeeded) and records its timing. A request is never
// skipped, so a slow request makes the following ones late rather than
// dropping them.
std::vector<RequestTiming> run_open_loop(
    const std::vector<double>& due,
    const std::function<bool(std::size_t)>& send, const LoopClock& clock);

// Latency percentile over requests, counting a failed request as infinitely
// slow (it misses any latency limit).
double latency_percentile_ms(const std::vector<RequestTiming>& timings,
                             double q);
double lateness_percentile_ms(const std::vector<RequestTiming>& timings,
                              double q);

}  // namespace perfbench
