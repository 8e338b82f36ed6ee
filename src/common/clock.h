// Clock abstraction shared by every CEEMS component.
//
// A monitoring stack is fundamentally about time: scrape intervals, rate()
// windows, retention cutoffs. To make the whole stack deterministic under
// test, no component ever calls std::chrono directly — everything receives a
// Clock and only ever asks it for the time. RealClock wraps the system
// clock; SimClock is a manually stepped clock, which is what lets the
// cluster simulator run "three months of Jean-Zay" in milliseconds. Nothing
// sleeps on a Clock: whoever advances a SimClock also drives the stack
// (scrape, rules, updater) between steps.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace ceems::common {

// All CEEMS timestamps are milliseconds since the Unix epoch, matching the
// Prometheus wire format.
using TimestampMs = int64_t;

constexpr TimestampMs kMillisPerSecond = 1000;
constexpr TimestampMs kMillisPerMinute = 60 * kMillisPerSecond;
constexpr TimestampMs kMillisPerHour = 60 * kMillisPerMinute;
constexpr TimestampMs kMillisPerDay = 24 * kMillisPerHour;

class Clock {
 public:
  virtual ~Clock() = default;

  // Current time in milliseconds since the epoch.
  virtual TimestampMs now_ms() const = 0;
};

using ClockPtr = std::shared_ptr<Clock>;

// Wall-clock implementation used by the standalone servers (ceems_exporter,
// ceems_lb, ceems_api_server).
class RealClock final : public Clock {
 public:
  TimestampMs now_ms() const override;
};

// Deterministic clock for tests and the cluster simulator. Time only moves
// when advance()/set() is called. One atomic timestamp, so readers on any
// thread (the scrape pool stamps samples with now_ms()) take no lock.
class SimClock final : public Clock {
 public:
  explicit SimClock(TimestampMs start_ms = 0) : now_(start_ms) {}

  TimestampMs now_ms() const override { return now_.load(); }

  void advance(TimestampMs delta_ms) { now_.fetch_add(delta_ms); }
  void set(TimestampMs now_ms) { now_.store(now_ms); }

 private:
  std::atomic<TimestampMs> now_;
};

ClockPtr make_real_clock();
std::shared_ptr<SimClock> make_sim_clock(TimestampMs start_ms = 0);

}  // namespace ceems::common
