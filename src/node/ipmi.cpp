#include "node/ipmi.h"

#include <algorithm>
#include <cmath>

#include "common/strutil.h"

namespace ceems::node {

void IpmiDcmi::offer_power(double true_watts) {
  std::lock_guard lock(mu_);
  common::TimestampMs now = clock_->now_ms();
  if (last_update_ms_ >= 0 && now - last_update_ms_ < update_interval_ms_)
    return;  // BMC has not refreshed yet
  last_update_ms_ = now;
  int64_t watts = static_cast<int64_t>(std::llround(true_watts));
  if (samples_ == 0) {
    min_seen_ = max_seen_ = true_watts;
  } else {
    min_seen_ = std::min(min_seen_, true_watts);
    max_seen_ = std::max(max_seen_, true_watts);
  }
  sum_ += true_watts;
  ++samples_;
  current_.watts = watts;
  current_.min_watts = static_cast<int64_t>(std::llround(min_seen_));
  current_.max_watts = static_cast<int64_t>(std::llround(max_seen_));
  current_.avg_watts =
      static_cast<int64_t>(std::llround(sum_ / static_cast<double>(samples_)));
  current_.sample_time_ms = now;
}

DcmiPowerReading IpmiDcmi::read() const {
  std::lock_guard lock(mu_);
  ++total_reads_;
  if (last_update_ms_ >= 0 &&
      clock_->now_ms() - current_.sample_time_ms > 0) {
    ++cached_reads_;
  }
  return current_;
}

std::string format_dcmi_output(const DcmiPowerReading& reading) {
  return "    Instantaneous power reading:              " +
         std::to_string(reading.watts) +
         " Watts\n"
         "    Minimum during sampling period:           " +
         std::to_string(reading.min_watts) +
         " Watts\n"
         "    Maximum during sampling period:           " +
         std::to_string(reading.max_watts) +
         " Watts\n"
         "    Average power reading over sample period: " +
         std::to_string(reading.avg_watts) +
         " Watts\n"
         "    Power reading state is:                   activated\n";
}

DcmiPowerReading parse_dcmi_output(const std::string& text) {
  DcmiPowerReading reading;
  for (std::string_view rest = text; !rest.empty();) {
    std::string_view line = common::next_line(rest);
    auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view key = common::trim(line.substr(0, colon));
    std::string_view after = line.substr(colon + 1);
    std::string_view first = common::next_field(after);
    if (first.empty()) continue;
    int64_t value = common::parse_int64(first).value_or(0);
    if (key == "Instantaneous power reading") reading.watts = value;
    else if (key == "Minimum during sampling period") reading.min_watts = value;
    else if (key == "Maximum during sampling period") reading.max_watts = value;
    else if (key == "Average power reading over sample period")
      reading.avg_watts = value;
  }
  return reading;
}

}  // namespace ceems::node
