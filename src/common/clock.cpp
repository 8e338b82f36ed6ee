#include "common/clock.h"

#include <chrono>

namespace ceems::common {

TimestampMs RealClock::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

ClockPtr make_real_clock() { return std::make_shared<RealClock>(); }

std::shared_ptr<SimClock> make_sim_clock(TimestampMs start_ms) {
  return std::make_shared<SimClock>(start_ms);
}

}  // namespace ceems::common
