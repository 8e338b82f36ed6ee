#include "faults/plan.h"

#include "common/fnv1a.h"
#include "common/rng.h"

namespace ceems::faults {

namespace {

// Uniform [0,1) from (seed, stream hash, index, salt) — one SplitMix64
// draw, so a decision never depends on other streams.
double draw(uint64_t seed, uint64_t stream, uint64_t index, uint64_t salt) {
  common::Rng rng(seed ^ (stream * 0x9E3779B97F4A7C15ULL) ^
                  (index * 0xD1B54A32D192ED03ULL) ^ salt);
  return rng.next_double();
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kConnectTimeout: return "connect_timeout";
    case FaultKind::kIoTimeout: return "io_timeout";
    case FaultKind::kHttpStatus: return "http_status";
    case FaultKind::kSlowResponse: return "slow_response";
    case FaultKind::kTruncateBody: return "truncate_body";
    case FaultKind::kUnavailable: return "unavailable";
    case FaultKind::kReadError: return "read_error";
  }
  return "unknown";
}

FaultPlan::FaultPlan(uint64_t seed) : seed_(seed) {}

void FaultPlan::set_clock(common::ClockPtr clock) {
  std::lock_guard lock(mu_);
  clock_ = std::move(clock);
}

void FaultPlan::configure(const std::string& site, SiteFaults faults) {
  std::lock_guard lock(mu_);
  sites_[site] = faults;
}

void FaultPlan::clear(const std::string& site) {
  std::lock_guard lock(mu_);
  sites_.erase(site);
}

FaultDecision FaultPlan::decide(std::string_view site, std::string_view key) {
  std::lock_guard lock(mu_);
  auto site_it = sites_.find(site);
  if (site_it == sites_.end()) return {};
  const SiteFaults& faults = site_it->second;

  std::string stream_key;
  stream_key.reserve(site.size() + key.size() + 1);
  stream_key.append(site).push_back('\x1f');
  stream_key.append(key);
  uint64_t stream_hash = common::fnv1a(stream_key);

  auto [stream_it, inserted] = streams_.try_emplace(std::move(stream_key));
  Stream& stream = stream_it->second;
  if (inserted && faults.flap > 0) {
    stream.flapper = draw(seed_, stream_hash, 0, 0xF1A9) < faults.flap;
  }
  uint64_t n = stream.counter++;
  ++stats_.decisions;

  auto record = [&](FaultDecision decision) {
    ++stats_.faults;
    ++stats_.by_kind[fault_kind_name(decision.kind)];
    return decision;
  };

  if (stream.flapper) {
    bool dark;
    if (clock_) {
      // Key-phased square wave over simulated time, so flappers don't all
      // go dark in lockstep.
      int64_t phase = static_cast<int64_t>(stream_hash % static_cast<uint64_t>(
                                               faults.flap_period_ms));
      int64_t t = clock_->now_ms() + phase;
      dark = t % faults.flap_period_ms < faults.flap_down_ms;
    } else {
      dark = static_cast<int64_t>(n % static_cast<uint64_t>(
                                      faults.flap_period)) < faults.flap_down;
    }
    if (dark) return record({FaultKind::kUnavailable});
    return {};
  }

  double u = draw(seed_, stream_hash, n + 1, 0xDEC1DE);
  auto hit = [&](double p) {
    if (u < p) return true;
    u -= p;
    return false;
  };
  if (hit(faults.connect_timeout)) return record({FaultKind::kConnectTimeout});
  if (hit(faults.io_timeout)) return record({FaultKind::kIoTimeout});
  if (hit(faults.http_5xx)) {
    FaultDecision decision{FaultKind::kHttpStatus};
    static constexpr int kStatuses[] = {500, 502, 503};
    decision.http_status =
        kStatuses[static_cast<int>(draw(seed_, stream_hash, n + 1, 0x5555) * 3)
                      % 3];
    return record(decision);
  }
  if (hit(faults.http_429)) {
    FaultDecision decision{FaultKind::kHttpStatus};
    decision.http_status = 429;
    return record(decision);
  }
  if (hit(faults.slow)) {
    FaultDecision decision{FaultKind::kSlowResponse};
    decision.delay_ms = faults.slow_delay_ms;
    return record(decision);
  }
  if (hit(faults.truncate)) {
    FaultDecision decision{FaultKind::kTruncateBody};
    decision.keep_fraction = draw(seed_, stream_hash, n + 1, 0x7234) * 0.9;
    return record(decision);
  }
  if (hit(faults.unavailable)) return record({FaultKind::kUnavailable});
  if (hit(faults.read_error)) return record({FaultKind::kReadError});
  return {};
}

FaultPlan::Stats FaultPlan::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace ceems::faults
