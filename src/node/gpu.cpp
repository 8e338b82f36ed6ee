#include "node/gpu.h"

#include <cstdio>

#include "common/fnv1a.h"

namespace ceems::node {

std::string make_gpu_uuid(const std::string& hostname, int ordinal) {
  // FNV-1a over hostname + ordinal digit, rendered as 16 hex digits.
  const char digit = static_cast<char>('0' + ordinal);
  uint64_t hash = common::fnv1a({&digit, 1}, common::fnv1a(hostname));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "GPU-%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

GpuBank::GpuBank(const NodeSpec& spec, const std::string& hostname) {
  for (std::size_t i = 0; i < spec.gpus.size(); ++i) {
    GpuTelemetry device;
    device.ordinal = static_cast<int>(i);
    device.uuid = make_gpu_uuid(hostname, device.ordinal);
    device.model = spec.gpus[i].model;
    device.vendor = spec.gpus[i].vendor;
    device.power_w = spec.gpus[i].idle_power_w;
    device.memory_total_bytes = spec.gpus[i].memory_bytes;
    devices_.push_back(std::move(device));
  }
}

void GpuBank::update(const std::vector<double>& per_gpu_w,
                     const std::vector<double>& per_gpu_util,
                     const std::vector<int64_t>& per_gpu_mem_bytes,
                     int64_t dt_ms) {
  std::lock_guard lock(mu_);
  double seconds = static_cast<double>(dt_ms) / 1000.0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (i < per_gpu_w.size()) {
      devices_[i].power_w = per_gpu_w[i];
      devices_[i].lifetime_energy_j += per_gpu_w[i] * seconds;
    }
    if (i < per_gpu_util.size()) devices_[i].utilization = per_gpu_util[i];
    if (i < per_gpu_mem_bytes.size())
      devices_[i].memory_used_bytes = per_gpu_mem_bytes[i];
  }
}

std::vector<GpuTelemetry> GpuBank::snapshot() const {
  std::lock_guard lock(mu_);
  return devices_;
}

std::optional<GpuTelemetry> GpuBank::device(int ordinal) const {
  std::lock_guard lock(mu_);
  if (ordinal < 0 || static_cast<std::size_t>(ordinal) >= devices_.size())
    return std::nullopt;
  return devices_[static_cast<std::size_t>(ordinal)];
}

}  // namespace ceems::node
