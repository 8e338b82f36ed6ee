#include "slurm/workload_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/fnv1a.h"

namespace ceems::slurm {

WorkloadGenerator::WorkloadGenerator(WorkloadGenConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.partitions.empty())
    throw std::invalid_argument("workload generator needs partitions");
  // Zipf-like user activity: weight(i) = 1 / (i+1)^s, as a CDF.
  double acc = 0;
  for (int i = 0; i < config_.num_users; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1),
                          config_.user_zipf_exponent);
    user_weights_cdf_.push_back(acc);
  }
  for (const auto& mix : config_.partitions)
    total_partition_weight_ += mix.weight;
}

std::string WorkloadGenerator::user_name(int index) const {
  return "user" + std::to_string(index);
}

std::string WorkloadGenerator::project_of(const std::string& user) const {
  // Stable user→project assignment: FNV-1a of the user name, from a
  // nonstandard basis that the generated workloads have always used.
  uint64_t hash = common::fnv1a(user, 1469598103934665603ULL);
  return "prj" +
         std::to_string(hash % static_cast<uint64_t>(
                                   std::max(1, config_.num_projects)));
}

int WorkloadGenerator::sample_user_index() {
  double target = rng_.next_double() * user_weights_cdf_.back();
  auto it = std::lower_bound(user_weights_cdf_.begin(),
                             user_weights_cdf_.end(), target);
  return static_cast<int>(it - user_weights_cdf_.begin());
}

std::vector<JobRequest> WorkloadGenerator::arrivals(int64_t dt_ms) {
  double expected =
      config_.jobs_per_day * static_cast<double>(dt_ms) /
      static_cast<double>(common::kMillisPerDay);
  // Poisson sampling via inter-arrival accumulation (good enough for
  // expected counts well below ~50 per step).
  std::vector<JobRequest> out;
  double remaining = expected;
  while (remaining > 0) {
    if (remaining >= 1.0 || rng_.chance(remaining)) {
      out.push_back(sample());
    }
    remaining -= 1.0;
  }
  return out;
}

JobRequest WorkloadGenerator::sample() {
  // Pick a partition by weight.
  double target = rng_.next_double() * total_partition_weight_;
  const PartitionMix* mix = &config_.partitions.back();
  double acc = 0;
  for (const auto& candidate : config_.partitions) {
    acc += candidate.weight;
    if (target <= acc) {
      mix = &candidate;
      break;
    }
  }

  JobRequest request;
  int user_index = sample_user_index();
  request.user = user_name(user_index);
  request.account = project_of(request.user);
  request.partition = mix->partition;

  // Duration: lognormal-ish — median ~45 min, heavy right tail, capped.
  double log_duration = rng_.normal(std::log(45.0 * 60.0), 1.2);
  double duration_sec = std::clamp(std::exp(log_duration), 60.0,
                                   20.0 * 3600.0);
  request.true_duration_ms = static_cast<int64_t>(duration_sec * 1000.0);
  request.walltime_limit_ms = static_cast<int64_t>(
      static_cast<double>(request.true_duration_ms) * rng_.uniform(1.1, 3.0));
  request.failure_probability = 0.03;

  node::WorkloadBehavior behavior;
  if (mix->has_gpus) {
    // GPU jobs: single node, 1..node_gpus GPUs, a few CPUs per GPU.
    request.name = "gpu_train";
    request.num_nodes = 1;
    request.gpus_per_node = static_cast<int>(rng_.uniform_int(
        1, std::max(1, mix->node_gpus)));
    request.cpus_per_node = std::min(
        mix->node_cpus, request.gpus_per_node *
                            static_cast<int>(rng_.uniform_int(4, 10)));
    request.memory_per_node_bytes =
        static_cast<int64_t>(rng_.uniform(32, 128)) * (1LL << 30);
    behavior.cpu_util_mean = rng_.uniform(0.2, 0.6);  // CPU feeds the GPU
    behavior.gpu_util_mean = rng_.uniform(0.55, 0.98);
    behavior.gpu_memory_fraction = rng_.uniform(0.3, 0.95);
    behavior.memory_target_fraction = rng_.uniform(0.3, 0.8);
  } else {
    bool large = rng_.chance(0.25) && mix->max_nodes_per_job >= 2;
    if (large) {
      request.name = "cpu_large";
      request.num_nodes = static_cast<int>(
          rng_.uniform_int(2, std::max(2, mix->max_nodes_per_job)));
      request.cpus_per_node = mix->node_cpus;  // exclusive nodes
      request.memory_per_node_bytes = mix->node_memory_bytes * 3 / 4;
      behavior.cpu_util_mean = rng_.uniform(0.8, 0.98);
    } else {
      request.name = "cpu_small";
      request.num_nodes = 1;
      request.cpus_per_node = static_cast<int>(rng_.uniform_int(
          1, std::max(1, mix->node_cpus / 2)));
      request.memory_per_node_bytes =
          static_cast<int64_t>(rng_.uniform(2, 48)) * (1LL << 30);
      behavior.cpu_util_mean = rng_.uniform(0.5, 0.95);
    }
    behavior.memory_target_fraction = rng_.uniform(0.3, 0.9);
  }
  behavior.cpu_util_jitter = 0.05;
  behavior.memory_activity = rng_.uniform(0.2, 0.9);
  behavior.memory_ramp_seconds = rng_.uniform(30, 600);
  if (rng_.chance(0.1)) {  // IO-heavy minority
    behavior.io_read_bytes_per_sec = rng_.uniform(10e6, 400e6);
    behavior.io_write_bytes_per_sec = rng_.uniform(5e6, 200e6);
  }
  // Network and microarchitectural profile (for the eBPF/perf collectors).
  if (request.num_nodes > 1) {
    // Multi-node jobs exchange MPI traffic.
    behavior.net_tx_bytes_per_sec = rng_.uniform(50e6, 600e6);
    behavior.net_rx_bytes_per_sec = behavior.net_tx_bytes_per_sec;
  } else if (mix->has_gpus) {
    // Data loading / checkpointing.
    behavior.net_tx_bytes_per_sec = rng_.uniform(1e6, 30e6);
    behavior.net_rx_bytes_per_sec = rng_.uniform(10e6, 120e6);
  } else if (rng_.chance(0.3)) {
    behavior.net_tx_bytes_per_sec = rng_.uniform(0.1e6, 20e6);
    behavior.net_rx_bytes_per_sec = rng_.uniform(0.1e6, 20e6);
  }
  behavior.instructions_per_cpu_sec = rng_.uniform(1.0e9, 3.5e9);
  behavior.flop_fraction =
      mix->has_gpus ? rng_.uniform(0.05, 0.2) : rng_.uniform(0.1, 0.5);
  behavior.cache_miss_rate = rng_.uniform(0.001, 0.03);
  request.behavior = behavior;
  return request;
}

}  // namespace ceems::slurm
