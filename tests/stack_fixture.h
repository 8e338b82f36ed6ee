// Shared fixture: a small Jean-Zay-like cluster with the complete CEEMS
// stack on top, driven deterministically on a SimClock. Used by the API
// server, LB, dashboard and integration tests.
#pragma once

#include <gtest/gtest.h>

#include "core/stack.h"

namespace ceems::testing {

struct MiniStackOptions {
  double cluster_scale = 0.004;   // ~6 nodes
  double jobs_per_day = 4000;     // busy enough to land jobs everywhere
  uint64_t seed = 42;
  core::StackConfig stack;
};

class MiniStack {
 public:
  explicit MiniStack(MiniStackOptions options = {}) {
    clock_ = common::make_sim_clock(1000000);
    slurm::JeanZayScale scale =
        slurm::JeanZayScale{}.scaled(options.cluster_scale);
    auto gen_config =
        slurm::make_jean_zay_workload_config(scale, options.jobs_per_day);
    gen_config.seed = options.seed;
    sim_ = std::make_unique<slurm::ClusterSim>(
        clock_, slurm::make_jean_zay_cluster(clock_, scale, options.seed),
        gen_config, options.seed);
    options.stack.scrape_interval_ms = 30000;
    options.stack.http_exporter_count = 0;  // local transport in tests
    stack_ = std::make_unique<core::CeemsStack>(*sim_, options.stack);
  }

  // Advances simulated time in 10 s steps; the stack scrapes + evaluates
  // rules every 30 s and updates the API server every
  // stack.updater.interval_ms (60 s by default).
  void run(int64_t duration_ms) {
    sim_->run_for(duration_ms, 10000,
                  [&](common::TimestampMs) { stack_->pipeline_step(); });
    stack_->update_api();  // catch units from the final partial window
  }

  slurm::ClusterSim& sim() { return *sim_; }
  core::CeemsStack& stack() { return *stack_; }
  std::shared_ptr<common::SimClock> clock() { return clock_; }

  // First job in the accounting DB in a given state, if any.
  std::optional<slurm::Job> any_job(slurm::JobState state) {
    for (const auto& job : sim_->dbd().all_jobs()) {
      if (job.state == state) return job;
    }
    return std::nullopt;
  }

 private:
  std::shared_ptr<common::SimClock> clock_;
  std::unique_ptr<slurm::ClusterSim> sim_;
  std::unique_ptr<core::CeemsStack> stack_;
};

}  // namespace ceems::testing
