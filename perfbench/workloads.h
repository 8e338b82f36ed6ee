// The benchmark's workloads: a full core::CeemsStack over a seeded
// slurm::ClusterSim, driven generation by generation, with an open-loop
// reader of Fig. 2 dashboard requests. See perfbench/README.md for what
// each metric means and which layer it belongs to.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ceems::faults {
class FaultPlan;
}

namespace perfbench {

// Every field is set by workload_spec(); see its table of workloads.
struct WorkloadSpec {
  std::string name;
  int nodes = 0;
  // Simulated warm-up before measuring; a multiple of 5 minutes, so the
  // measured span starts half-way through a compaction window.
  int64_t warmup_ms = 0;
  // Closed loop: generations measured back to back. 0 = cadenced
  // generations for `measure_s` of wall time while readers run.
  int measured_generations = 0;
  double cadence_s = 0;
  double measure_s = 0;
  // Closed loop: an open-loop read probe of this span after the
  // generations (nothing else running).
  double idle_probe_s = 0;
  // Hot WAL on a simfs::SimDurableDir, checkpointed every 5 simulated
  // minutes. (On a shared VM the real disk's fsync latency moved generation
  // time by 2.5x between runs; the simulated directory keeps every WAL
  // code path and the commit count, without the host's disk.)
  bool durable = false;
  // Open-loop rate of Fig. 2c range queries per second (three per panel);
  // Fig. 2a/2b API-server requests run at a third of it. One sender thread
  // each.
  double query_rate = 0;
  // Set-ups (construction + warm-up) whose median is setup_s: the first
  // one's stack is measured, the others run at the end of the run. And
  // recoveries, 0.5 s apart in a child process, whose fastest is
  // recovery_s.
  int setup_repeats = 0;
  int recovery_repeats = 0;
};

// The named workload, with its measured span set from --seconds.
// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload_spec(const std::string& name, double seconds);
std::vector<std::string> workload_names();

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunOptions {
  // Reader seed: the order in which running jobs are queried.
  uint64_t seed = 1;
  bool trace = false;
  // Scratch directory for the stack log, request timings and spans; must
  // exist and be writable.
  std::string work_dir;
  // Installed on the stack when set; the benchmark's own tests use it to
  // make scrapes fail.
  std::shared_ptr<ceems::faults::FaultPlan> fault_plan;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;  // failed correctness checks
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;  // filled by traced runs
  std::map<std::string, std::string> context;
};

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options);

// run_workload() times recoveries in a child process: the running program
// started again with this flag as its first argument. A program that calls
// run_workload() must hand such a call to recovery_main() and return its
// exit code.
inline constexpr const char* kRecoverFlag = "--recover";
int recovery_main(int argc, char** argv);

}  // namespace perfbench
