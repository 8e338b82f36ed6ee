// The benchmark's own tests: the statistics on synthetic data, open-loop
// lateness accounting with an injected stall, the reference kernel's fixed
// work, a 35-node smoke of every workload that runs all of its correctness
// checks, and a run whose scrapes all fail, which must come back incorrect.
//
//   perfbench_test [--no-smoke]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>

#include "common/logging.h"
#include "faults/plan.h"
#include "reference.h"
#include "stats.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ++g_failures;                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
    }                                                                   \
  } while (0)

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(near(perfbench::percentile(v, 50), 50.5));
  CHECK(near(perfbench::percentile(v, 99), 99.01));
  CHECK(near(perfbench::percentile(v, 0), 1));
  CHECK(near(perfbench::percentile(v, 100), 100));
  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(std::isnan(perfbench::median({})));
  // A failed request counts as infinitely slow and never turns into NaN.
  const double inf = std::numeric_limits<double>::infinity();
  CHECK(std::isinf(perfbench::percentile({1, 2, inf}, 99)));
  CHECK(std::isinf(perfbench::percentile({1, inf, inf}, 99)));
  CHECK(near(perfbench::percentile({1, 2, inf}, 0), 1));
}

void test_windowed_peak() {
  using perfbench::GenerationSample;
  const int64_t interval = 30000, window = 300000;
  // 25 generations: two full 5-minute windows with a spike at the 10th
  // generation of each, then a partial window without one.
  std::vector<GenerationSample> gens;
  for (int i = 0; i < 25; ++i) {
    double wall = 1.0 + 0.01 * i;
    if (i == 9) wall = 3.0;
    if (i == 19) wall = 5.0;
    gens.push_back({1000000 + (i + 1) * interval, wall});
  }
  CHECK(near(perfbench::windowed_peak(gens, window, interval), 4.0));
  // Only a partial window: its maximum.
  gens.resize(5);
  CHECK(near(perfbench::windowed_peak(gens, window, interval), 1.04));
  CHECK(std::isnan(perfbench::windowed_peak({}, window, interval)));
}

void test_open_loop_stall() {
  // Fake clock: sleeping jumps to the due time, a request takes 1 ms, and
  // request 10 stalls for 100 ms.
  double now = 0;
  perfbench::LoopClock clock;
  clock.now_s = [&] { return now; };
  clock.sleep_until_s = [&](double t) { now = std::max(now, t); };
  std::vector<double> due;
  for (int i = 0; i < 100; ++i) due.push_back(0.01 * i);  // 100 per second
  auto timings = perfbench::run_open_loop(
      due,
      [&](std::size_t i) {
        now += i == 10 ? 0.100 : 0.001;
        return i != 50;  // one failed request
      },
      clock);
  CHECK(timings.size() == 100);
  CHECK(near(timings[5].late_ms(), 0, 1e-6));
  CHECK(near(timings[5].latency_ms(), 1, 1e-6));
  CHECK(near(timings[10].latency_ms(), 100, 1e-6));
  // Request 11 was due at 110 ms but could only start at 200 ms: timed
  // from due, the stall is charged to it.
  CHECK(near(timings[11].late_ms(), 90, 1e-6));
  CHECK(near(timings[11].latency_ms(), 91, 1e-6));
  // The backlog drains by 9 ms per request: request 20 is still late,
  // request 21 is back on schedule.
  CHECK(timings[20].late_ms() > 0.5);
  CHECK(near(timings[21].late_ms(), 0, 1e-6));
  CHECK(perfbench::lateness_percentile_ms(timings, 99) > 80);
  CHECK(std::isinf(perfbench::latency_percentile_ms(timings, 100)));
  CHECK(near(perfbench::latency_percentile_ms(timings, 50), 1, 1e-6));
}

void test_reference_kernel() {
  // The same fixed work every time: two kernels agree run for run.
  perfbench::ReferenceKernel a, b;
  for (int i = 0; i < 2; ++i) {
    const double ta = a.run(), tb = b.run();
    CHECK(ta > 0 && tb > 0 && std::isfinite(ta) && std::isfinite(tb));
  }
  CHECK(a.checksum() == b.checksum());
  CHECK(a.checksum() != 0);
}

void smoke(const std::string& name) {
  for (bool trace : {false, true}) {
    perfbench::WorkloadSpec spec = perfbench::workload_spec(name, 10);
    spec.nodes = 35;
    if (spec.measured_generations == 0) spec.measure_s = 4;
    spec.idle_probe_s = spec.measured_generations > 0 ? 1.0 : 0;
    perfbench::RunOptions options;
    options.seed = 3;
    options.trace = trace;
    options.work_dir = ".bench_build/test/" + name + (trace ? "-t1" : "-t0");
    std::filesystem::create_directories(options.work_dir);
    perfbench::RunResult result = perfbench::run_workload(spec, options);
    for (const auto& failure : result.failures) {
      std::fprintf(stderr, "  %s: %s\n", name.c_str(), failure.c_str());
    }
    CHECK(result.correct);
    CHECK(result.attempted > 0);
    CHECK(result.failed == 0);
    for (const char* metric :
         {"generation_p50_s", "recovery_s", "setup_s", "peak_rss_mb"}) {
      auto it = result.end_to_end.find(metric);
      CHECK(it != result.end_to_end.end());
      if (it != result.end_to_end.end()) {
        CHECK(std::isfinite(it->second.value) && it->second.value > 0);
      }
    }
    for (const char* metric :
         {"generation.wall_p50_s", "reference.wall_p50_s", "setup.wall_s",
          "recovery.wall_s", "generation_peak_s",
          "query_p50_ms", "query_p99_ms", "api_p50_ms", "api_p99_ms"}) {
      CHECK(result.per_layer.count(metric) &&
            result.per_layer.at(metric).value > 0);
    }
    CHECK(trace == result.per_layer.count("trace.gap_s"));
    if (trace) {
      CHECK(result.per_layer.at("rules.evaluated").value > 0);
      CHECK(result.per_layer.at("scrape.samples").value > 0);
      // A closed loop spans a whole 5-minute window, so it compacts.
      if (spec.measured_generations >= 10) {
        CHECK(result.per_layer.at("longterm.compact_s").value > 0);
      }
      CHECK((result.per_layer.at("wal.groups").value > 0) == spec.durable);
    }
    std::filesystem::remove_all(options.work_dir);
    std::printf("smoke %-14s trace=%d ok=%d\n", name.c_str(), trace,
                result.correct);
  }
}

// Every scrape fails: the run must come back incorrect, naming the scrapes.
void failed_scrapes_fail_the_run() {
  perfbench::WorkloadSpec spec = perfbench::workload_spec("fleet_1400", 2);
  spec.nodes = 35;
  spec.idle_probe_s = 0.5;
  perfbench::RunOptions options;
  options.work_dir = ".bench_build/test/failed-scrapes";
  std::filesystem::create_directories(options.work_dir);
  options.fault_plan = std::make_shared<ceems::faults::FaultPlan>(7);
  ceems::faults::SiteFaults always;
  always.unavailable = 1.0;
  options.fault_plan->configure("scrape.target", always);
  perfbench::RunResult result = perfbench::run_workload(spec, options);
  CHECK(!result.correct);
  CHECK(result.failed > 0);
  bool named = false;
  for (const auto& failure : result.failures)
    named = named || failure.find("scrapes failed") != std::string::npos;
  CHECK(named);
  std::filesystem::remove_all(options.work_dir);
  std::printf("failed scrapes -> correct=%d\n", result.correct);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], perfbench::kRecoverFlag) == 0)
    return perfbench::recovery_main(argc, argv);
  bool run_smoke = !(argc > 1 && std::strcmp(argv[1], "--no-smoke") == 0);
  ceems::common::set_log_level(ceems::common::LogLevel::kWarn);
  test_percentile();
  test_windowed_peak();
  test_open_loop_stall();
  test_reference_kernel();
  if (run_smoke) {
    for (const auto& name : perfbench::workload_names()) smoke(name);
    failed_scrapes_fail_the_run();
  }
  std::printf("%s (%d failed checks)\n", g_failures ? "FAIL" : "PASS",
              g_failures);
  return g_failures ? 1 : 0;
}
