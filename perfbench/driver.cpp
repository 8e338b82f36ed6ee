// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload fleet_1400 --seed 1 --seconds 10 --trace 0
//                    --work-dir DIR
//
// Prints a context line, one "name value unit" line per metric, and as
// its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 1 on a usage error, 3 when the build is not a Release build.
// A run starts this program again with --recover to time its recoveries
// (perfbench::recovery_main()).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common/logging.h"
#include "workloads.h"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == perfbench::kRecoverFlag)
    return perfbench::recovery_main(argc, argv);
  std::map<std::string, std::string> args = {
      {"--seed", "1"}, {"--seconds", "10"}, {"--trace", "0"}};
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || !args.count("--workload") || !args.count("--work-dir"))
    return usage();

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr,
                 "perfbench: refusing a '%s' build; timings come from "
                 "Release builds only\n",
                 build_type.c_str());
    return 3;
  }

  perfbench::WorkloadSpec spec;
  perfbench::RunOptions options;
  try {
    spec = perfbench::workload_spec(args["--workload"],
                                    std::stod(args["--seconds"]));
    options.seed = std::stoull(args["--seed"]);
    options.trace = args["--trace"] == "1";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }
  options.work_dir = args["--work-dir"];
  std::filesystem::create_directories(options.work_dir);
  ceems::common::set_log_level(ceems::common::LogLevel::kWarn);

  perfbench::RunResult result = perfbench::run_workload(spec, options);

  const unsigned nproc = std::thread::hardware_concurrency();
  auto& ctx = result.context;
  ctx["build_type"] = build_type;
  ctx["compiler"] = PERFBENCH_COMPILER;
  ctx["nproc"] = std::to_string(nproc);
  ctx["trace"] = options.trace ? "1" : "0";
  if (nproc < 4) {
    ctx["warning"] = "fewer than 4 cores: not a baseline machine";
  }

  std::string context = "{";
  for (const auto& [key, value] : ctx) {
    if (context.size() > 1) context += ", ";
    context += json_string(key) + ": " + json_string(value);
  }
  context += "}";
  std::printf("# context %s\n", context.c_str());
  for (const auto& failure : result.failures) {
    std::printf("# FAILED CHECK: %s\n", failure.c_str());
  }

  // Every metric is printed; the JSON carries the set --trace selects.
  auto& chosen = options.trace ? result.per_layer : result.end_to_end;
  std::string metrics = "{";
  for (const auto& [name, metric] : chosen) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      result.correct = false;
      std::printf("# FAILED CHECK: %s is not finite\n", name.c_str());
      value = -1;
    }
    if (metrics.size() > 1) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + json_string(metric.unit) + "}";
  }
  metrics += "}";
  for (const auto* set : {&result.end_to_end, &result.per_layer}) {
    for (const auto& [name, metric] : *set) {
      std::printf("%-36s %14.6f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  const double error_ratio =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 0;
  std::printf("%-36s %14.6f 1 (%llu failed / %llu attempted)\n",
              "error_ratio", error_ratio,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::string line = "{\"correct\": " +
                     std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": " + metrics + "}";
  if (FILE* out = std::fopen((options.work_dir + "/result.json").c_str(), "w")) {
    std::fprintf(out, "{\"context\": %s, \"result\": %s}\n", context.c_str(),
                 line.c_str());
    std::fclose(out);
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
