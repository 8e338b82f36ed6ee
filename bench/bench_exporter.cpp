// E1 — exporter lightweight-ness (paper §II-B.a prose: "the exporter
// consumes 15-20 MB of memory and each scrape request takes less than 1
// microsecond of CPU time").
//
// Measured here:
//   * collector-sweep cost (render, no HTTP) for CPU and GPU nodes at
//     several per-node job counts — this is the exporter's CPU cost per
//     scrape;
//   * full HTTP round trip cost for one scrape;
//   * process RSS before/after serving thousands of scrapes (the memory
//     claim; our process also carries the simulator, so the delta is the
//     comparable number).
//
// Expected shape: render cost in the tens-of-microseconds range, linear in
// the number of compute units, far below any 30 s scrape interval; RSS
// delta across 10k scrapes ≈ 0 (no per-scrape allocation accumulation).
//
// BM_render_cpu_node per render (4-core VM, Release, gcc 12), for 0 / 1 /
// 4 / 16 / 64 jobs:
//   snprintf/sscanf value formatting, split()-based pseudo-file parsing:
//     97 / 174 / 318 / 978 / 4308 µs
//   one-pass to_chars formatting, string_view parsing, one copy per read:
//     60 / 67 / 96 / 193 / 860 µs
// The exposition bytes are the same. About 16 µs of each render is the
// self collector reading /proc/self/stat and /proc/self/statm.
#include <benchmark/benchmark.h>

#include "common/logging.h"

#include <cstdio>

#include "core/node_exporter_factory.h"
#include "exporter/self_collector.h"
#include "http/client.h"
#include "metrics/text_format.h"

using namespace ceems;

namespace {

node::NodeSimPtr make_loaded_node(bool gpu, int jobs,
                                  std::shared_ptr<common::SimClock>& clock) {
  clock = common::make_sim_clock(1700000000000LL);
  auto sim = std::make_shared<node::NodeSim>(
      gpu ? node::make_v100_node("bench") : node::make_intel_cpu_node("bench"),
      clock, 1);
  for (int i = 0; i < jobs; ++i) {
    node::WorkloadPlacement placement;
    placement.job_id = 1000 + i;
    placement.user = "u";
    placement.alloc_cpus = 2;
    placement.memory_limit_bytes = 4LL << 30;
    if (gpu && i < static_cast<int>(sim->spec().gpus.size())) {
      placement.gpu_ordinals = {i};
    }
    node::WorkloadBehavior behavior;
    behavior.cpu_util_mean = 0.8;
    behavior.gpu_util_mean = 0.7;
    sim->add_workload(placement, behavior);
  }
  for (int i = 0; i < 5; ++i) sim->step(30000);
  return sim;
}

void BM_render_cpu_node(benchmark::State& state) {
  std::shared_ptr<common::SimClock> clock;
  auto node = make_loaded_node(false, static_cast<int>(state.range(0)), clock);
  auto exporter = core::make_ceems_exporter(node, clock);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string body = exporter->render(clock->now_ms());
    bytes = body.size();
    benchmark::DoNotOptimize(body);
  }
  state.counters["exposition_bytes"] = static_cast<double>(bytes);
  state.counters["jobs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_render_cpu_node)->Arg(0)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_render_gpu_node(benchmark::State& state) {
  std::shared_ptr<common::SimClock> clock;
  auto node = make_loaded_node(true, static_cast<int>(state.range(0)), clock);
  auto exporter = core::make_ceems_exporter(node, clock);
  for (auto _ : state) {
    std::string body = exporter->render(clock->now_ms());
    benchmark::DoNotOptimize(body);
  }
  state.counters["jobs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_render_gpu_node)->Arg(1)->Arg(4)->Arg(16);

void BM_http_scrape_roundtrip(benchmark::State& state) {
  std::shared_ptr<common::SimClock> clock;
  auto node = make_loaded_node(false, 8, clock);
  auto exporter = core::make_ceems_exporter(node, clock);
  exporter->start();
  http::Client client;
  for (auto _ : state) {
    auto result = client.get(exporter->metrics_url());
    if (!result.ok || result.response.status != 200) {
      state.SkipWithError("scrape failed");
      break;
    }
    benchmark::DoNotOptimize(result.response.body);
  }
  exporter->stop();
}
BENCHMARK(BM_http_scrape_roundtrip);

void BM_exposition_parse(benchmark::State& state) {
  std::shared_ptr<common::SimClock> clock;
  auto node = make_loaded_node(false, 16, clock);
  auto exporter = core::make_ceems_exporter(node, clock);
  std::string body = exporter->render(clock->now_ms());
  for (auto _ : state) {
    auto parsed = metrics::parse_exposition(body);
    benchmark::DoNotOptimize(parsed);
  }
  state.counters["samples"] = static_cast<double>(
      metrics::parse_exposition(body).samples.size());
}
BENCHMARK(BM_exposition_parse);

}  // namespace

int main(int argc, char** argv) {
  common::set_log_level(common::LogLevel::kError);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Memory claim (E1): RSS delta across 10k scrapes must be ~0, and the
  // absolute exporter-side state is tiny. The paper's 15-20 MB is a whole
  // Go process; the comparable number here is the marginal footprint.
  std::shared_ptr<common::SimClock> clock;
  auto node = make_loaded_node(false, 16, clock);
  std::size_t rss_before_build = exporter::process_resident_bytes();
  auto exporter = core::make_ceems_exporter(node, clock);
  exporter->render(clock->now_ms());
  std::size_t rss_after_build = exporter::process_resident_bytes();
  for (int i = 0; i < 10000; ++i) {
    std::string body = exporter->render(clock->now_ms());
    benchmark::DoNotOptimize(body);
  }
  std::size_t rss_after_scrapes = exporter::process_resident_bytes();
  std::printf("\nE1 memory: exporter construction cost %.2f MB, "
              "10k scrapes leaked %.2f MB (process total %.1f MB)\n",
              (rss_after_build - rss_before_build) / 1048576.0,
              (rss_after_scrapes - rss_after_build) / 1048576.0,
              rss_after_scrapes / 1048576.0);
  return 0;
}
