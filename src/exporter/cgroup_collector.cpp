#include "exporter/cgroup_collector.h"

#include "common/strutil.h"

namespace ceems::exporter {

using metrics::Labels;
using metrics::MetricFamily;
using metrics::MetricType;

CgroupCollector::CgroupCollector(simfs::FsPtr fs, std::string scope,
                                 std::string child_prefix, std::string manager)
    : fs_(std::move(fs)),
      scope_(std::move(scope)),
      child_prefix_(std::move(child_prefix)),
      manager_(std::move(manager)) {}

std::vector<metrics::MetricFamily> CgroupCollector::collect(
    common::TimestampMs /*now*/) {
  MetricFamily cpu{"ceems_compute_unit_cpu_usage_seconds_total",
                   "Cumulative CPU time of the compute unit by mode.",
                   MetricType::kCounter,
                   {}};
  MetricFamily mem_current{"ceems_compute_unit_memory_current_bytes",
                           "Resident memory of the compute unit.",
                           MetricType::kGauge,
                           {}};
  MetricFamily mem_peak{"ceems_compute_unit_memory_peak_bytes",
                        "Peak resident memory of the compute unit.",
                        MetricType::kGauge,
                        {}};
  MetricFamily mem_limit{"ceems_compute_unit_memory_limit_bytes",
                         "Memory limit of the compute unit (-1 = none).",
                         MetricType::kGauge,
                         {}};
  MetricFamily io_read{"ceems_compute_unit_io_read_bytes_total",
                       "Bytes read by the compute unit.",
                       MetricType::kCounter,
                       {}};
  MetricFamily io_write{"ceems_compute_unit_io_write_bytes_total",
                        "Bytes written by the compute unit.",
                        MetricType::kCounter,
                        {}};
  MetricFamily procs{"ceems_compute_unit_procs",
                     "Processes in the compute unit's cgroup.",
                     MetricType::kGauge,
                     {}};
  MetricFamily units{"ceems_compute_units",
                     "Number of compute units on this node.",
                     MetricType::kGauge,
                     {}};

  int64_t unit_count = 0;
  for (const auto& child : simfs::list_child_cgroups(*fs_, scope_)) {
    if (!common::starts_with(child, child_prefix_)) continue;
    std::string uuid = child.substr(child_prefix_.size());
    auto stats = simfs::read_cgroup(*fs_, scope_ + "/" + child);
    if (!stats) continue;  // job exited between listing and reading
    ++unit_count;
    Labels base{{kUuidLabel, uuid}, {kManagerLabel, manager_}};
    cpu.add(base.with("mode", "user"),
            static_cast<double>(stats->cpu.user_usec) * 1e-6);
    cpu.add(base.with("mode", "system"),
            static_cast<double>(stats->cpu.system_usec) * 1e-6);
    mem_current.add(base, static_cast<double>(stats->memory.current_bytes));
    mem_peak.add(base, static_cast<double>(stats->memory.peak_bytes));
    mem_limit.add(base, static_cast<double>(stats->memory.max_bytes));
    io_read.add(base, static_cast<double>(stats->io.rbytes));
    io_write.add(base, static_cast<double>(stats->io.wbytes));
    procs.add(base, static_cast<double>(stats->procs.size()));
  }
  units.add(Labels{{kManagerLabel, manager_}},
            static_cast<double>(unit_count));

  return move_families(cpu, mem_current, mem_peak, mem_limit, io_read,
                       io_write, procs, units);
}

}  // namespace ceems::exporter
