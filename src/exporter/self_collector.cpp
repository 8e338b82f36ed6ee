#include "exporter/self_collector.h"

#include <unistd.h>

#include "common/strutil.h"
#include "simfs/real_fs.h"

namespace ceems::exporter {

using metrics::Labels;
using metrics::MetricFamily;
using metrics::MetricType;

namespace {

// Reads a procfs file of this process; empty when it cannot be read.
std::string read_self(const std::string& path) {
  static const simfs::RealFs fs;
  return fs.read(path).value_or(std::string());
}

// The next whitespace-separated field of `text` as an integer, 0 when it
// is missing or not a number.
long long next_int(std::string_view& text) {
  return common::parse_int64(common::next_field(text)).value_or(0);
}

}  // namespace

std::size_t statm_resident_pages(std::string_view statm) {
  next_int(statm);  // total program size
  return static_cast<std::size_t>(next_int(statm));
}

long long stat_cpu_ticks(std::string_view stat) {
  // Field 2 (comm) may contain spaces but is parenthesized — skip to the
  // closing paren; fields 3-13 follow, then utime and stime.
  std::string_view line = common::next_line(stat);
  std::size_t close = line.rfind(')');
  if (close == std::string_view::npos) return 0;
  line.remove_prefix(close + 1);
  for (int i = 3; i <= 13; ++i) common::next_field(line);
  long long utime = next_int(line);
  return utime + next_int(line);
}

std::size_t process_resident_bytes() {
  return statm_resident_pages(read_self("/proc/self/statm")) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

double process_cpu_seconds() {
  return static_cast<double>(stat_cpu_ticks(read_self("/proc/self/stat"))) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::vector<metrics::MetricFamily> SelfCollector::collect(
    common::TimestampMs /*now*/) {
  std::vector<MetricFamily> out = registry_->collect();

  MetricFamily rss{"process_resident_memory_bytes",
                   "Resident memory of the exporter process.",
                   MetricType::kGauge,
                   {}};
  rss.add(Labels{}, static_cast<double>(process_resident_bytes()));
  out.push_back(std::move(rss));

  MetricFamily cpu{"process_cpu_seconds_total",
                   "Cumulative CPU time of the exporter process.",
                   MetricType::kCounter,
                   {}};
  cpu.add(Labels{}, process_cpu_seconds());
  out.push_back(std::move(cpu));
  return out;
}

}  // namespace ceems::exporter
