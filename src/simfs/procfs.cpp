#include "simfs/procfs.h"

#include "common/strutil.h"

namespace ceems::simfs {

namespace {

std::string render_cpu_line(const std::string& name, const ProcCpuLine& cpu) {
  return name + " " + std::to_string(cpu.user) + " " +
         std::to_string(cpu.nice) + " " + std::to_string(cpu.system) + " " +
         std::to_string(cpu.idle) + " " + std::to_string(cpu.iowait) + " " +
         std::to_string(cpu.irq) + " " + std::to_string(cpu.softirq) + " 0 0 0\n";
}

// Parses the seven mode counters that follow a "cpuN" name; nullopt when
// the line has fewer. A field that is not an integer reads as 0.
std::optional<ProcCpuLine> parse_cpu_line(std::string_view fields) {
  ProcCpuLine cpu;
  for (int64_t* mode : {&cpu.user, &cpu.nice, &cpu.system, &cpu.idle,
                        &cpu.iowait, &cpu.irq, &cpu.softirq}) {
    std::string_view field = common::next_field(fields);
    if (field.empty()) return std::nullopt;
    *mode = common::parse_int64(field).value_or(0);
  }
  return cpu;
}

}  // namespace

void write_proc_stat(PseudoFs& fs, const ProcStat& stat) {
  std::string content = render_cpu_line("cpu", stat.aggregate);
  for (std::size_t i = 0; i < stat.cpus.size(); ++i) {
    content += render_cpu_line("cpu" + std::to_string(i), stat.cpus[i]);
  }
  content += "btime " + std::to_string(stat.boot_time_sec) + "\n";
  fs.write("/proc/stat", std::move(content));
}

void write_meminfo(PseudoFs& fs, const MemInfo& info) {
  std::string content =
      "MemTotal:       " + std::to_string(info.mem_total_kb) + " kB\n" +
      "MemFree:        " + std::to_string(info.mem_free_kb) + " kB\n" +
      "MemAvailable:   " + std::to_string(info.mem_available_kb) + " kB\n" +
      "Buffers:        " + std::to_string(info.buffers_kb) + " kB\n" +
      "Cached:         " + std::to_string(info.cached_kb) + " kB\n";
  fs.write("/proc/meminfo", std::move(content));
}

std::optional<ProcStat> read_proc_stat(const Fs& fs) {
  auto content = fs.read("/proc/stat");
  if (!content) return std::nullopt;
  ProcStat stat;
  bool saw_aggregate = false;
  for (std::string_view rest = *content; !rest.empty();) {
    std::string_view line = common::next_line(rest);
    std::string_view name = common::next_field(line);
    if (name.empty()) continue;
    if (name == "cpu") {
      if (auto cpu = parse_cpu_line(line)) {
        stat.aggregate = *cpu;
        saw_aggregate = true;
      }
    } else if (common::starts_with(name, "cpu")) {
      if (auto cpu = parse_cpu_line(line)) stat.cpus.push_back(*cpu);
    } else if (name == "btime") {
      std::string_view value = common::next_field(line);
      if (!value.empty())
        stat.boot_time_sec = common::parse_int64(value).value_or(0);
    }
  }
  if (!saw_aggregate) return std::nullopt;
  return stat;
}

std::optional<MemInfo> read_meminfo(const Fs& fs) {
  auto content = fs.read("/proc/meminfo");
  if (!content) return std::nullopt;
  MemInfo info;
  for (std::string_view rest = *content; !rest.empty();) {
    std::string_view line = common::next_line(rest);
    std::string_view key = common::next_field(line);
    std::string_view value_text = common::next_field(line);
    if (value_text.empty()) continue;
    int64_t value = common::parse_int64(value_text).value_or(0);
    if (key == "MemTotal:") info.mem_total_kb = value;
    else if (key == "MemFree:") info.mem_free_kb = value;
    else if (key == "MemAvailable:") info.mem_available_kb = value;
    else if (key == "Buffers:") info.buffers_kb = value;
    else if (key == "Cached:") info.cached_kb = value;
  }
  if (info.mem_total_kb == 0) return std::nullopt;
  return info;
}

}  // namespace ceems::simfs
