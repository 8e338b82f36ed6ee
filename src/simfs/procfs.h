// /proc/stat and /proc/meminfo in the kernel's text formats. The node
// simulator maintains them; the exporter's node collector parses them for
// whole-node CPU time and memory (the denominators of the paper's Eq. 1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "simfs/pseudo_fs.h"

namespace ceems::simfs {

// Per-CPU jiffies by mode, mirroring one "cpuN ..." line. USER_HZ = 100.
struct ProcCpuLine {
  int64_t user = 0;
  int64_t nice = 0;
  int64_t system = 0;
  int64_t idle = 0;
  int64_t iowait = 0;
  int64_t irq = 0;
  int64_t softirq = 0;

  int64_t total() const {
    return user + nice + system + idle + iowait + irq + softirq;
  }
  int64_t busy() const { return total() - idle - iowait; }
  bool operator==(const ProcCpuLine&) const = default;
};

struct ProcStat {
  ProcCpuLine aggregate;            // the "cpu" line
  std::vector<ProcCpuLine> cpus;    // "cpu0".."cpuN"
  int64_t boot_time_sec = 0;
  bool operator==(const ProcStat&) const = default;
};

struct MemInfo {
  int64_t mem_total_kb = 0;
  int64_t mem_free_kb = 0;
  int64_t mem_available_kb = 0;
  int64_t buffers_kb = 0;
  int64_t cached_kb = 0;
  bool operator==(const MemInfo&) const = default;
};

// Writer: renders the structures into /proc/stat and /proc/meminfo.
void write_proc_stat(PseudoFs& fs, const ProcStat& stat);
void write_meminfo(PseudoFs& fs, const MemInfo& info);

// Reader: parses the files back; nullopt if absent/malformed.
std::optional<ProcStat> read_proc_stat(const Fs& fs);
std::optional<MemInfo> read_meminfo(const Fs& fs);

}  // namespace ceems::simfs
