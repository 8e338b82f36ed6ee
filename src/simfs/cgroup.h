// cgroup v2 accounting files: writer used by the resource-manager simulator
// (one cgroup per compute workload, exactly as SLURM/Libvirt/Kubelet do per
// the paper) and reader used by the CEEMS exporter's cgroup collector.
//
// File formats follow the kernel's cgroup v2 documentation:
//   cpu.stat        flat-keyed: usage_usec / user_usec / system_usec
//   memory.current  single value (bytes)
//   memory.peak     single value (bytes)
//   memory.max      single value or "max"
//   memory.stat     flat-keyed (subset: anon, file, kernel)
//   io.stat         "<maj>:<min> rbytes=N wbytes=N rios=N wios=N"
//   cgroup.procs    one PID per line
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "simfs/pseudo_fs.h"

namespace ceems::simfs {

// Default root and the SLURM job scope used on Jean-Zay-like systems.
inline constexpr const char* kCgroupRoot = "/sys/fs/cgroup";
inline constexpr const char* kSlurmScope =
    "/sys/fs/cgroup/system.slice/slurmstepd.scope";

struct CgroupCpuStat {
  int64_t usage_usec = 0;
  int64_t user_usec = 0;
  int64_t system_usec = 0;
  bool operator==(const CgroupCpuStat&) const = default;
};

struct CgroupMemoryStat {
  int64_t current_bytes = 0;
  int64_t peak_bytes = 0;
  int64_t max_bytes = -1;  // -1 = "max" (no limit)
  int64_t anon_bytes = 0;
  int64_t file_bytes = 0;
  bool operator==(const CgroupMemoryStat&) const = default;
};

struct CgroupIoStat {
  int64_t rbytes = 0;
  int64_t wbytes = 0;
  int64_t rios = 0;
  int64_t wios = 0;
  bool operator==(const CgroupIoStat&) const = default;
};

struct CgroupStats {
  CgroupCpuStat cpu;
  CgroupMemoryStat memory;
  CgroupIoStat io;
  std::vector<int64_t> procs;
  bool operator==(const CgroupStats&) const = default;
};

// Writer side — maintains the accounting files for one cgroup directory.
class CgroupWriter {
 public:
  CgroupWriter(PseudoFsPtr fs, std::string path);

  const std::string& path() const { return path_; }

  void update_cpu(const CgroupCpuStat& cpu);
  void update_memory(const CgroupMemoryStat& memory);
  void update_io(const CgroupIoStat& io);
  void set_procs(const std::vector<int64_t>& pids);

  // Removes the cgroup directory (job teardown).
  void destroy();

 private:
  PseudoFsPtr fs_;
  std::string path_;
};

// Reader side — parses the accounting files of one cgroup directory.
// Returns nullopt if the directory does not exist (job already gone, a race
// the exporter must tolerate).
std::optional<CgroupStats> read_cgroup(const Fs& fs,
                                       const std::string& path);

// Lists child cgroup directories under `scope` (e.g. job_123, job_456).
std::vector<std::string> list_child_cgroups(const Fs& fs,
                                            const std::string& scope);

}  // namespace ceems::simfs
